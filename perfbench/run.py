"""End-to-end and per-layer benchmark of the Louvain reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload rmat-sim --seed 1 --seconds 20 --trace 0

Workloads (the reasons are in ``BENCHMARK.json``):

* ``rmat-sim``  -- batches of R-MAT graphs, vector backend, 2 simulated ranks;
* ``lfr-proc``  -- LFR graphs, 2 forked ranks over shared memory;
* ``service-rw`` -- a ``repro serve`` subprocess under two closed-loop HTTP
  clients mixing detect jobs, edge-batch updates and membership reads.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same workload with the program's Tracer on and the benchmark's own
wrappers installed (``probes.py``), prints the per-layer metrics, a per-layer
self-time report, and writes every span to ``.perfbench/``.

Every run checks the program's outputs; a failed check is counted in
``failed``, makes ``correct`` false and the exit code 1.  The last line of
standard output is the JSON result.  ``--size tiny`` and ``--sabotage`` exist
for the benchmark's own tests (``test_perfbench.py``).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

from common import OUT_DIR, ROOT

WORKLOADS = ("rmat-sim", "lfr-proc", "service-rw")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_program() -> None:
    """Make the checkout's ``src/`` importable; fail if there is no program."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program at {src}/repro; run from the repository root"
        )
    sys.path.insert(0, src)
    # The service workload's `repro serve` subprocess imports it the same way.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    import repro  # noqa: F401  (fails loudly if the program does not import)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument(
        "--sabotage", action="store_true",
        help="corrupt one answer (library workloads) or force one job to "
        "fail (service-rw); the run must then report failures",
    )
    args = ap.parse_args(argv)

    spec = _load_spec()
    _import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    for stale in glob.glob(os.path.join(OUT_DIR, "child-*.json")):
        os.unlink(stale)

    import probes

    rec = probes.Recorder(OUT_DIR)
    started = time.perf_counter()
    run_args = dict(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        size_name=args.size, sabotage=args.sabotage, rec=rec,
    )
    if args.workload == "service-rw":
        import service

        outcome = service.run(**run_args)
    else:
        import batch

        outcome = batch.run(args.workload, **run_args)

    if not args.trace:
        attempted = max(outcome.attempted, 1)
        outcome.metrics["success_rate"] = 1.0 - outcome.failed / attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for entry in wanted:
        name = entry["name"]
        if name not in outcome.metrics:
            missing.append(name)
        metrics[name] = {"value": float(outcome.metrics.get(name, 0.0)), "unit": entry["unit"]}
    if missing and not args.trace:
        outcome.fail(f"end-to-end metrics not measured: {missing}")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"wall={time.perf_counter() - started:.1f}s")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        print(f"not applicable here, reported as 0: {', '.join(missing) or 'none'}")
        for line in outcome.unmeasured:
            print(f"unmeasured: {line}")
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        probes.write_spans(rec.spans, spans_path)
        print(f"spans: {len(rec.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        for line in probes.layer_report(rec.spans):
            print(line)
    for note in outcome.notes:
        print(f"note: {note}")
    for err in outcome.errors:
        print(f"FAILED: {err}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
