"""The library workloads: ``rmat-sim`` and ``lfr-proc``.

Each run generates a batch of graphs from ``--seed`` (set-up), then calls
``detect_communities`` on every graph of the batch, pass after pass, until
``--seconds`` is spent (at least one full pass).  One pass costs the same
on both sides of a comparison because the batch is fixed by the seed.

Why a batch and not one graph: parallel Louvain's trajectory on R-MAT is
chaotic in the input -- across generator seeds the same size of graph takes
8 to 45 REFINE iterations and ends at Q from 0.03 to 0.09.  Averaging each
pass over many graphs makes one run's numbers steady across seeds, while
the mean Q still carries the low-quality runs.

Checks, each failure counted into ``failed``:

* every graph's fingerprint (n, m, total weight) equals the value recorded
  for this seed in ``fingerprints.json``, and a fixed probe graph of the
  generator equals its recorded fingerprint (for seeds never recorded);
* the modularity the program reports equals ``repro.metrics`` recomputed on
  the returned membership;
* repeated detections of one graph return identical memberships and Q.
"""

from __future__ import annotations

import contextlib
import hashlib
import time

import numpy as np

from common import (
    Outcome,
    fingerprint,
    median,
    parallel_layers,
    peak_rss_mb,
    profiler_layers,
    recorded_fingerprints,
)

#: Per workload and size: generator parameters, batch size, and how many of
#: the batch's graphs the traced run also detects sequentially (and untraced,
#: for the overhead reference).  "tiny" is the self-test size.
SIZES = {
    "rmat-sim": {
        "full": {"scale": 12, "graphs": 40, "sequential": 4},
        "tiny": {"scale": 7, "graphs": 3, "sequential": 1},
    },
    "lfr-proc": {
        "full": {"vertices": 60_000, "avg_degree": 32, "graphs": 3, "sequential": 1},
        "tiny": {"vertices": 600, "avg_degree": 12, "graphs": 2, "sequential": 1},
    },
}

DETECT_OPTIONS = {
    "rmat-sim": {"num_ranks": 2, "backend": "vector"},
    "lfr-proc": {"num_ranks": 2, "execution": "process"},
}

#: Small fixed-seed probe graphs: a generator change shows on any seed.
PROBES = {
    "rmat-sim": {"scale": 8},
    "lfr-proc": {"vertices": 500, "avg_degree": 12},
}


def generate(workload: str, size: dict, graph_seed: int):
    from repro.generators import generate_lfr, generate_rmat

    if workload == "rmat-sim":
        return generate_rmat(scale=size["scale"], edge_factor=16, seed=graph_seed)
    return generate_lfr(
        num_vertices=size["vertices"], avg_degree=size["avg_degree"], seed=graph_seed
    ).graph


def probe_graph(workload: str):
    return generate(workload, PROBES[workload], 0)


def _membership_digest(membership) -> str:
    return hashlib.sha1(np.ascontiguousarray(membership, dtype=np.int64)).hexdigest()


class _Checker:
    """Output checks; the time spent here is kept out of ``detect_s``."""

    def __init__(self, out: Outcome, sabotage: bool) -> None:
        self.out = out
        self.sabotage = sabotage
        self.seen: dict[int, tuple[str, float]] = {}
        self.seconds = 0.0

    def check(self, idx: int, graph, summary) -> None:
        from repro.metrics import modularity_from_labels

        t0 = time.perf_counter()
        membership = summary.membership
        if self.sabotage and idx == 0:
            # Self-test: a corrupted answer must be caught.
            membership = membership.copy()
            membership[: max(1, membership.size // 4)] = membership.max() + 1
        q = modularity_from_labels(graph, membership)
        if abs(q - summary.modularity) > 1e-9 * max(1.0, abs(q)):
            self.out.fail(
                f"graph {idx}: reported Q {summary.modularity!r} but the "
                f"membership has Q {q!r}"
            )
        digest = (_membership_digest(membership), float(summary.modularity))
        first = self.seen.setdefault(idx, digest)
        if first != digest:
            self.out.fail(f"graph {idx}: a repeated detection returned another answer")
        self.seconds += time.perf_counter() - t0


def run(workload, *, seed, seconds, trace, size_name, sabotage, rec) -> Outcome:
    from repro import detect_communities
    from repro.observability import Tracer

    out = Outcome()
    size = SIZES[workload][size_name]
    options = DETECT_OPTIONS[workload]

    # ---- set-up: generate the batch, check fingerprints -------------- #
    recorded, probes = recorded_fingerprints(workload, seed)
    out.attempted += 1
    probe = probe_graph(workload)
    if fingerprint(probe) != probes[workload]:
        out.fail(f"{workload}: the generator's probe graph changed")
    graphs, setup_times = [], []
    for i in range(size["graphs"]):
        t0 = time.perf_counter()
        with rec.span("generators.generate", root=True):
            graph = generate(workload, size, seed * 1000 + i)
        setup_times.append(time.perf_counter() - t0)
        graphs.append(graph)
        if size_name == "full" and recorded is not None:
            out.attempted += 1
            if fingerprint(graph) != recorded[i]:
                out.fail(
                    f"graph {i}: fingerprint {fingerprint(graph)} differs from "
                    f"the recorded {recorded[i]} for seed {seed}"
                )
    if size_name == "full" and recorded is None:
        out.notes.append(f"no fingerprints recorded for seed {seed}; probe checked")
    # Warm-up: lazy imports and first-call costs stay out of the timings.
    detect_communities(probe, **options)

    checker = _Checker(out, sabotage)
    collected = {"events": [], "profilers": [], "shm_moved": [], "seg_peaks": []}

    def one_pass(traced: bool, count: int | None = None) -> dict[int, float]:
        """Detect on the first ``count`` graphs (all by default) once.

        Returns graph index -> seconds.
        """
        times = {}
        for idx, graph in enumerate(graphs[:count]):
            kwargs, root = {}, contextlib.nullcontext()
            if traced:
                rec.begin_detection()
                kwargs["tracer"] = Tracer()
                root = rec.span("parallel.detect_communities", root=True)
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with root:
                    summary = detect_communities(graph, **options, **kwargs)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                out.fail(f"graph {idx}: {type(exc).__name__}: {exc}")
                continue
            times[idx] = time.perf_counter() - t0
            if not traced:
                checker.check(idx, graph, summary)
                continue
            rec.collect_children()
            collected["events"].extend(kwargs["tracer"].events)
            collected["profilers"].append(summary.raw.simulation.profiler)
            collected["shm_moved"].append(getattr(summary.raw, "shm_bytes_moved", 0))
            collected["seg_peaks"].append(
                rec.counters.pop("shm.parent_peak", 0.0)
                + rec.counters.pop("shm.child_peak_excess", 0.0)
            )
            with rec.span("metrics.check", root=True):
                checker.check(idx, graph, summary)
        return times

    if not trace:
        passes = _passes(lambda: one_pass(False), seconds)
        per_graph = _per_graph_median(passes)
        calls = sum(len(p) for p in passes)
        busy = sum(sum(p.values()) for p in passes)
        out.metrics.update(
            {
                "setup_s": median(setup_times),
                "detect_s": float(np.mean(per_graph)) if per_graph else 0.0,
                "modularity": float(np.mean([q for _, q in checker.seen.values()])),
                "peak_rss_mb": peak_rss_mb(),
                "jobs_per_s": calls / busy if busy else 0.0,
            }
        )
        return out

    # ---- the traced run: per-layer metrics --------------------------- #
    import probes

    # Untraced calls before any wrapper is installed: the overhead reference.
    base = one_pass(False, size["sequential"])
    probes.install(rec)
    passes = _passes(lambda: one_pass(True), seconds)
    runs = max(sum(len(p) for p in passes), 1)
    m = out.metrics
    m.update(parallel_layers(collected["events"]))
    m.update(profiler_layers(collected["profilers"]))
    m["kernels.calls"] = rec.count("kernels.") / runs
    m["kernels.busy_s"] = rec.total("kernels.") / runs
    m["kernels.bytes_computed"] = rec.counters.get("kernels.bytes_computed", 0.0) / runs
    m["runtime.comm.exchange_s"] = rec.total("runtime.comm.exchange") / runs
    if options.get("execution") == "process":
        bus = [rec.total("runtime.shm.", rank=r) / runs for r in range(2)]
        m["runtime.shm.bus_s"] = max(bus)
        m["runtime.shm.bus_s.rank0"], m["runtime.shm.bus_s.rank1"] = bus
        m["runtime.shm.wait_imbalance_s"] = max(bus) - min(bus)
        m["runtime.shm.bytes_moved"] = float(np.mean(collected["shm_moved"]))
        m["runtime.shm.segment_bytes_peak"] = float(max(collected["seg_peaks"]))
        m["runtime.process.publish_s"] = rec.total("runtime.process.") / runs
    else:
        out.unmeasured.append("runtime.shm.*, runtime.process.* (no forked ranks)")
    out.unmeasured.append("service.* (no service in this workload)")
    m["generators.gen_s"] = median(setup_times)
    m["metrics.check_s"] = checker.seconds / runs
    ratios = [passes[0][i] / base[i] for i in base if i in passes[0]]
    m["observability.overhead_frac"] = float(np.mean(ratios)) - 1.0 if ratios else 0.0

    # Sequential baseline on the first graphs of the batch.
    seq_times, seq_qs, par_qs = [], [], []
    for idx, graph in enumerate(graphs[: size["sequential"]]):
        t0 = time.perf_counter()
        with rec.span("sequential.louvain", root=True):
            summary = detect_communities(graph, algorithm="sequential")
        seq_times.append(time.perf_counter() - t0)
        seq_qs.append(summary.modularity)
        par_qs.append(checker.seen[idx][1])
    m["sequential.detect_s"] = median(seq_times)
    m["sequential.modularity"] = float(np.mean(seq_qs))
    m["parallel.q_ratio"] = float(np.mean(par_qs)) / m["sequential.modularity"]
    return out


def _passes(one_pass, seconds) -> list[dict[int, float]]:
    """Whole passes over the batch until another would overrun ``seconds``.

    At least two: the first pass through a batch still grows the heap (peak
    RSS settles from the second pass on), and two samples per graph let a
    median absorb one disturbed call.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass())
        now = time.perf_counter()
        if len(passes) >= 2 and now - start + (now - t0) > seconds:
            return passes


def _per_graph_median(passes) -> list[float]:
    graphs = sorted({i for p in passes for i in p})
    return [median(p[i] for p in passes if i in p) for i in graphs]
