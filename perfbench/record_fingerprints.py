"""Record the input fingerprints the benchmark checks every run against.

    python3 perfbench/record_fingerprints.py --seeds 20

writes ``perfbench/fingerprints.json``: for each workload and seed, the
``[n, m, total weight]`` of every generated graph, plus the fingerprint of
one fixed probe graph per generator.  Re-record only when a generator change
is meant to change the workloads; that is a change of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import batch
    import service
    from common import fingerprint

    doc = {
        "probes": {
            "rmat-sim": fingerprint(batch.probe_graph("rmat-sim")),
            "lfr-proc": fingerprint(batch.probe_graph("lfr-proc")),
            "service-rw": fingerprint(service._planted(service.PROBE, 0)),
        }
    }
    for workload in ("rmat-sim", "lfr-proc"):
        size = batch.SIZES[workload]["full"]
        doc[workload] = {
            str(seed): [
                fingerprint(batch.generate(workload, size, seed * 1000 + i))
                for i in range(size["graphs"])
            ]
            for seed in range(args.seeds)
        }
        print(workload, "recorded", flush=True)
    doc["service-rw"] = {}
    for seed in range(args.seeds):
        pool = service.Pool(service.SIZES["full"], seed)
        doc["service-rw"][str(seed)] = [
            fingerprint(g) for g in pool.graphs + pool.updated
        ]
    with open(os.path.join(HERE, "fingerprints.json"), "w") as fh:
        fh.write(_dump(doc))
    return 0


def _dump(doc: dict) -> str:
    """JSON with one line per workload seed, so diffs show which seed moved."""
    groups = []
    for group, entries in doc.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        groups.append(f" {json.dumps(group)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(groups) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
