"""Helpers shared by the workloads: result shape, statistics, trace events."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark runs from, and where its run outputs go.
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Profiler phase name -> per-layer metric (seconds per detection).
PHASE_METRICS = {
    "STATE_PROPAGATION": "parallel.state_propagation_s",
    "REFINE": "parallel.refine_s",
    "REFINE/STATE_PROPAGATION": "parallel.refine.state_propagation_s",
    "REFINE/FIND_BEST": "parallel.refine.find_best_s",
    "REFINE/THRESHOLD": "parallel.refine.threshold_s",
    "REFINE/UPDATE": "parallel.refine.update_s",
    "REFINE/MODULARITY": "parallel.refine.modularity_s",
    "GRAPH_RECONSTRUCTION": "parallel.reconstruction_s",
}


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics this workload cannot observe (printed, reported as 0).
    unmeasured: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = math.ceil(q / 100.0 * len(ordered)) - 1
    return float(ordered[max(0, min(len(ordered) - 1, k))])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def fingerprint(graph) -> list:
    """``[n, m, total weight]`` -- what must not drift for a given seed."""
    return [
        int(graph.num_vertices),
        int(graph.num_edges),
        round(float(graph.total_weight), 6),
    ]


def recorded_fingerprints(workload: str, seed: int):
    """The fingerprints recorded for ``seed`` (None if never recorded)."""
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        doc = json.load(fh)
    return doc.get(workload, {}).get(str(seed)), doc["probes"]


def parallel_layers(events) -> dict[str, float]:
    """Per-detection layer metrics from the program's own trace events.

    ``events`` are the Tracer's events of one or more detection runs (each
    opens with run_start): phase span_end durations, iteration and level
    events, and table_stats snapshots.  Discarded levels count: every
    iteration event does.
    """
    phase = defaultdict(float)
    movers = vertex_iters = iterations = 0
    levels = set()
    level_n: dict[tuple, int] = {}
    run_id = 0
    probes = inserts = 0
    for raw in events:
        ev = raw if isinstance(raw, dict) else raw.to_dict()
        kind, data = ev["kind"], ev["data"]
        key = data.get("job_id", run_id)
        if kind == "run_start":
            run_id += 1
        elif kind == "span_end" and ev["name"] in PHASE_METRICS:
            phase[ev["name"]] += float(data["duration"])
        elif kind == "level_start":
            level_n[(key, data["level"])] = int(data["num_vertices"])
        elif kind == "iteration":
            iterations += 1
            levels.add((key, data["level"]))
            movers += int(data["movers"])
            vertex_iters += level_n.get((key, data["level"]), 0)
        elif kind == "table_stats":
            probes += int(data.get("probe_count", 0))
            inserts += int(data.get("insert_count", 0))
    runs = max(run_id, 1)
    out = {metric: phase[name] / runs for name, metric in PHASE_METRICS.items()}
    out["parallel.levels"] = len(levels) / runs
    out["parallel.iterations"] = iterations / runs
    out["parallel.move_ratio"] = movers / vertex_iters if vertex_iters else 0.0
    out["hashing.probes_per_insert"] = probes / inserts if inserts else 0.0
    return out


def profiler_layers(profilers) -> dict[str, float]:
    """Per-detection counts from PhaseProfilers (one per detection)."""
    n = max(len(profilers), 1)
    sums = defaultdict(float)
    imbalance = []
    for prof in profilers:
        total = prof.total()
        ops = total.comp_ops
        sums["parallel.comp_ops"] += float(ops.sum())
        imbalance.append(float(ops.max() / ops.mean()) if ops.mean() > 0 else 1.0)
        sums["runtime.comm.records"] += float(total.records_sent.sum())
        sums["runtime.comm.bytes"] += float(total.bytes_sent.sum())
        sums["runtime.comm.messages"] += float(total.messages_sent.sum())
        sums["runtime.comm.supersteps"] += float(total.supersteps)
        sums["runtime.comm.collectives"] += float(total.collectives)
    out = {k: v / n for k, v in sums.items()}
    out["parallel.comp_imbalance"] = median(imbalance) if imbalance else 0.0
    return out
