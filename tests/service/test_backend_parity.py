"""Service jobs on the vector data plane match the hash reference bitwise.

Detect and update jobs default to ``backend="vector"``; a job may still name
``backend="hash"``.  Both must publish the same membership and the same Q,
float for float, for a full detection and for the warm-start repair of an
edge batch of 50 additions and 10 removals.
"""

import numpy as np
import pytest

from repro.graph import planted_partition
from repro.observability import ListSink
from repro.parallel import EdgeBatch
from repro.service import DetectionService, JobState


def _batch(graph, seed):
    rng = np.random.default_rng(seed)
    add = rng.integers(0, graph.num_vertices, size=(50, 2))
    src, dst, _ = graph.edge_arrays()
    rem = rng.choice(src.size, size=10, replace=False)
    return EdgeBatch(
        add_src=add[:, 0], add_dst=add[:, 1],
        remove_src=src[rem], remove_dst=dst[rem],
    )


def _table_kinds(events):
    return {e.data["hash"] for e in events if e.kind == "table_stats"}


def _detect_then_update(graph, batch, **options):
    """Run one detect and one update job; return both snapshots and events."""
    sink = ListSink()
    with DetectionService(num_workers=1, num_ranks=2, seed=0, sink=sink) as svc:
        det = svc.wait(svc.submit_graph(graph, **options).job_id, timeout=120)
        upd = svc.wait(svc.submit_edge_batch(batch, **options).job_id, timeout=120)
        assert det.state == JobState.DONE, det.error
        assert upd.state == JobState.DONE, upd.error
        snaps = [svc.snapshot(j.result["version"]) for j in (det, upd)]
        results = [det.result, upd.result]
    return snaps, results, sink.events


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "shape",
    [(20, 50, 0.2, 0.005), (20, 25, 0.15, 0.02)],
    ids=["clear", "noisy-multilevel"],
)
def test_default_jobs_match_hash_backend_bitwise(shape, seed):
    graph, _ = planted_partition(*shape, seed=seed)
    batch = _batch(graph, seed)
    vec_snaps, vec_results, vec_events = _detect_then_update(graph, batch)
    ref_snaps, ref_results, ref_events = _detect_then_update(
        graph, batch, backend="hash"
    )
    for vec, ref in zip(vec_snaps, ref_snaps):
        assert np.array_equal(vec.membership, ref.membership)
        assert vec.modularity == ref.modularity
    for vec, ref in zip(vec_results, ref_results):
        assert vec["modularity"] == ref["modularity"]
        assert vec["num_levels"] == ref["num_levels"]
    # The default really ran the CSR tables and the override the hash ones.
    assert _table_kinds(vec_events) == {"csr"}
    assert _table_kinds(ref_events) and "csr" not in _table_kinds(ref_events)
