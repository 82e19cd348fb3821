"""Fig. 7 -- speedup with medium and large social graphs.

(a) thread speedup on a single P7-IH node (2-32 threads); (b, c) node
speedup from 1 to 64 nodes, all relative to the modeled single-threaded
sequential implementation, with per-rank work extrapolated to the real
dataset sizes.

The sweeps are declared in ``benchmarks/matrices/`` (fig7a_threads.toml,
fig7bc_nodes.toml); this wrapper runs them and projects the speedup curves
with :func:`repro.harness.fig7_speedup_curves`.  ``repro experiment fig7``
prints the same projection.
"""

import os

from conftest import once

from repro.bench import build_summary, load_config, run_matrix
from repro.harness import fig7_speedup_curves, format_fig7

MATRIX_DIR = os.path.join(os.path.dirname(__file__), "matrices")


def _run_curves(matrix: str, axis: str) -> dict:
    config = load_config(os.path.join(MATRIX_DIR, matrix))
    return fig7_speedup_curves(build_summary(run_matrix(config)), axis)


def test_fig7a_thread_speedup(benchmark):
    curves = once(benchmark, _run_curves, "fig7a_threads.toml", "threads")

    print()
    print(format_fig7(threads=curves))

    for graph, (x, speedup) in curves.items():
        assert speedup == sorted(speedup), graph  # monotone
        assert 4 < speedup[-1] < 32, graph  # substantial but sublinear


def test_fig7bc_node_speedup(benchmark):
    curves = once(benchmark, _run_curves, "fig7bc_nodes.toml", "nodes")

    print()
    print(format_fig7(nodes=curves))

    for graph, (x, speedup) in curves.items():
        # every graph gains from distribution at moderate node counts
        assert max(speedup) > 2 * speedup[0], graph
    # Large graphs keep scaling to 64 nodes; the medium ones saturate first
    # (paper: UK-2005 reaches 49.8x at 64 nodes).
    uk_x, uk = curves["UK-2005"]
    assert uk[-1] == max(uk)
    assert uk[-1] > 30
    lj_x, lj = curves["LiveJournal"]
    assert lj.index(max(lj)) < len(lj_x) - 1  # knee before 64
