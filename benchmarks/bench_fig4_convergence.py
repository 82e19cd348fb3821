"""Fig. 4 -- convergence and detection quality with social networks.

Compares modularity per outer-loop level (4a) and the evolution ratio (4b)
for the sequential algorithm, the parallel algorithm with the convergence
heuristic, and the naive parallel algorithm without it.

The (graph x variant) sweep is declared in
``benchmarks/matrices/fig4_convergence.toml``; this wrapper runs it with
``keep_raw=True`` and projects the rows with
:func:`repro.harness.fig4_rows`.  ``repro experiment fig4`` prints the same
projection.
"""

import os

from conftest import once

from repro.bench import load_config, run_matrix
from repro.harness import fig4_rows, format_fig4

MATRIX_DIR = os.path.join(os.path.dirname(__file__), "matrices")


def _run_rows():
    config = load_config(os.path.join(MATRIX_DIR, "fig4_convergence.toml"))
    return fig4_rows(run_matrix(config, keep_raw=True))


def test_fig4_convergence_and_quality(benchmark):
    rows = once(benchmark, _run_rows)

    print()
    print(format_fig4(rows))

    for r in rows:
        # (a) parallel with heuristic is on par with sequential...
        assert r.parallel_q[-1] >= r.sequential_q[-1] - 0.1, r.graph
        # ...while the naive version stalls at clearly lower modularity.
        assert r.naive_q[-1] < r.parallel_q[-1], r.graph
        # (b) the evolution ratio drops monotonically.
        ev = r.parallel_evolution
        assert all(a >= b - 1e-9 for a, b in zip(ev, ev[1:])), r.graph

    # Paper: LiveJournal, ND-Web, Wikipedia, UK-2005 merge >94% of vertices
    # in the first iteration; at proxy scale the bar is lower but the strong
    # community graphs must still collapse hard in level 0.
    strong = {r.graph: r for r in rows}
    for name in ("ND-Web", "UK-2005", "LiveJournal", "Wikipedia"):
        assert strong[name].first_level_merge_fraction > 0.75, name

    # The naive variant loses by a wide margin on at least one strong graph
    # (the paper shows near-flat naive curves).
    assert any(r.parallel_q[-1] - r.naive_q[-1] > 0.1 for r in rows)
