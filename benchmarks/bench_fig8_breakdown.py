"""Fig. 8 -- execution time breakdown with UK-2007.

(a) per-outer-loop breakdown into REFINE and GRAPH RECONSTRUCTION;
(b) per-inner-iteration breakdown of the first outer loop into FIND BEST
COMMUNITY / UPDATE COMMUNITY INFORMATION / STATE PROPAGATION -- modeled on
the P7-IH machine at several node counts.

The node sweep is declared in ``benchmarks/matrices/fig8_breakdown.toml``;
this wrapper runs it with ``keep_raw=True`` and projects the modeled
breakdowns with :func:`repro.harness.fig8_breakdowns`.
``repro experiment fig8`` prints the same projection.
"""

import os

from conftest import once

from repro.bench import load_config, run_matrix
from repro.harness import fig8_breakdowns, format_fig8

MATRIX_DIR = os.path.join(os.path.dirname(__file__), "matrices")


def _run_breakdowns():
    config = load_config(os.path.join(MATRIX_DIR, "fig8_breakdown.toml"))
    return fig8_breakdowns(run_matrix(config, keep_raw=True))


def test_fig8_time_breakdown(benchmark):
    breakdowns = once(benchmark, _run_breakdowns)
    node_counts, outer_breakdown, inner_breakdown, modularities = breakdowns

    print()
    print(format_fig8(breakdowns))

    for nodes, levels in zip(node_counts, outer_breakdown):
        refine = sum(lv.get("REFINE", 0.0) for lv in levels)
        recon = sum(lv.get("GRAPH_RECONSTRUCTION", 0.0) for lv in levels)
        # Paper: REFINE dominates; GRAPH RECONSTRUCTION is negligible.
        assert refine > 5 * recon, f"{nodes} nodes"
        # Paper: the first outer loop takes >90% of the total.
        t0 = sum(levels[0].values())
        total = sum(sum(lv.values()) for lv in levels)
        assert t0 > 0.6 * total, f"{nodes} nodes"

    # More nodes -> faster inner loops (strong scaling of the breakdown).
    first_iter_cost = [
        sum(inner[0].values()) for inner in inner_breakdown if inner
    ]
    assert first_iter_cost[-1] < first_iter_cost[0]

    # Fig. 8b: FIND_BEST / UPDATE shrink across iterations as vertices
    # settle, while STATE_PROPAGATION stays roughly flat.
    inner = inner_breakdown[-1]
    if len(inner) >= 4:
        fb = [it.get("FIND_BEST", 0.0) for it in inner]
        sp = [it.get("STATE_PROPAGATION", 0.0) for it in inner]
        assert fb[0] >= fb[-1] * 0.9
        assert max(sp) < 4 * min(x for x in sp if x > 0)
