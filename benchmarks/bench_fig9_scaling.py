"""Fig. 9 -- scaling analysis (weak and strong, GTEPS).

(a) weak scaling: R-MAT on the BG/Q model and BTER (two GCC settings) on
the P7-IH model, fixed per-node workload; (b) strong scaling of UK-2007 on
P7-IH; (c) strong scaling of R-MAT.  TEPS = input edges / modeled time of
the first level, with per-rank work extrapolated to the paper's per-node
workloads (R-MAT 2^24 edges/node, BTER 2^26 edges/node).

The matrices (fig9a_weak.toml, fig9bc_strong.toml) declare graph sizes,
machines and extrapolation targets; :func:`repro.harness.fig9_weak_curves`
and :func:`repro.harness.fig9_strong_curves` project the GTEPS curves and
this wrapper keeps the paper's qualitative claims as assertions.
``repro experiment fig9`` prints the same projection.
"""

import os

from conftest import once

from repro.bench import build_summary, load_config, run_matrix
from repro.harness import fig9_strong_curves, fig9_weak_curves, format_fig9

MATRIX_DIR = os.path.join(os.path.dirname(__file__), "matrices")


def _run_summary(matrix: str, points: list[str] | None = None) -> dict:
    config = load_config(os.path.join(MATRIX_DIR, matrix))
    if points is not None:
        config.factors["point"] = [
            p for p in config.factors["point"] if p["_name"] in points
        ]
    return build_summary(run_matrix(config))


def test_fig9a_weak_scaling(benchmark):
    curves = fig9_weak_curves(once(benchmark, _run_summary, "fig9a_weak.toml"))

    print()
    print(format_fig9(weak=curves))

    for name, (nodes, gteps, _mods) in curves.items():
        # processing rate grows with node count...
        assert all(a < b for a, b in zip(gteps, gteps[1:])), name
        # ...roughly proportionally (within 3x of linear across the sweep).
        growth = (gteps[-1] / gteps[0]) / (nodes[-1] / nodes[0])
        assert growth > 1 / 3, name

    # Paper: higher GCC -> higher modularity and slightly faster processing.
    bter_lo_mod = curves["bter-lo"][2][-1]
    bter_hi_mod = curves["bter-hi"][2][-1]
    assert bter_hi_mod > bter_lo_mod + 0.1
    assert curves["bter-hi"][1][-1] > 0.5 * curves["bter-lo"][1][-1]


def test_fig9bc_strong_scaling(benchmark):
    curves = fig9_strong_curves(
        once(benchmark, _run_summary, "fig9bc_strong.toml")
    )

    print()
    print(format_fig9(strong=curves))

    # (b) UK-2007
    uk_nodes, uk = curves["uk2007"]
    assert all(a < b for a, b in zip(uk, uk[1:]))  # monotone speedup
    # sublinear: doubling nodes never doubles the rate at the top end
    assert uk[-1] / uk[-2] < 2.0

    # (c) R-MAT
    rm_nodes, rm = curves["rmat15"]
    assert all(a < b for a, b in zip(rm, rm[1:]))
    # Paper: strong-scaled R-MAT rate is below the weak-scaled rate at the
    # same node count ("the problem scale is not big enough").  The weak
    # point is fig9a's rmat/n32: the same scale-15 graph on 32 BG/Q nodes.
    weak = fig9_weak_curves(_run_summary("fig9a_weak.toml", ["rmat/n32"]))
    assert rm[-1] < weak["rmat"][1][0] * 1.5
