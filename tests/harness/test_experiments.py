"""Smoke tests for every experiment runner and matrix projection.

The benchmarks run the paper-sized matrices; these tests run tiny matrices
(and tiny runner configurations) and only assert that each produces
structurally valid, qualitatively sane output quickly.
"""

import pytest

from repro.bench import build_summary, parse_config, run_matrix
from repro.harness import (
    UK2007_LITERATURE,
    fig4_rows,
    fig7_speedup_curves,
    fig8_breakdowns,
    fig9_strong_curves,
    fig9_weak_curves,
    first_level_seconds,
    format_fig4,
    format_fig7,
    format_fig8,
    format_fig9,
    format_table3,
    gteps,
    run_fig2,
    run_fig5,
    run_fig6,
    run_table1,
    run_table4,
    table3_reports,
)
from repro.parallel import parallel_louvain
from repro.runtime import P7IH


def run_tiny(factors, cell, graphs, **keep):
    """Run a one-repetition matrix built in place (the projections' input)."""
    config = parse_config({
        "label": "tiny", "repetitions": 1, "warmup": 0,
        "factors": factors, "cell": cell, "graphs": graphs,
    })
    return run_matrix(config, **keep)


def social(name, scale):
    return {"family": "social", "name": name, "seed": 0, "scale": scale}


class TestTable1:
    def test_all_rows_present(self):
        rows = run_table1(scale=0.15)
        names = [r.name for r in rows]
        assert "Amazon" in names and "R-MAT" in names and "BTER" in names
        assert len(rows) == 12
        for r in rows:
            assert r.proxy_vertices > 0 and r.proxy_edges > 0


class TestFig2:
    def test_fit_produces_decaying_schedule(self):
        res = run_fig2(num_vertices=300, runs_per_config=2, seed=1)
        assert res.fitted_p1 > 0 and res.fitted_p2 > 0
        assert len(res.traces) >= 4
        assert res.predicted[0] > res.predicted[-1]

    def test_traces_decay(self):
        res = run_fig2(num_vertices=300, runs_per_config=2, seed=2)
        for t in res.traces:
            if len(t) >= 3:
                assert t[0] > t[-1] - 1e-9


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        matrix = run_tiny(
            {
                "graph": ["Amazon", "Wikipedia"],
                "variant": [
                    {"_name": "sequential", "variant": "sequential"},
                    {"_name": "parallel", "variant": "parallel"},
                    {"_name": "naive", "variant": "naive",
                     "max_inner": 6, "max_levels": 6},
                ],
            },
            {"graph": "{graph}", "ranks": 4, "seed": 0},
            {"Amazon": social("Amazon", 0.2),
             "Wikipedia": social("Wikipedia", 0.2)},
            keep_raw=True,
        )
        return fig4_rows(matrix)

    def test_heuristic_tracks_sequential(self, rows):
        assert [r.graph for r in rows] == ["Amazon", "Wikipedia"]
        for r in rows:
            assert r.parallel_q[-1] >= r.sequential_q[-1] - 0.12

    def test_naive_loses(self, rows):
        amazon = rows[0]
        assert amazon.naive_q[-1] < amazon.parallel_q[-1]

    def test_evolution_ratio_decreasing(self, rows):
        for r in rows:
            ev = r.parallel_evolution
            assert all(a >= b - 1e-9 for a, b in zip(ev, ev[1:]))
            assert len(r.sequential_evolution) == len(r.sequential_q)

    def test_first_level_merges_most_vertices(self, rows):
        for r in rows:
            assert r.first_level_merge_fraction > 0.5

    def test_format(self, rows):
        text = format_fig4(rows)
        assert text.startswith("Fig. 4:")
        assert "Amazon" in text and "Wikipedia" in text


class TestFig5:
    def test_distributions_similar(self):
        rows = run_fig5(["Amazon"], num_ranks=4, scale=0.2)
        r = rows[0]
        assert r.seq_largest > 1 and r.par_largest > 1
        # largest communities within 3x of each other (paper: 278 vs 358)
        ratio = r.par_largest / r.seq_largest
        assert 1 / 3 < ratio < 3


class TestTable3:
    @pytest.fixture(scope="class")
    def reports(self):
        lfr = {"family": "lfr", "seed": 0, "num_vertices": 400,
               "avg_degree": 16, "max_degree": 64}
        matrix = run_tiny(
            {"graph": ["Amazon", "ND-Web", "lfr-mu04", "lfr-mu05"],
             "variant": ["sequential", "parallel"]},
            {"variant": "{variant}", "graph": "{graph}", "ranks": 4, "seed": 0},
            {"Amazon": social("Amazon", 0.2), "ND-Web": social("ND-Web", 0.2),
             "lfr-mu04": dict(lfr, mixing=0.4),
             "lfr-mu05": dict(lfr, mixing=0.5)},
            keep_membership=True,
        )
        return table3_reports(matrix)

    def test_high_similarity_rows(self, reports):
        assert list(reports) == [
            "Amazon", "ND-Web", "LFR(mu=0.4)", "LFR(mu=0.5)"
        ]
        for graph, report in reports.items():
            # Tiny-scale smoke thresholds; the bench asserts tighter values
            # at full proxy scale (see benchmarks/bench_table3_quality.py).
            # LFR(mu=0.5) at n=400 is near-structureless, so only the pair-
            # counting metric is meaningful there.
            assert report.rand_index > 0.8
            if graph != "LFR(mu=0.5)":
                assert report.nmi > 0.5
                assert report.nvd < 0.45

    def test_format(self, reports):
        text = format_table3(reports)
        assert text.startswith("Table III:")
        assert "LFR(mu=0.4)" in text
        assert f"{reports['Amazon'].nmi:.4f}" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def res(self):
        return run_fig6(rmat_scale=12, num_nodes=4, threads_per_node=8)

    def test_entry_counts_cover_graph(self, res):
        total = res.entries["fibonacci"].sum()
        assert total == res.entries["linear_congruential"].sum()
        assert total > 0

    def test_fibonacci_no_worse_than_lcg(self, res):
        assert res.max_bin["fibonacci"].max() <= res.max_bin["linear_congruential"].max() + 1

    def test_load_factor_sweep_monotone(self, res):
        lfs = sorted(res.load_factor_avg_bin, reverse=True)
        means = [res.load_factor_avg_bin[lf].mean() for lf in lfs]
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))


class TestFig7:
    CELL = {"variant": "parallel", "graph": "{graph}", "seed": 0,
            "machine": "p7ih", "work_scale": "paper"}
    GRAPHS = {"LiveJournal": social("LiveJournal", 0.3)}

    def test_thread_speedup_monotone(self):
        matrix = run_tiny(
            {"graph": ["LiveJournal"], "threads": [32, 2, 8]},
            dict(self.CELL, ranks=1, nodes=1, threads="{threads}"),
            self.GRAPHS,
        )
        curves = fig7_speedup_curves(build_summary(matrix), "threads")
        x, speedup = curves["LiveJournal"]
        assert x == [2, 8, 32]
        assert speedup == sorted(speedup)
        assert speedup[-1] < 32  # sublinear
        assert speedup[-1] > 2 * speedup[0] / 2  # grows with threads
        assert format_fig7(threads=curves).startswith("Fig. 7a:")

    def test_node_speedup_grows(self):
        # The paper's Fig. 7b/c uses medium/large graphs; small graphs do
        # not node-scale (latency-bound), which the model reproduces.
        matrix = run_tiny(
            {"graph": ["LiveJournal"], "nodes": [1, 4, 16]},
            dict(self.CELL, ranks="{nodes}", nodes="{nodes}", threads=32),
            self.GRAPHS,
        )
        curves = fig7_speedup_curves(build_summary(matrix), "nodes")
        x, speedup = curves["LiveJournal"]
        assert x == [1, 4, 16]
        assert speedup[-1] > speedup[0]
        text = format_fig7(nodes=curves)
        assert text.startswith("Fig. 7b/c:") and "LiveJournal: 1=" in text


class TestFig8:
    @pytest.fixture(scope="class")
    def breakdowns(self):
        matrix = run_tiny(
            {"nodes": [4]},
            {"variant": "parallel", "graph": "UK-2005", "ranks": "{nodes}",
             "nodes": "{nodes}", "seed": 0, "machine": "p7ih",
             "work_scale": "paper"},
            {"UK-2005": social("UK-2005", 0.15)},
            keep_raw=True,
        )
        return fig8_breakdowns(matrix)

    def test_refine_dominates(self, breakdowns):
        node_counts, outer_all, _, _ = breakdowns
        assert node_counts == [4]
        outer = outer_all[0]
        refine_total = sum(lv.get("REFINE", 0.0) for lv in outer)
        recon_total = sum(lv.get("GRAPH_RECONSTRUCTION", 0.0) for lv in outer)
        assert refine_total > recon_total

    def test_first_level_dominates(self, breakdowns):
        outer = breakdowns[1][0]
        t0 = sum(outer[0].values())
        total = sum(sum(lv.values()) for lv in outer)
        assert t0 > 0.5 * total

    def test_inner_iterations_recorded(self, breakdowns):
        inner = breakdowns[2][0]
        assert len(inner) >= 2
        assert any("FIND_BEST" in it for it in inner)
        assert 0 < breakdowns[3][0] <= 1

    def test_format(self, breakdowns):
        text = format_fig8(breakdowns)
        assert "4 nodes:" in text and "level 0: " in text
        assert "iter 1: " in text and "FIND_BEST=" in text


class TestTable4:
    def test_row_structure(self):
        res = run_table4(nodes=4, scale=0.15)
        assert res.our_modularity > 0.7
        assert res.our_time_s > 0
        assert len(res.literature) == len(UK2007_LITERATURE)


class TestFig9:
    def test_weak_scaling_gteps_grows(self):
        # 128 vertices per node, paper workload 2^24 edges per node on BG/Q.
        point = {"machine": "bgq", "threads": 64}
        matrix = run_tiny(
            {"point": [
                dict(point, _name="rmat/n2", graph="rmat8", nodes=2, ranks=2,
                     work_edges=2 * 2**24),
                dict(point, _name="rmat/n8", graph="rmat10", nodes=8, ranks=8,
                     work_edges=8 * 2**24),
            ]},
            {"variant": "parallel", "seed": 0, "max_levels": 2},
            {f"rmat{s}": {"family": "rmat", "seed": 0, "scale": s,
                          "edge_factor": 16} for s in (8, 10)},
        )
        curves = fig9_weak_curves(build_summary(matrix))
        nodes, gteps_, mods = curves["rmat"]
        assert nodes == [2, 8]
        assert gteps_[-1] > gteps_[0]
        assert all(-0.5 <= q <= 1 for q in mods)
        text = format_fig9(weak=curves)
        assert text.startswith("Fig. 9a:") and "rmat GTEPS: 2=" in text

    def test_strong_scaling_runs(self):
        matrix = run_tiny(
            {"workload": [{"_name": "uk2005", "graph": "UK-2005",
                           "machine": "p7ih", "work_scale": "paper"}],
             "nodes": [2, 8]},
            {"variant": "parallel", "seed": 0, "ranks": "{nodes}",
             "nodes": "{nodes}", "max_levels": 2},
            {"UK-2005": social("UK-2005", 0.15)},
        )
        # One graph, one extrapolation target: every point processes the
        # same (paper-size) edge count.
        assert len({c.timed[0].work_scale for c in matrix.cells}) == 1
        curves = fig9_strong_curves(build_summary(matrix))
        nodes, gteps_ = curves["uk2005"]
        assert nodes == [2, 8]
        assert all(g > 0 for g in gteps_)
        assert "uk2005 GTEPS: 2=" in format_fig9(strong=curves)


class TestTeps:
    def test_first_level_seconds_positive(self, small_lfr):
        res = parallel_louvain(small_lfr.graph, num_ranks=4)
        secs = first_level_seconds(res, P7IH, nodes=4)
        assert secs > 0

    def test_gteps_scale(self, small_lfr):
        res = parallel_louvain(small_lfr.graph, num_ranks=4)
        g = gteps(small_lfr.graph.num_edges, res, P7IH, nodes=4)
        assert 0 < g < 1e3
