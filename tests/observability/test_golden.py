"""Tests for the golden-trace regression gate (fingerprints + compare)."""

import dataclasses
import math

import pytest

from repro.observability import (
    GOLDEN_BENCHMARKS,
    Drift,
    GoldenSpec,
    Tracer,
    compare_fingerprints,
    compare_golden,
    fingerprint_events,
    format_drift_table,
    record_golden,
)
from repro.observability.golden import golden_path, load_fingerprint, run_spec

#: A fast spec for end-to-end tests (the registered goldens are bigger).
TINY = GoldenSpec(
    name="tiny-lfr",
    description="test-only tiny LFR",
    family="lfr",
    params=dict(
        num_vertices=200, avg_degree=8, max_degree=20, mixing=0.15,
        min_community=10, max_community=50,
    ),
    seed=7,
    num_ranks=2,
)


def _trace_events():
    """A small synthetic run with two levels and supersteps."""
    t = Tracer()
    t.run_start("parallel", num_vertices=10, num_edges=20, num_ranks=2)
    t.level_start(0, num_vertices=10)
    t.iteration(0, 1, movers=6, epsilon=1.0, dq_threshold=0.0,
                candidates=10, modularity=0.3)
    t.iteration(0, 2, movers=2, epsilon=0.5, dq_threshold=1e-4,
                candidates=5, modularity=0.4)
    t.superstep("REFINE/UPDATE", records=12, nbytes=96, messages=2)
    t.level_end(0, modularity=0.4, iterations=2)
    t.level_start(1, num_vertices=4)
    t.iteration(1, 1, movers=0, epsilon=1.0, dq_threshold=0.0,
                candidates=4, modularity=0.4)
    t.superstep("REFINE/UPDATE", records=3, nbytes=24, messages=1)
    t.level_end(1, modularity=0.4, iterations=1)
    t.run_end(modularity=0.4, num_levels=2)
    return t.events


class TestFingerprint:
    def test_reduction_keeps_convergence_signal(self):
        fp = fingerprint_events(_trace_events())
        assert fp.algorithm == "parallel"
        assert (fp.num_vertices, fp.num_edges, fp.num_ranks) == (10, 20, 2)
        assert fp.num_levels == 2
        assert fp.final_modularity == pytest.approx(0.4)
        assert len(fp.levels) == 2
        lv0 = fp.levels[0]
        assert lv0.iterations == 2
        assert lv0.movers == (6, 2)
        assert lv0.candidates == (10, 5)
        assert lv0.epsilon == (1.0, 0.5)
        assert lv0.dq_threshold == (0.0, 1e-4)
        assert fp.superstep_volumes["REFINE/UPDATE"] == (2, 15, 3, 120)

    def test_wall_clock_noise_projected_out(self):
        """Two runs that differ only in timing fingerprint identically."""
        slow = iter([i * 10.0 for i in range(100)])
        t = Tracer(clock=lambda: next(slow))
        t.run_start("parallel", num_vertices=10, num_edges=20, num_ranks=2)
        with t.span("REFINE"):
            t.iteration(0, 1, movers=6, epsilon=1.0, dq_threshold=0.0,
                        candidates=10, modularity=0.3)
        t.run_end(modularity=0.3, num_levels=1)

        fast = iter([i * 0.001 for i in range(100)])
        u = Tracer(clock=lambda: next(fast))
        u.run_start("parallel", num_vertices=10, num_edges=20, num_ranks=2)
        with u.span("REFINE"):
            u.iteration(0, 1, movers=6, epsilon=1.0, dq_threshold=0.0,
                        candidates=10, modularity=0.3)
        u.run_end(modularity=0.3, num_levels=1)

        assert fingerprint_events(t.events) == fingerprint_events(u.events)

    def test_dict_roundtrip(self, tmp_path):
        """A trace written as JSONL fingerprints like the in-memory run."""
        from repro.observability import write_jsonl

        events = _trace_events()
        path = str(tmp_path / "t.jsonl")
        write_jsonl(events, path)
        assert load_fingerprint(path) == fingerprint_events(events)

    def test_self_compare_is_clean(self):
        fp = fingerprint_events(_trace_events())
        assert compare_fingerprints(fp, fp) == []


class TestCompare:
    def _fp(self, **overrides):
        fp = fingerprint_events(_trace_events())
        return dataclasses.replace(fp, **overrides)

    def test_level_count_drift(self):
        drifts = compare_fingerprints(self._fp(), self._fp(num_levels=3))
        assert any(d.metric == "num_levels" for d in drifts)

    def test_modularity_drift_vs_tolerance(self):
        golden = self._fp()
        shifted = self._fp(final_modularity=golden.final_modularity + 1e-3)
        assert any(
            d.metric == "final_modularity"
            for d in compare_fingerprints(golden, shifted)
        )

    def test_iteration_count_drift(self):
        golden = self._fp()
        lv0 = golden.levels[0]
        changed = dataclasses.replace(
            lv0, iterations=lv0.iterations + 1, movers=lv0.movers + (1,),
            candidates=lv0.candidates + (1,), epsilon=lv0.epsilon + (0.1,),
            dq_threshold=lv0.dq_threshold + (0.0,),
        )
        current = dataclasses.replace(
            golden, levels=(changed,) + golden.levels[1:]
        )
        drifts = compare_fingerprints(golden, current)
        assert any(
            d.where == "level 0" and d.metric == "iterations" for d in drifts
        )

    def test_mover_sequence_drift_is_relative(self):
        golden = self._fp()
        lv0 = golden.levels[0]
        bumped = dataclasses.replace(lv0, movers=(lv0.movers[0] + 1,) + lv0.movers[1:])
        current = dataclasses.replace(golden, levels=(bumped,) + golden.levels[1:])
        assert any(d.metric == "movers" for d in compare_fingerprints(golden, current))

    def test_one_ulp_epsilon_drift(self):
        golden = self._fp()
        lv0 = golden.levels[0]
        eps = lv0.epsilon[1]
        nudged = dataclasses.replace(
            lv0, epsilon=lv0.epsilon[:1] + (math.nextafter(eps, 1.0),)
        )
        current = dataclasses.replace(golden, levels=(nudged,) + golden.levels[1:])
        drifts = compare_fingerprints(golden, current)
        assert [(d.where, d.metric) for d in drifts] == [
            ("level 0 iter 2", "epsilon")
        ]
        assert drifts[0].golden == eps and drifts[0].current > eps

    def test_missing_and_extra_levels(self):
        golden = self._fp()
        current = dataclasses.replace(golden, levels=golden.levels[:1])
        drifts = compare_fingerprints(golden, current)
        assert any(d.where == "level 1" and d.metric == "present" for d in drifts)
        drifts = compare_fingerprints(current, golden)
        assert any(
            d.where == "level 1" and d.metric == "present" and d.current is True
            for d in drifts
        )

    def test_superstep_volume_drift(self):
        golden = self._fp()
        current = dataclasses.replace(
            golden, superstep_volumes={"REFINE/UPDATE": (3, 15, 3, 120)}
        )
        drifts = compare_fingerprints(golden, current)
        assert any(d.metric == "supersteps" for d in drifts)
        current = dataclasses.replace(
            golden, superstep_volumes={"REFINE/UPDATE": (2, 30, 3, 120)}
        )
        assert any(
            d.metric == "records" for d in compare_fingerprints(golden, current)
        )

    def test_graph_shape_is_exact(self):
        drifts = compare_fingerprints(self._fp(), self._fp(num_edges=21))
        assert any(d.metric == "num_edges" for d in drifts)

    def test_drift_table_renders(self):
        drifts = [Drift("level 0", "iterations", 5, 7)]
        table = format_drift_table(drifts)
        assert "iterations" in table and "tolerance" not in table
        assert format_drift_table([]) == ""
        assert "5 -> 7" in drifts[0].format()


class TestGoldenEndToEnd:
    def test_record_then_compare_clean(self, tmp_path):
        path = golden_path(TINY, str(tmp_path))
        n = record_golden(TINY, path)
        assert n > 50
        assert compare_golden(TINY, path) == []

    def test_perturbed_schedule_registers_drift(self, tmp_path):
        """The gate's self-test: a perturbed Eq.-7 p1 must trip it."""
        path = golden_path(TINY, str(tmp_path))
        record_golden(TINY, path)
        drifts = compare_golden(TINY, path, perturb_p1=4.0)
        assert drifts

    def test_recording_streams(self, tmp_path):
        """record_golden must exercise the O(1)-memory streaming path."""
        tracer = run_spec(TINY)
        assert tracer.events  # buffered when no sink is passed

        import repro.observability.sinks as sinks

        captured = {}
        orig_write = sinks.JsonlWriterSink.write

        def spy(self, ev):
            captured.setdefault("sink", self)
            return orig_write(self, ev)

        sinks.JsonlWriterSink.write = spy
        try:
            record_golden(TINY, str(tmp_path / "t.jsonl"))
        finally:
            sinks.JsonlWriterSink.write = orig_write
        assert captured["sink"].num_events > 50

    def test_load_fingerprint_from_trace(self, tmp_path):
        path = golden_path(TINY, str(tmp_path))
        record_golden(TINY, path)
        fp = load_fingerprint(path)
        assert fp.num_vertices == 200
        assert fp.num_levels >= 1

    def test_registry_covers_three_families(self):
        families = {s.family for s in GOLDEN_BENCHMARKS.values()}
        assert families == {"lfr", "rmat", "social"}
        assert len(GOLDEN_BENCHMARKS) >= 3

    def test_checked_in_goldens_exist(self):
        """The repo ships a golden per registered benchmark (the CI gate
        reads these)."""
        import os

        from repro.observability.golden import DEFAULT_GOLDEN_DIR

        repo_root = os.path.join(os.path.dirname(__file__), "..", "..")
        for spec in GOLDEN_BENCHMARKS.values():
            path = os.path.join(repo_root, golden_path(spec, DEFAULT_GOLDEN_DIR))
            assert os.path.exists(path), f"missing golden for {spec.name}"

    def test_unknown_family_rejected(self):
        bad = dataclasses.replace(TINY, family="torus")
        with pytest.raises(ValueError):
            bad.build_graph()


#: Test-only dynamic spec: cold run + edge batch + warm-start repair.
TINY_DYNAMIC = dataclasses.replace(
    TINY,
    name="tiny-dynamic",
    description="test-only dynamic repair",
    dynamic=dict(num_add=20, num_remove=10, batch_seed=3),
)


class TestVariantAndDynamicGoldens:
    def test_registry_includes_variant_and_dynamic_specs(self):
        assert {"lfr-naive", "lfr-sequential", "lfr-dynamic"} <= set(
            GOLDEN_BENCHMARKS
        )
        assert GOLDEN_BENCHMARKS["lfr-naive"].algorithm == "naive"
        assert GOLDEN_BENCHMARKS["lfr-sequential"].algorithm == "sequential"
        assert GOLDEN_BENCHMARKS["lfr-dynamic"].dynamic is not None

    def test_dynamic_record_then_compare_clean(self, tmp_path):
        path = golden_path(TINY_DYNAMIC, str(tmp_path))
        n = record_golden(TINY_DYNAMIC, path)
        assert n > 10
        assert compare_golden(TINY_DYNAMIC, path) == []

    def test_dynamic_perturbed_schedule_registers_drift(self, tmp_path):
        """The warm-start repair runs the parallel schedule, so the gate's
        perturbation self-test must trip on the dynamic path too."""
        path = golden_path(TINY_DYNAMIC, str(tmp_path))
        record_golden(TINY_DYNAMIC, path)
        assert compare_golden(TINY_DYNAMIC, path, perturb_p1=4.0)

    def test_dynamic_trace_is_the_repair_run_only(self, tmp_path):
        """The cold bootstrap run stays untraced; the golden fingerprints
        the incremental repair."""
        tracer = run_spec(TINY_DYNAMIC)
        starts = [e for e in tracer.events if e.kind == "run_start"]
        assert len(starts) == 1  # one traced run, not two
        fp = fingerprint_events(tracer.events)
        assert fp.num_vertices == 200  # batch_seed=3 adds no new vertices

    def test_sequential_spec_records_deterministically(self, tmp_path):
        seq = dataclasses.replace(
            TINY, name="tiny-seq", algorithm="sequential"
        )
        path = golden_path(seq, str(tmp_path))
        record_golden(seq, path)
        assert compare_golden(seq, path) == []
        assert load_fingerprint(path).algorithm == "sequential"
