"""Tests for the LFR benchmark generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import LFRParams, generate_lfr
from repro.generators.lfr import (
    _assign_communities,
    _chung_lu_pairs,
    _draw_community_sizes,
)
from repro.generators.powerlaw import powerlaw_degrees_with_mean
from repro.graph import Graph
from repro.metrics import modularity
from tests.graph.test_adjacency import reference_coalesce


class TestParams:
    def test_invalid_mixing_raises(self):
        with pytest.raises(ValueError):
            LFRParams(mixing=1.5)

    def test_invalid_community_bounds_raise(self):
        with pytest.raises(ValueError):
            LFRParams(min_community=1)
        with pytest.raises(ValueError):
            LFRParams(min_community=50, max_community=20)

    def test_graph_smaller_than_community_raises(self):
        with pytest.raises(ValueError):
            LFRParams(num_vertices=10, min_community=16)

    def test_params_and_kwargs_conflict(self):
        with pytest.raises(TypeError):
            generate_lfr(LFRParams(), num_vertices=100)


class TestStructure:
    @pytest.fixture(scope="class")
    def instance(self):
        return generate_lfr(
            LFRParams(
                num_vertices=1500, avg_degree=14, max_degree=60,
                mixing=0.25, min_community=15, max_community=150,
            ),
            seed=11,
        )

    def test_ground_truth_covers_all_vertices(self, instance):
        assert instance.ground_truth.size == 1500
        assert instance.ground_truth.min() >= 0

    def test_community_sizes_within_bounds(self, instance):
        _, counts = np.unique(instance.ground_truth, return_counts=True)
        assert counts.min() >= 15
        assert counts.max() <= 150

    def test_average_degree_near_target(self, instance):
        realized = 2 * instance.graph.num_edges / instance.graph.num_vertices
        assert realized == pytest.approx(14, rel=0.25)

    def test_realized_mixing_near_parameter(self, instance):
        g = instance.graph
        labels = instance.ground_truth
        src, dst, w = g.edge_arrays()
        inter = (labels[src] != labels[dst]).mean()
        assert inter == pytest.approx(0.25, abs=0.08)

    def test_planted_partition_has_high_modularity(self, instance):
        q = modularity(instance.graph, instance.ground_truth)
        assert q > 0.5

    def test_simple_graph(self, instance):
        g = instance.graph
        assert g.self_loop_adjacency().sum() == 0.0
        src, dst, _ = g.edge_arrays()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert len(pairs) == src.size  # no duplicate edges

    def test_deterministic_with_seed(self):
        a = generate_lfr(num_vertices=300, avg_degree=8, max_degree=30, seed=5)
        b = generate_lfr(num_vertices=300, avg_degree=8, max_degree=30, seed=5)
        assert np.array_equal(a.ground_truth, b.ground_truth)
        assert np.array_equal(a.graph.indices, b.graph.indices)

    def test_different_seeds_differ(self):
        a = generate_lfr(num_vertices=300, avg_degree=8, max_degree=30, seed=5)
        b = generate_lfr(num_vertices=300, avg_degree=8, max_degree=30, seed=6)
        assert not np.array_equal(a.graph.indices, b.graph.indices)


class TestMixingKnob:
    def test_modularity_decreases_with_mixing(self):
        qs = []
        for mu in (0.1, 0.4, 0.7):
            inst = generate_lfr(
                num_vertices=800, avg_degree=12, max_degree=40, mixing=mu, seed=3
            )
            qs.append(modularity(inst.graph, inst.ground_truth))
        assert qs[0] > qs[1] > qs[2]

    def test_mixing_one_has_no_intra_edges(self):
        inst = generate_lfr(
            num_vertices=400, avg_degree=8, max_degree=30, mixing=1.0, seed=4
        )
        src, dst, _ = inst.graph.edge_arrays()
        labels = inst.ground_truth
        assert (labels[src] == labels[dst]).sum() == 0


class TestCommunitySizes:
    def test_remainder_spread_over_communities_with_room(self):
        # 200 = 12 * 16 + 8: every community sits at the minimum when the
        # overshoot runs out, and the 8 spare vertices fit below the maximum.
        p = LFRParams(num_vertices=200, min_community=16, max_community=17)
        sizes = _draw_community_sizes(np.random.default_rng(1), p)
        assert sizes.sum() == 200
        assert sizes.min() >= 16 and sizes.max() <= 17

    @given(
        low=st.integers(2, 40),
        span=st.integers(0, 3),
        parts=st.integers(1, 8),
        extra=st.integers(0, 39),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_sizes_in_bounds_whenever_a_split_exists(
        self, low, span, parts, extra, seed
    ):
        # A few communities of narrow size range: the overshoot often
        # outlasts the shaving, which is where the remainder appears.
        n = parts * low + extra % low
        p = LFRParams(num_vertices=n, min_community=low, max_community=low + span)
        sizes = _draw_community_sizes(np.random.default_rng(seed), p)
        assert sizes.sum() == n
        assert sizes.max() <= low + span
        # k communities can hold n exactly when k*low <= n <= k*(low + span).
        if any(k * low <= n <= k * (low + span) for k in range(1, parts + 1)):
            assert sizes.min() >= low
        else:
            assert (sizes < low).sum() == 1

    def test_undersized_remainder_only_without_a_split(self):
        # 70 has no split into [16, 17] (4 parts hold at most 68, 5 need 80).
        p = LFRParams(num_vertices=70, min_community=16, max_community=17)
        sizes = _draw_community_sizes(np.random.default_rng(0), p)
        assert sizes.sum() == 70
        assert sorted(sizes.tolist()) == [2, 17, 17, 17, 17]


# --------------------------------------------------------------------- #
# Oracle: the original O(n x C) vertex-by-community scan, kept verbatim,
# with the original np.unique dedup and lexsort coalesce around it.  The
# whole-array rewrite must reproduce them byte for byte, including the RNG
# stream the Chung-Lu draws consume.
# --------------------------------------------------------------------- #


def _reference_assign(sizes, intra_deg):
    n = intra_deg.size
    intra_deg = intra_deg.copy()
    labels = np.full(n, -1, dtype=np.int64)
    capacity = sizes.copy()
    order = np.argsort(-intra_deg, kind="stable")
    comm_order = np.argsort(-sizes, kind="stable")
    for u in order.tolist():
        need = intra_deg[u]
        placed = False
        for c in comm_order.tolist():
            if capacity[c] > 0 and sizes[c] > need:
                labels[u] = c
                capacity[c] -= 1
                placed = True
                break
        if not placed:
            # Degree too large for any community: clamp the intra-degree to
            # the largest feasible community (the LFR code rewires instead;
            # clamping changes only a handful of hub vertices).
            c = int(comm_order[np.argmax(capacity[comm_order] > 0)])
            labels[u] = c
            capacity[c] -= 1
            intra_deg[u] = min(intra_deg[u], sizes[c] - 1)
    return labels, intra_deg


def _reference_generate(params, seed):
    """The original ``generate_lfr`` body around the reference scan."""
    rng = np.random.default_rng(seed)
    n = params.num_vertices
    degrees = powerlaw_degrees_with_mean(
        rng, n, params.degree_exponent, params.avg_degree, params.max_degree
    )
    sizes = _draw_community_sizes(rng, params)
    intra_deg = np.minimum(
        np.round((1.0 - params.mixing) * degrees).astype(np.int64), degrees
    )
    raw_intra = intra_deg
    labels, intra_deg = _reference_assign(sizes, raw_intra)
    ext_deg = degrees - intra_deg
    src_parts, dst_parts = [], []
    for c in range(sizes.size):
        members = np.flatnonzero(labels == c)
        w = intra_deg[members].astype(np.float64)
        s, d = _chung_lu_pairs(rng, w, members, int(w.sum() // 2))
        src_parts.append(s)
        dst_parts.append(d)
    w_ext = ext_deg.astype(np.float64)
    target_ext = int(w_ext.sum() // 2)
    s, d = _chung_lu_pairs(rng, w_ext, np.arange(n, dtype=np.int64), target_ext)
    for _ in range(4):
        bad = labels[s] == labels[d]
        if not bad.any():
            break
        s2, d2 = _chung_lu_pairs(rng, w_ext, np.arange(n, dtype=np.int64), int(bad.sum()))
        s = np.concatenate([s[~bad], s2])
        d = np.concatenate([d[~bad], d2])
    good = labels[s] != labels[d]
    src_parts.append(s[good])
    dst_parts.append(d[good])
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    loops = src == dst
    src, dst = src[~loops], dst[~loops]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    uniq = np.unique(lo * np.int64(n) + hi)
    src, dst = uniq // n, uniq % n
    a_src, a_dst, a_w = reference_coalesce(
        np.concatenate([src, dst]), np.concatenate([dst, src]),
        np.ones(2 * src.size),
    )
    graph = Graph._from_directed_entries(a_src, a_dst, a_w, n)
    return (sizes, raw_intra), (labels, intra_deg), graph


def _assert_same_instance(params, seed):
    inputs, (labels, intra_deg), graph = _reference_generate(params, seed)
    got = generate_lfr(params, seed=seed)
    _, got_intra = _assign_communities(*inputs)
    for want, have in (
        (intra_deg, got_intra),
        (labels, got.ground_truth),
        (graph.indptr, got.graph.indptr),
        (graph.indices, got.graph.indices),
        (graph.weights, got.graph.weights),
    ):
        assert have.dtype == want.dtype
        assert have.tobytes() == want.tobytes()


@st.composite
def lfr_params(draw):
    n = draw(st.integers(40, 1500))
    low = draw(st.integers(4, min(40, n)))
    high = draw(st.integers(low, low + 200))
    max_degree = draw(st.integers(4, 80))
    avg = draw(st.floats(1.5, max_degree - 1.0))
    mixing = draw(st.floats(0.0, 1.0))
    return LFRParams(
        num_vertices=n, avg_degree=avg, max_degree=max_degree, mixing=mixing,
        min_community=low, max_community=high,
    )


class TestMatchesReferenceScan:
    @given(
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=30),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_assignment(self, sizes, data):
        # Arbitrary size lists and intra-degrees, ties and clamped hubs
        # included (degrees reach past the largest community).
        sizes = np.array(sizes, dtype=np.int64)
        intra = np.array(
            data.draw(st.lists(
                st.integers(0, 25), min_size=int(sizes.sum()),
                max_size=int(sizes.sum()),
            )),
            dtype=np.int64,
        )
        want_labels, want_deg = _reference_assign(sizes, intra)
        labels, deg = _assign_communities(sizes, intra)
        assert labels.tobytes() == want_labels.tobytes()
        assert deg.tobytes() == want_deg.tobytes()
        assert np.array_equal(np.bincount(labels, minlength=sizes.size), sizes)

    @given(params=lfr_params(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_generated_graph(self, params, seed):
        _assert_same_instance(params, seed)

    def test_perfbench_sized_graph(self):
        _assert_same_instance(LFRParams(num_vertices=60_000, avg_degree=32), 1000)
