"""Unit tests for the CSR graph container."""

import io

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, coalesce_edges
from repro.kernels import IndexWidthError


def reference_coalesce(src, dst, weight):
    """The original lexsort-based ``coalesce_edges``, kept as the oracle."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    if src.size == 0:
        return src, dst, weight
    order = np.lexsort((dst, src))
    src, dst, weight = src[order], dst[order], weight[order]
    new_group = np.empty(src.size, dtype=bool)
    new_group[0] = True
    np.not_equal(src[1:], src[:-1], out=new_group[1:])
    np.logical_or(new_group[1:], dst[1:] != dst[:-1], out=new_group[1:])
    group_id = np.cumsum(new_group) - 1
    n_groups = int(group_id[-1]) + 1
    w_out = np.zeros(n_groups, dtype=np.float64)
    np.add.at(w_out, group_id, weight)
    keep = np.flatnonzero(new_group)
    return src[keep], dst[keep], w_out



class TestCoalesceEdges:
    def test_empty(self):
        s, d, w = coalesce_edges(np.array([]), np.array([]), np.array([]))
        assert s.size == d.size == w.size == 0

    def test_merges_duplicates(self):
        s, d, w = coalesce_edges(
            np.array([1, 0, 1, 0]), np.array([2, 1, 2, 1]), np.array([1.0, 2.0, 3.0, 4.0])
        )
        assert s.tolist() == [0, 1]
        assert d.tolist() == [1, 2]
        assert w.tolist() == [6.0, 4.0]

    def test_sorted_output(self):
        s, d, _ = coalesce_edges(
            np.array([3, 1, 2]), np.array([0, 5, 2]), np.array([1.0, 1.0, 1.0])
        )
        order = np.lexsort((d, s))
        assert np.array_equal(order, np.arange(3))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            coalesce_edges(np.array([1]), np.array([1, 2]), np.array([1.0]))

    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_bitwise(self, n, k, seed):
        # Many duplicate pairs whose weights span 16 decades: any change in
        # fold order changes the sums in their last bits.
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, size=k)
        dst = rng.integers(0, n, size=k)
        w = rng.random(k) * 10.0 ** rng.integers(-8, 8, size=k)
        got = coalesce_edges(src, dst, w)
        want = reference_coalesce(src, dst, w)
        for have, ref in zip(got, want):
            assert have.dtype == ref.dtype
            assert have.tobytes() == ref.tobytes()

    def test_fold_order_is_arrival_order(self):
        # (1e16 + 1) + 1 != 1e16 + (1 + 1) in float64: the sum must fold
        # left to right in input order.
        w = np.array([1e16, 1.0, 1.0])
        _, _, got = coalesce_edges(np.zeros(3), np.ones(3), w)
        assert got.tobytes() == np.array([(1e16 + 1.0) + 1.0]).tobytes()
        _, _, rev = coalesce_edges(np.zeros(3), np.ones(3), w[::-1])
        assert rev.tobytes() == np.array([(1.0 + 1.0) + 1e16]).tobytes()

    def test_key_overflow_raises(self):
        with pytest.raises(IndexWidthError, match="overflows int64"):
            coalesce_edges(
                np.array([2**62, 0]), np.array([0, 5]), np.array([1.0, 1.0])
            )

    def test_negative_ids_raise(self):
        with pytest.raises(IndexWidthError, match="negative"):
            coalesce_edges(np.array([-1, 2]), np.array([0, 1]), np.array([1.0, 1.0]))


class TestConstruction:
    def test_simple_triangle(self):
        g = Graph.from_edges([0, 1, 2], [1, 2, 0])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.total_weight == 3.0
        assert np.array_equal(g.strength, [2.0, 2.0, 2.0])

    def test_empty_graph(self):
        g = Graph.from_edges([], [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.total_weight == 0.0

    def test_isolated_vertices(self):
        g = Graph.from_edges([0], [1], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0
        assert g.strength[4] == 0.0

    def test_scalar_weight(self):
        g = Graph.from_edges([0, 1], [1, 2], 2.5)
        assert g.total_weight == 5.0

    def test_default_unit_weight(self):
        g = Graph.from_edges([0], [1])
        assert g.edge_weight(0, 1) == 1.0

    def test_duplicate_edges_coalesce(self):
        g = Graph.from_edges([0, 1, 0], [1, 0, 1], [1.0, 2.0, 3.0])
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 6.0

    def test_negative_id_raises(self):
        with pytest.raises(ValueError):
            Graph.from_edges([-1], [0])

    def test_id_exceeds_bound_raises(self):
        with pytest.raises(ValueError):
            Graph.from_edges([0], [5], num_vertices=3)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            Graph.from_edges([0, 1], [1])
        with pytest.raises(ValueError):
            Graph.from_edges([0, 1], [1, 0], [1.0])


class TestSelfLoops:
    def test_loop_adjacency_doubled(self, weighted_loop_graph):
        # loops: (0,0,0.5) and (3,3,1.5) -> A_uu = 1.0 and 3.0
        a_uu = weighted_loop_graph.self_loop_adjacency()
        assert a_uu[0] == pytest.approx(1.0)
        assert a_uu[3] == pytest.approx(3.0)

    def test_loop_counts_once_in_m(self, weighted_loop_graph):
        # m = 1 + 2 + 3 + 1 (edge 2-3) + loops 0.5 + 1.5 = 9? edges:
        # (0,1,1),(1,2,2),(0,2,3),(2,3,1),(0,0,.5),(3,3,1.5) -> m = 9
        assert weighted_loop_graph.total_weight == pytest.approx(9.0)

    def test_strength_counts_loop_twice(self, weighted_loop_graph):
        # strength(0) = 1 + 3 + 2*0.5 = 5
        assert weighted_loop_graph.strength[0] == pytest.approx(5.0)

    def test_two_m_equals_strength_sum(self, weighted_loop_graph):
        g = weighted_loop_graph
        assert g.strength.sum() == pytest.approx(2.0 * g.total_weight)


class TestAccessors:
    def test_neighbors_sorted(self, weighted_loop_graph):
        nbrs = weighted_loop_graph.neighbors(0)
        assert np.array_equal(nbrs, np.sort(nbrs))

    def test_edge_arrays_roundtrip(self, weighted_loop_graph):
        src, dst, wt = weighted_loop_graph.edge_arrays()
        g2 = Graph.from_edges(src, dst, wt, num_vertices=weighted_loop_graph.num_vertices)
        assert np.array_equal(g2.indptr, weighted_loop_graph.indptr)
        assert np.array_equal(g2.indices, weighted_loop_graph.indices)
        assert np.allclose(g2.weights, weighted_loop_graph.weights)

    def test_has_edge(self, two_cliques):
        assert two_cliques.has_edge(0, 1)
        assert two_cliques.has_edge(0, 6)
        assert not two_cliques.has_edge(1, 7)

    def test_edge_weight_missing(self, two_cliques):
        assert two_cliques.edge_weight(1, 7) == 0.0

    def test_degrees(self, two_cliques):
        deg = two_cliques.degrees()
        assert deg[0] == 6  # 5 clique + bridge
        assert deg[1] == 5

    def test_row_index_matches_indptr(self, weighted_loop_graph):
        rows = weighted_loop_graph.row_index()
        for u in range(weighted_loop_graph.num_vertices):
            beg, end = weighted_loop_graph.indptr[u], weighted_loop_graph.indptr[u + 1]
            assert np.all(rows[beg:end] == u)

    def test_validate_passes(self, weighted_loop_graph, two_cliques):
        weighted_loop_graph.validate()
        two_cliques.validate()


class TestNetworkxInterop:
    def test_roundtrip(self, weighted_loop_graph):
        nxg = weighted_loop_graph.to_networkx()
        back = Graph.from_networkx(nxg)
        assert back.num_vertices == weighted_loop_graph.num_vertices
        assert back.total_weight == pytest.approx(weighted_loop_graph.total_weight)
        assert np.allclose(back.strength, weighted_loop_graph.strength)

    def test_degrees_match_networkx(self, weighted_loop_graph):
        nxg = weighted_loop_graph.to_networkx()
        nx_strength = dict(nxg.degree(weight="weight"))
        for u in range(weighted_loop_graph.num_vertices):
            assert weighted_loop_graph.strength[u] == pytest.approx(nx_strength[u])
