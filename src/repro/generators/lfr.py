"""LFR benchmark generator (Lancichinetti & Fortunato, Phys. Rev. E 80, 2009).

The paper uses LFR graphs to (a) trace the Louvain migration pattern that the
convergence heuristic is regressed on (Fig. 2) and (b) measure parallel-vs-
sequential partition similarity at different mixing levels (Table III).

This is a practical reimplementation with the original tunables: power-law
degree distribution (exponent ``gamma``), power-law community sizes
(exponent ``beta``), and mixing parameter ``mu`` -- the fraction of each
vertex's edges that leave its community.  Intra- and inter-community edges
are wired with degree-proportional (Chung-Lu style) sampling, which
reproduces the expected degree sequence and planted partition without the
original's slow rewiring loop.

Set-up is whole-array numpy apart from one Chung-Lu draw per community:
vertices, taken in order of non-increasing intra-degree, fill the
communities largest first with a single ``np.repeat``, and one stable sort
by label yields every community's member list, so building a graph costs
O(n + C) array work for n vertices and C communities rather than a Python
scan of the communities for every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import Graph
from .edges import simple_edges
from .powerlaw import powerlaw_degrees_with_mean, sample_powerlaw

__all__ = ["LFRParams", "LFRGraph", "generate_lfr"]


@dataclass(frozen=True)
class LFRParams:
    """Tunables of the LFR benchmark (paper §IV-B notation).

    ``avg_degree`` = k, ``degree_exponent`` = γ, ``community_exponent`` = β,
    ``mixing`` = μ.
    """

    num_vertices: int = 1000
    avg_degree: float = 16.0
    max_degree: int = 64
    degree_exponent: float = 2.5
    community_exponent: float = 1.5
    mixing: float = 0.3
    min_community: int = 16
    max_community: int = 128

    def __post_init__(self) -> None:
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError("mixing (mu) must be in [0, 1]")
        if self.min_community < 2 or self.max_community < self.min_community:
            raise ValueError("need 2 <= min_community <= max_community")
        if self.num_vertices < self.min_community:
            raise ValueError("graph smaller than the minimum community")


@dataclass(frozen=True)
class LFRGraph:
    """An LFR instance: the graph plus its planted ground-truth communities."""

    graph: Graph
    ground_truth: np.ndarray
    params: LFRParams


def _draw_community_sizes(rng: np.random.Generator, params: LFRParams) -> np.ndarray:
    """Community sizes summing exactly to ``num_vertices``.

    Every size lies in ``[min_community, max_community]``, except when
    ``num_vertices`` has no split into sizes in that range (say 70 into
    [16, 17]): then one community of the remaining vertices falls below
    ``min_community``.
    """
    sizes: list[int] = []
    total = 0
    n = params.num_vertices
    while total < n:
        s = int(
            sample_powerlaw(
                rng, 1, params.community_exponent, params.min_community,
                min(params.max_community, n),
            )[0]
        )
        sizes.append(s)
        total += s
    overshoot = total - n
    # Shave the overshoot off the largest communities so every size stays
    # >= min_community.
    sizes.sort(reverse=True)
    i = 0
    while overshoot > 0:
        if sizes[i] > params.min_community:
            take = min(overshoot, sizes[i] - params.min_community)
            sizes[i] -= take
            overshoot -= take
        i += 1
        if i == len(sizes):
            if overshoot > 0:  # everything at min size: drop one community
                overshoot -= sizes.pop()
            i = 0
    if overshoot < 0:
        # The dropped community took too many vertices with it; every other
        # community is at min size.  Hand the spare vertices back one at a
        # time to the communities below max_community.
        spare = -overshoot
        room = len(sizes) * (params.max_community - params.min_community)
        for j in range(min(spare, room)):
            sizes[j % len(sizes)] += 1
        if spare > room:  # no split into [min_community, max_community]
            sizes.append(spare - room)
    return np.array(sizes, dtype=np.int64)


def _assign_communities(
    sizes: np.ndarray, intra_deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Place vertices in communities; returns labels and clamped intra-degrees.

    Vertices are placed largest intra-degree first, so that the LFR
    feasibility constraint (intra-degree < community size) holds: in order
    of non-increasing intra-degree they fill the communities in order of
    non-increasing size, each community exactly to its size.  A vertex whose
    intra-degree does not fit its community is clamped to the community's
    size minus one (the LFR code rewires instead; clamping changes only a
    handful of hub vertices): no community it could still join is larger.
    """
    order = np.argsort(-intra_deg, kind="stable")
    comm_order = np.argsort(-sizes, kind="stable")
    labels = np.empty(intra_deg.size, dtype=np.int64)
    labels[order] = np.repeat(comm_order, sizes[comm_order])
    return labels, np.minimum(intra_deg, sizes[labels] - 1)


def _chung_lu_pairs(
    rng: np.random.Generator,
    weights: np.ndarray,
    vertex_ids: np.ndarray,
    num_edges: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``num_edges`` endpoint pairs with probability ∝ weight."""
    if num_edges <= 0 or weights.sum() <= 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    p = weights / weights.sum()
    src = rng.choice(vertex_ids, size=num_edges, p=p)
    dst = rng.choice(vertex_ids, size=num_edges, p=p)
    return src.astype(np.int64), dst.astype(np.int64)


def generate_lfr(
    params: LFRParams | None = None, *, seed: int | None = 0, **kwargs
) -> LFRGraph:
    """Generate an LFR benchmark graph.

    Either pass an :class:`LFRParams` or keyword overrides of its fields.
    Returns the graph together with the planted community assignment.
    """
    if params is None:
        params = LFRParams(**kwargs)
    elif kwargs:
        raise TypeError("pass either params or keyword overrides, not both")
    rng = np.random.default_rng(seed)
    n = params.num_vertices

    degrees = powerlaw_degrees_with_mean(
        rng, n, params.degree_exponent, params.avg_degree, params.max_degree
    )
    sizes = _draw_community_sizes(rng, params)
    num_comm = sizes.size

    intra_deg = np.minimum(
        np.round((1.0 - params.mixing) * degrees).astype(np.int64), degrees
    )
    labels, intra_deg = _assign_communities(sizes, intra_deg)
    ext_deg = degrees - intra_deg

    # Intra-community edges: Chung-Lu within each community.  One stable
    # sort by label lists every community's members in ascending id order.
    by_comm = np.argsort(labels, kind="stable")
    bounds = np.zeros(num_comm + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    for c in range(num_comm):
        members = by_comm[bounds[c] : bounds[c + 1]]
        w = intra_deg[members].astype(np.float64)
        target = int(w.sum() // 2)
        s, d = _chung_lu_pairs(rng, w, members, target)
        src_parts.append(s)
        dst_parts.append(d)

    # Inter-community edges: Chung-Lu on external stubs, rejecting pairs that
    # land inside one community (resampled once; leftovers dropped).
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

    src, dst = simple_edges(
        np.concatenate(src_parts), np.concatenate(dst_parts), n
    )
    graph = Graph.from_edges(src, dst, num_vertices=n)
    return LFRGraph(graph=graph, ground_truth=labels, params=params)
