"""BTER generator -- Block Two-level Erdős–Rényi (Seshadhri/Kolda/Pinar).

The paper's weak-scaling study (Fig. 9a) runs BTER graphs with two Global
Clustering Coefficient settings, GCC = 0.15 and GCC = 0.55, because unlike
R-MAT, BTER plants real community structure whose strength the GCC knob
controls (higher GCC -> denser affinity blocks -> higher modularity).

Construction (following the original two-phase recipe):

* **Phase 1 (affinity blocks).**  Vertices, sorted by target degree, are
  grouped into blocks of ``d + 1`` vertices where ``d`` is the smallest
  degree in the block; each block becomes an Erdős–Rényi graph
  ``G(d + 1, rho)``.  ``rho`` is the block density knob: the expected GCC
  rises monotonically with it (a rho=1 block is a clique).
* **Phase 2 (excess degree).**  Whatever degree phase 1 did not supply is
  wired globally Chung-Lu style, proportionally to the per-vertex excess.

``calibrate_rho`` finds the ``rho`` that hits a target measured GCC at the
requested size by bisection -- this is how the Fig. 9 configurations
(GCC 0.15 / 0.55) are produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import Graph, global_clustering_coefficient
from .edges import simple_edges
from .powerlaw import powerlaw_degrees_with_mean

__all__ = ["BTERParams", "BTERGraph", "generate_bter", "calibrate_rho"]


@dataclass(frozen=True)
class BTERParams:
    num_vertices: int = 4096
    avg_degree: float = 16.0
    max_degree: int = 128
    degree_exponent: float = 2.7
    #: Intra-block edge probability; the community-strength / GCC knob.
    rho: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")


@dataclass(frozen=True)
class BTERGraph:
    graph: Graph
    #: Affinity-block id per vertex (-1 for degree-1 vertices outside blocks).
    blocks: np.ndarray
    params: BTERParams


def generate_bter(
    params: BTERParams | None = None, *, seed: int | None = 0, **kwargs
) -> BTERGraph:
    if params is None:
        params = BTERParams(**kwargs)
    elif kwargs:
        raise TypeError("pass either params or keyword overrides, not both")
    rng = np.random.default_rng(seed)
    n = params.num_vertices
    degrees = powerlaw_degrees_with_mean(
        rng, n, params.degree_exponent, params.avg_degree, params.max_degree
    )

    order = np.argsort(degrees, kind="stable")  # ascending degree
    blocks = np.full(n, -1, dtype=np.int64)
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    intra_expected = np.zeros(n, dtype=np.float64)

    pos = int(np.searchsorted(degrees[order], 2))  # degree-1 vertices skipped
    block_id = 0
    while pos < n:
        d = int(degrees[order[pos]])
        size = min(d + 1, n - pos)
        members = order[pos : pos + size]
        blocks[members] = block_id
        if size >= 2:
            s, t = np.triu_indices(size, k=1)
            keep = rng.random(s.size) < params.rho
            src_parts.append(members[s[keep]])
            dst_parts.append(members[t[keep]])
            intra_expected[members] += params.rho * (size - 1)
        block_id += 1
        pos += size

    # Phase 2: wire the excess degree with Chung-Lu sampling.
    excess = np.maximum(degrees - intra_expected, 0.0)
    total_excess = excess.sum()
    target = int(total_excess // 2)
    if target > 0 and total_excess > 0:
        p = excess / total_excess
        ids = np.arange(n, dtype=np.int64)
        s = rng.choice(ids, size=target, p=p)
        t = rng.choice(ids, size=target, p=p)
        keep = s != t
        src_parts.append(s[keep])
        dst_parts.append(t[keep])

    src = np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    src, dst = simple_edges(src, dst, n)
    graph = Graph.from_edges(src, dst, num_vertices=n)
    return BTERGraph(graph=graph, blocks=blocks, params=params)


def calibrate_rho(
    target_gcc: float,
    *,
    num_vertices: int = 4096,
    avg_degree: float = 16.0,
    max_degree: int = 128,
    degree_exponent: float = 2.7,
    seed: int = 0,
    iterations: int = 12,
    tolerance: float = 0.02,
) -> float:
    """Bisection search for the ``rho`` whose measured GCC hits the target.

    Used to reproduce the paper's BTER GCC=0.15 / GCC=0.55 configurations.
    """
    if not 0.0 < target_gcc < 1.0:
        raise ValueError("target GCC must be in (0, 1)")
    lo, hi = 0.02, 1.0
    rho = 0.5
    for _ in range(iterations):
        rho = (lo + hi) / 2.0
        g = generate_bter(
            BTERParams(
                num_vertices=num_vertices,
                avg_degree=avg_degree,
                max_degree=max_degree,
                degree_exponent=degree_exponent,
                rho=rho,
            ),
            seed=seed,
        ).graph
        gcc = global_clustering_coefficient(g)
        if abs(gcc - target_gcc) <= tolerance:
            return rho
        if gcc < target_gcc:
            lo = rho
        else:
            hi = rho
    return rho
