"""R-MAT recursive-matrix graph generator (Chakrabarti et al., SDM 2004).

Generates the Graph500-style scale-free graphs the paper uses for weak/strong
scaling and for the hash-behavior study (a scale-25 R-MAT in Fig. 6).  An
R-MAT of ``scale`` s has ``2^s`` vertices and ``edge_factor * 2^s`` edges,
sampled by recursively descending into adjacency-matrix quadrants with
probabilities ``(a, b, c, d)``.  Graph500 defaults: a=0.57, b=0.19, c=0.19,
d=0.05, edge_factor=16 -- which is the paper's ``2^SCALE`` vertices /
``2^(SCALE+4)`` edges configuration (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import Graph
from .edges import simple_edges

__all__ = ["RMATParams", "generate_rmat", "rmat_edge_list"]


@dataclass(frozen=True)
class RMATParams:
    scale: int = 16
    edge_factor: int = 16
    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    d: float = 0.05
    #: Randomly permute vertex ids so degree does not correlate with id --
    #: Graph500 does this; it is what makes the 1D modulo partition balanced.
    permute: bool = True

    def __post_init__(self) -> None:
        total = self.a + self.b + self.c + self.d
        if abs(total - 1.0) > 1e-9:
            raise ValueError("quadrant probabilities must sum to 1")
        if self.scale < 1 or self.scale > 32:
            raise ValueError("scale must be in [1, 32]")
        if self.edge_factor < 1:
            raise ValueError("edge_factor must be positive")


def rmat_edge_list(
    params: RMATParams, *, seed: int | None = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Raw directed R-MAT edge endpoints (with duplicates and self-loops)."""
    rng = np.random.default_rng(seed)
    n_edges = params.edge_factor << params.scale
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    # Per-level quadrant choice, vectorized over all edges at once.
    p_right = params.b + params.d  # P(column bit = 1)
    for level in range(params.scale):
        bit = np.int64(1) << np.int64(params.scale - 1 - level)
        r_col = rng.random(n_edges)
        col_bit = r_col < p_right
        # Row bit probability depends on the chosen column half:
        #   P(row=1 | col=0) = c / (a + c);  P(row=1 | col=1) = d / (b + d)
        p_row = np.where(
            col_bit,
            params.d / (params.b + params.d),
            params.c / (params.a + params.c),
        )
        row_bit = rng.random(n_edges) < p_row
        src += bit * row_bit
        dst += bit * col_bit
    if params.permute:
        perm = rng.permutation(np.int64(1) << np.int64(params.scale))
        src, dst = perm[src], perm[dst]
    return src, dst


def generate_rmat(
    params: RMATParams | None = None,
    *,
    seed: int | None = 0,
    simple: bool = True,
    **kwargs,
) -> Graph:
    """Generate an undirected R-MAT graph.

    ``simple=True`` removes self-loops and duplicate edges (the paper treats
    R-MAT graphs as simple undirected graphs when computing TEPS over input
    edges).
    """
    if params is None:
        params = RMATParams(**kwargs)
    elif kwargs:
        raise TypeError("pass either params or keyword overrides, not both")
    src, dst = rmat_edge_list(params, seed=seed)
    n = np.int64(1) << np.int64(params.scale)
    if simple:
        src, dst = simple_edges(src, dst, n)
    return Graph.from_edges(src, dst, num_vertices=int(n))
