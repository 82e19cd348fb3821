"""Edge-list clean-up shared by the LFR / BTER / R-MAT generators."""

from __future__ import annotations

import numpy as np

__all__ = ["simple_edges"]


def simple_edges(
    src: np.ndarray, dst: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and duplicate undirected pairs from an edge list.

    Returns the distinct pairs as ``(lo, hi)`` with ``lo < hi``, sorted by
    ``(lo, hi)`` -- the simple unweighted graph the generators promise.
    Duplicates are found by sorting the ``lo * n + hi`` keys and keeping each
    run's first key: the result ``np.unique`` gives, at a fraction of its
    cost.
    """
    keep = src != dst
    src, dst = src[keep], dst[keep]
    n = np.int64(num_vertices)
    keys = np.minimum(src, dst) * n + np.maximum(src, dst)
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return keys // n, keys % n
