"""Edge-case tests for experiment runners not covered by the smoke tests."""

import numpy as np
import pytest

from repro.harness import paper_work_scale, sequential_reference_seconds
from repro.parallel import parallel_louvain
from repro.runtime import P7IH


class TestWorkScaleHelper:
    def test_scale_is_orig_over_proxy(self):
        ws = paper_work_scale("UK-2007", 1_000_000)
        assert ws == pytest.approx(3783.7e6 / 1e6)

    def test_unknown_graph_raises(self):
        with pytest.raises(KeyError):
            paper_work_scale("NotAGraph", 10)

    def test_zero_edges_guarded(self):
        assert np.isfinite(paper_work_scale("Amazon", 0))


class TestSequentialReference:
    def test_proportional_to_entries_and_sweeps(self, small_lfr):
        res = parallel_louvain(small_lfr.graph, num_ranks=2)
        base = sequential_reference_seconds(res, P7IH, 1.0)
        scaled = sequential_reference_seconds(res, P7IH, 10.0)
        assert scaled == pytest.approx(10 * base)
        assert base > 0

