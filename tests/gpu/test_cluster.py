"""Slice-histogram decomposition onto per-GPU MIG partitions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.cluster import decompose_histogram
from repro.gpu.partitions import ALL_PARTITION_HISTOGRAMS, partition_by_id


class TestDecompose:
    def test_single_gpu_identities(self):
        for pid in range(1, 20):
            h = ALL_PARTITION_HISTOGRAMS[pid - 1]
            result = decompose_histogram(h, 1)
            assert result is not None
            assert partition_by_id(result[0]).histogram().tolist() == h.tolist()

    def test_two_gpu_mixed(self):
        # One full GPU + seven 1g slices = configs 1 and 19.
        h = [7, 0, 0, 0, 1]
        result = decompose_histogram(h, 2)
        assert result is not None
        assert sorted(result) == [1, 19]

    def test_infeasible_when_too_many_slices(self):
        assert decompose_histogram([15, 0, 0, 0, 0], 2) is None

    def test_infeasible_when_too_few_slices(self):
        # 3 GPUs need at least 3 slices.
        assert decompose_histogram([0, 0, 0, 0, 2], 3) is None

    def test_zero_gpus_needs_empty_histogram(self):
        assert decompose_histogram([0, 0, 0, 0, 0], 0) == ()
        assert decompose_histogram([1, 0, 0, 0, 0], 0) is None

    def test_returned_ids_are_non_increasing(self):
        # Configs 1 + 3 + 19: {7g} + {4g,2g,1g} + {1g x 7}.
        result = decompose_histogram([8, 1, 0, 1, 1], 3)
        assert result is not None
        assert list(result) == sorted(result, reverse=True)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            decompose_histogram([-1, 0, 0, 0, 0], 1)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            decompose_histogram([1, 2, 3], 1)

    def test_rejects_negative_gpu_count(self):
        with pytest.raises(ValueError):
            decompose_histogram([0, 0, 0, 0, 0], -1)

    @given(
        ids=st.lists(st.integers(min_value=1, max_value=19), min_size=1, max_size=6)
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_of_partitions_always_decomposes(self, ids):
        """Soundness+completeness on constructed instances: any histogram
        built as a sum of n partition histograms decomposes back into n
        partitions whose histograms sum to it."""
        h = np.zeros(5, dtype=np.int64)
        for pid in ids:
            h += ALL_PARTITION_HISTOGRAMS[pid - 1]
        result = decompose_histogram(h, len(ids))
        assert result is not None
        total = np.zeros(5, dtype=np.int64)
        for pid in result:
            total += ALL_PARTITION_HISTOGRAMS[pid - 1]
        assert np.array_equal(total, h)
