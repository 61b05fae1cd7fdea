"""Statistics helpers: percentile conventions and weighted means."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.stats import exact_percentile, weighted_mean


class TestExactPercentile:
    def test_p95_is_an_observed_sample(self):
        values = np.arange(1, 101, dtype=float)
        assert exact_percentile(values, 95.0) in values

    def test_p50_of_odd_set(self):
        assert exact_percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    def test_p100_is_max(self):
        assert exact_percentile([5.0, 9.0, 1.0], 100.0) == 9.0

    def test_p0_is_min(self):
        assert exact_percentile([5.0, 9.0, 1.0], 0.0) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="zero samples"):
            exact_percentile([], 95.0)

    @pytest.mark.parametrize("q", [-1.0, 101.0])
    def test_out_of_range_quantile_raises(self, q):
        with pytest.raises(ValueError):
            exact_percentile([1.0], q)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_is_always_a_sample(self, values, q):
        assert exact_percentile(values, q) in np.asarray(values)


class TestWeightedMean:
    def test_basic(self):
        assert weighted_mean([1.0, 3.0], [1.0, 1.0]) == 2.0

    def test_weights_matter(self):
        assert weighted_mean([1.0, 3.0], [3.0, 1.0]) == pytest.approx(1.5)

    def test_zero_total_weight_raises(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0], [0.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0, 2.0], [1.0])

