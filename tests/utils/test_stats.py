"""Statistics helpers: percentile conventions and weighted means."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.stats import exact_percentile, exact_percentiles, weighted_mean


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


class TestExactPercentiles:
    QS = (0.0, 50.0, 95.0, 99.0, 100.0)

    @pytest.mark.parametrize("ties", [False, True])
    def test_equals_numpy_inverted_cdf_bit_for_bit(self, ties):
        rng = np.random.default_rng(17)
        for n in range(1, 2001):
            values = rng.exponential(20.0, n)
            if ties:
                values = values.round(0)  # repeated order statistics
            got = exact_percentiles(values, self.QS)
            ref = np.percentile(values, self.QS, method="inverted_cdf")
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_scalar_form_agrees(self):
        values = np.random.default_rng(3).exponential(5.0, 777)
        for q, p in zip(self.QS, exact_percentiles(values, self.QS)):
            assert exact_percentile(values, q) == p

    def test_nan_propagates_like_numpy(self):
        values = [3.0, float("nan"), 1.0, 2.0]
        got = exact_percentiles(values, self.QS)
        ref = np.percentile(values, self.QS, method="inverted_cdf")
        assert np.isnan(got).all() and np.isnan(ref).all()

    def test_input_is_not_reordered(self):
        values = np.array([3.0, 1.0, 2.0])
        exact_percentiles(values, [50.0])
        np.testing.assert_array_equal(values, [3.0, 1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="zero samples"):
            exact_percentiles([], [50.0, 95.0])

    @pytest.mark.parametrize("qs", [[-1.0], [50.0, 101.0], [float("nan")]])
    def test_out_of_range_quantile_raises(self, qs):
        with pytest.raises(ValueError):
            exact_percentiles([1.0, 2.0], qs)


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

