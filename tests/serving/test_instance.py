"""Service-time jitter sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.instance import sample_jitter


class TestSampleJitter:
    def test_zero_cv_is_deterministic(self):
        assert np.all(sample_jitter(10, cv=0.0) == 1.0)

    def test_mean_is_one(self):
        j = sample_jitter(200_000, cv=0.1, rng=1)
        assert j.mean() == pytest.approx(1.0, abs=0.005)

    def test_cv_matches_request(self):
        j = sample_jitter(200_000, cv=0.2, rng=2)
        assert j.std() / j.mean() == pytest.approx(0.2, rel=0.05)

    def test_all_positive(self):
        assert np.all(sample_jitter(10_000, cv=0.5, rng=3) > 0)

    def test_negative_inputs_raise(self):
        with pytest.raises(ValueError):
            sample_jitter(-1)
        with pytest.raises(ValueError):
            sample_jitter(1, cv=-0.1)

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_mean_one_for_any_cv(self, cv):
        j = sample_jitter(50_000, cv=cv, rng=0)
        assert abs(j.mean() - 1.0) < 0.05
