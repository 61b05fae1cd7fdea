"""Poisson workload generation and paper-style sizing."""

import numpy as np
import pytest

from repro.gpu.slices import slice_by_name
from repro.serving.workload import PoissonWorkload, default_rate


class TestPoissonWorkload:
    def test_fixed_count_has_exact_size(self, rng):
        wl = PoissonWorkload(rate_per_s=10.0)
        arr = wl.arrivals_fixed_count(123, rng)
        assert arr.size == 123
        assert np.all(np.diff(arr) >= 0)

    def test_fixed_count_gaps_are_exponential_mean(self):
        wl = PoissonWorkload(rate_per_s=100.0)
        arr = wl.arrivals_fixed_count(20000, 3)
        gaps = np.diff(arr)
        assert gaps.mean() == pytest.approx(1.0 / 100.0, rel=0.05)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            PoissonWorkload(0.0)


class TestDefaultRate:
    def test_sizing_rule(self, zoo, perf):
        fam = zoo.family("efficientnet")
        rate = default_rate(fam, perf, n_gpus=10, utilization=0.65)
        capacity = 10 * perf.service_rate(fam.largest, slice_by_name("7g"))
        assert rate == pytest.approx(0.65 * capacity)

    def test_scales_with_gpus(self, zoo, perf):
        fam = zoo.family("albert")
        assert default_rate(fam, perf, 10) == pytest.approx(
            2 * default_rate(fam, perf, 5)
        )

    def test_invalid_utilization(self, zoo, perf):
        fam = zoo.family("yolov5")
        with pytest.raises(ValueError):
            default_rate(fam, perf, 10, utilization=1.0)

    def test_invalid_gpus(self, zoo, perf):
        with pytest.raises(ValueError):
            default_rate(zoo.family("yolov5"), perf, 0)
