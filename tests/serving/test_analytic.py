"""Analytical queue estimator, validated against the DES."""

import numpy as np
import pytest

from repro.serving.analytic import erlang_c, estimate_fifo, estimate_fifo_batch
from repro.serving.des import simulate_fifo
from repro.serving.metrics import summarize
from repro.serving.workload import PoissonWorkload


class TestErlangC:
    def test_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_saturated_always_waits(self):
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0

    def test_single_server_equals_rho(self):
        # M/M/1: P(wait) = rho.
        assert erlang_c(1, 0.6) == pytest.approx(0.6)

    def test_known_value(self):
        # Classic table value: c=5, a=4 -> C ~ 0.5541.
        assert erlang_c(5, 4.0) == pytest.approx(0.5541, abs=1e-3)

    def test_monotone_in_load(self):
        vals = [erlang_c(8, a) for a in np.linspace(0.5, 7.5, 20)]
        assert vals == sorted(vals)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(2, -1.0)


class TestEstimateBasics:
    def test_utilization(self):
        est = estimate_fifo(np.array([0.01] * 4), rate_per_s=200.0)
        assert est.utilization == pytest.approx(0.5)
        assert not est.overloaded

    def test_overload_flag(self):
        est = estimate_fifo(np.array([0.01]), rate_per_s=150.0)
        assert est.overloaded
        assert est.p95_ms() == float("inf")
        assert est.mean_latency_s == float("inf")

    def test_shares_sum_to_one(self):
        est = estimate_fifo(np.array([0.01, 0.02, 0.05]), rate_per_s=50.0)
        assert est.shares.sum() == pytest.approx(1.0)

    def test_fast_instances_get_larger_share(self):
        est = estimate_fifo(np.array([0.01, 0.04]), rate_per_s=80.0)
        assert est.shares[0] > est.shares[1]

    def test_latency_cdf_monotone(self):
        est = estimate_fifo(np.array([0.01, 0.03]), rate_per_s=60.0)
        ts = np.linspace(0.0, 0.3, 50)
        cdf = [est.latency_cdf(t) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(cdf, cdf[1:]))

    def test_quantile_inverts_cdf(self):
        est = estimate_fifo(np.array([0.02] * 3), rate_per_s=100.0)
        q95 = est.quantile_s(0.95)
        assert est.latency_cdf(q95) == pytest.approx(0.95, abs=0.01)

    def test_quantile_bounds_validated(self):
        est = estimate_fifo(np.array([0.02]), rate_per_s=10.0)
        batch = estimate_fifo_batch(np.array([0.02]), np.array([10.0]))
        for q in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                est.quantile_s(q)
            with pytest.raises(ValueError):
                batch.quantile_s(q)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_fifo(np.array([]), 1.0)
        with pytest.raises(ValueError):
            estimate_fifo(np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            estimate_fifo(np.array([0.1]), 0.0)


class TestAgainstDes:
    """The estimator must track the DES in the regimes the optimizer visits."""

    def _compare(self, service, rate, n=60_000, seed=0):
        est = estimate_fifo(np.asarray(service), rate)
        arr = PoissonWorkload(rate).arrivals_fixed_count(n, seed)
        batch = simulate_fifo(arr, np.asarray(service), rng=seed + 1)
        met = summarize(batch, n_instances=len(service))
        return est, met

    def test_p95_homogeneous_moderate_load(self):
        est, met = self._compare([0.035] * 10, rate := 0.65 * 10 / 0.035)
        assert est.p95_ms() == pytest.approx(met.latency.p95_ms, rel=0.15)

    def test_p95_heterogeneous(self):
        service = [0.005] * 6 + [0.024] * 2 + [0.05]
        rate = 0.5 / np.mean(service) * len(service) / 3
        est, met = self._compare(service, rate)
        assert est.p95_ms() == pytest.approx(met.latency.p95_ms, rel=0.2)

    def test_p95_light_load(self):
        est, met = self._compare([0.01] * 20, rate=200.0)
        assert est.p95_ms() == pytest.approx(met.latency.p95_ms, rel=0.15)

    def test_shares_track_des(self):
        service = [0.005, 0.005, 0.02, 0.04]
        rate = 0.6 * sum(1 / s for s in service)
        est, met = self._compare(service, rate)
        np.testing.assert_allclose(est.shares, met.shares, atol=0.06)

    def test_utilization_tracks_des(self):
        service = [0.02] * 5
        rate = 0.7 * 5 / 0.02
        est, met = self._compare(service, rate)
        assert est.utilization == pytest.approx(
            float(met.utilization.mean()), abs=0.05
        )
