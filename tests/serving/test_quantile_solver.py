"""The closed-form p95 solver against the bisection it replaced.

Both ``QueueEstimate.quantile_s`` and ``BatchQueueEstimate.quantile_s``
invert the response-time mixture CDF in closed form.  The oracle here is
the estimator's former solver, kept verbatim: an 80-step bisection over
the public ``latency_cdf``, which converges to the smallest float whose
CDF reaches ``q``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.analytic import (
    BatchQueueEstimate,
    QueueEstimate,
    estimate_fifo,
    estimate_fifo_batch,
)

RTOL = 1e-12
QUANTILES = (0.5, 0.9, 0.95, 0.99)


def bisect_quantile_s(est: QueueEstimate, q: float) -> float:
    """The ``q``-quantile by bisection on the (monotone) latency CDF."""
    if est.overloaded:
        return float("inf")
    lo = 0.0
    hi = float(est.service_s.max()) + est.mean_wait_s
    # Expand until the CDF brackets q (the exponential tail is unbounded).
    while est.latency_cdf(hi) < q:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if est.latency_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return hi


def batch_row(batch: BatchQueueEstimate, i: int) -> QueueEstimate:
    """Row ``i`` of a batch estimate as a scalar estimate."""
    return QueueEstimate(
        rate_per_s=float(batch.rates_per_s[i]),
        utilization=float(batch.utilization[i]),
        overloaded=bool(batch.overloaded[i]),
        p_wait=float(batch.p_wait[i]),
        mean_wait_s=float(batch.mean_wait_s[i]),
        mean_service_s=float(batch.mean_service_s[i]),
        shares=batch.shares[i],
        service_s=batch.service_s[i],
    )


service_time = st.floats(min_value=0.001, max_value=0.2)


@st.composite
def service_rows(draw, max_size=30):
    """Heterogeneous, tied (a few distinct values) or homogeneous rows."""
    kind = draw(st.sampled_from(("heterogeneous", "tied", "homogeneous")))
    if kind == "heterogeneous":
        return draw(st.lists(service_time, min_size=1, max_size=max_size))
    if kind == "homogeneous":
        return [draw(service_time)] * draw(st.integers(1, max_size))
    pool = draw(st.lists(service_time, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_size))


loads = st.floats(min_value=0.01, max_value=0.97)
quantiles = st.sampled_from(QUANTILES)


def at_load(service, load: float) -> QueueEstimate:
    return estimate_fifo(np.asarray(service), load * sum(1.0 / s for s in service))


class TestAgainstBisection:
    @given(service_rows(), loads, quantiles)
    @settings(max_examples=200, deadline=None)
    def test_scalar_matches_bisection(self, service, load, q):
        est = at_load(service, load)
        expected = bisect_quantile_s(est, q)
        assert est.quantile_s(q) == pytest.approx(expected, rel=RTOL, abs=0.0)

    @given(service_rows(), loads, quantiles)
    @settings(max_examples=60, deadline=None)
    def test_zero_wait_rows_land_on_an_atom(self, service, load, q):
        est = replace(at_load(service, load), p_wait=0.0, mean_wait_s=0.0)
        got = est.quantile_s(q)
        assert got in est.service_s
        assert got == bisect_quantile_s(est, q)

    def test_erlang_underflow_gives_zero_wait(self):
        # Sixty idle servers: the Erlang-B recursion underflows to zero.
        est = estimate_fifo(np.linspace(0.01, 0.05, 60), 1e-4)
        assert est.p_wait == 0.0
        for q in QUANTILES:
            assert est.quantile_s(q) == bisect_quantile_s(est, q)

    @given(
        service_rows(max_size=12),
        st.lists(loads, min_size=1, max_size=8),
        quantiles,
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_grid_batch_rows_match_bisection(self, service, grid, q):
        """One configuration at many rates: the batch ``evaluate_rates``
        estimates when the fleet router probes a deployed config."""
        capacity = sum(1.0 / s for s in service)
        rates = np.array([load * capacity for load in grid])
        batch = estimate_fifo_batch(np.asarray(service), rates)
        got = batch.quantile_s(q)
        for i in range(rates.size):
            expected = bisect_quantile_s(batch_row(batch, i), q)
            assert got[i] == pytest.approx(expected, rel=RTOL, abs=0.0)


class TestOneSolver:
    @given(service_rows(), loads, quantiles)
    @settings(max_examples=60, deadline=None)
    def test_one_row_batch_is_the_scalar_bit_for_bit(self, service, load, q):
        est = at_load(service, load)
        batch = BatchQueueEstimate(
            rates_per_s=np.array([est.rate_per_s]),
            utilization=np.array([est.utilization]),
            overloaded=np.array([est.overloaded]),
            p_wait=np.array([est.p_wait]),
            mean_wait_s=np.array([est.mean_wait_s]),
            mean_service_s=np.array([est.mean_service_s]),
            shares=est.shares[None, :],
            service_s=est.service_s[None, :],
        )
        assert batch.quantile_s(q)[0] == est.quantile_s(q)

    @given(
        service_rows(max_size=12),
        st.lists(st.floats(0.01, 1.2), min_size=2, max_size=8),
        st.lists(st.booleans(), min_size=8, max_size=8),
        quantiles,
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_row_batch_is_per_row_scalar_bit_for_bit(
        self, service, grid, no_wait, q
    ):
        """Rows at up to 1.2x capacity (overloaded past 0.98), some with
        their wait zeroed out."""
        capacity = sum(1.0 / s for s in service)
        rates = np.array([load * capacity for load in grid])
        batch = estimate_fifo_batch(np.asarray(service), rates)
        zero = np.array(no_wait[: rates.size])
        batch = replace(
            batch,
            p_wait=np.where(zero, 0.0, batch.p_wait),
            mean_wait_s=np.where(zero, 0.0, batch.mean_wait_s),
        )
        got = batch.quantile_s(q)
        assert got.shape == (rates.size,)
        for i in range(rates.size):
            assert float(got[i]).hex() == batch_row(batch, i).quantile_s(q).hex()

    def test_overloaded_and_no_wait_rows_in_one_batch(self):
        service = np.linspace(0.01, 0.05, 60)
        capacity = float((1.0 / service).sum())
        # Erlang underflow (no wait), moderate load, overload.
        batch = estimate_fifo_batch(
            service, np.array([1e-4, 0.5 * capacity, 0.99 * capacity])
        )
        assert batch.p_wait[0] == 0.0
        assert batch.p_wait[1] > 0.0
        assert batch.overloaded.tolist() == [False, False, True]
        for q in QUANTILES:
            got = batch.quantile_s(q)
            for i in range(3):
                assert float(got[i]).hex() == batch_row(batch, i).quantile_s(q).hex()
            assert got[2] == float("inf")

    def test_light_load_p95_is_the_slowest_service_time(self):
        service = np.array([0.004, 0.011, 0.02, 0.035])
        est = estimate_fifo(service, 2.0)
        assert est.quantile_s(0.95) == 0.035
        assert est.quantile_s(0.95) == bisect_quantile_s(est, 0.95)
