"""The cached climatology forecasts exactly what a fresh build does.

``DiurnalForecaster`` keeps its last hour-of-day profile keyed on the
history length.  The oracle below rebuilds the profile on every query
the original way — a mask over the whole trace and 24 masked means —
and every forecast must equal the oracle's bit for bit, whatever order
the queries arrive in.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.forecast import DiurnalForecaster
from repro.carbon.intensity import CarbonIntensityTrace


def oracle_profile(trace, t_h):
    mask = trace.times_h <= t_h
    if mask.sum() == 0:
        raise ValueError("no history at or before the query time")
    if mask.sum() < 2:
        return None
    hours = trace.times_h[mask] % 24.0
    values = trace.values[mask]
    profile = np.empty(24)
    overall = values.mean()
    for h in range(24):
        sel = (hours >= h) & (hours < h + 1)
        profile[h] = values[sel].mean() if sel.any() else overall
    return profile


def oracle_predict_many(forecaster, t_h, horizons_h):
    horizons = np.asarray(horizons_h, dtype=np.float64)
    profile = oracle_profile(forecaster.trace, t_h)
    now = float(forecaster.trace.at(t_h))
    if profile is None:
        return np.full(horizons.shape, now)
    hod_now = int(t_h % 24.0) % 24
    hod_targets = ((t_h + horizons) % 24.0).astype(int) % 24
    anomaly = now - profile[hod_now]
    decay = 0.5 ** (horizons / forecaster.anomaly_halflife_h)
    return profile[hod_targets] + decay * anomaly


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=2, max_value=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        times = np.arange(float(n))  # hourly, like the bundled traces
    else:
        times = np.cumsum(rng.uniform(0.05, 3.0, n)) - rng.uniform(0.0, 5.0)
    return CarbonIntensityTrace(times_h=times, values=rng.uniform(20.0, 700.0, n))


@st.composite
def query_times(draw, trace):
    """Times at samples, between samples and before the first sample, in
    a drawn (non-monotone) order."""
    times = trace.times_h
    at = [float(times[i]) for i in draw(
        st.lists(st.integers(0, times.size - 1), min_size=1, max_size=8))]
    between = draw(st.lists(
        st.floats(min_value=float(times[0]), max_value=float(times[-1]) + 2.0),
        max_size=12,
    ))
    before = [float(times[0]) - draw(st.floats(min_value=1e-6, max_value=5.0))]
    queries = at + between + before
    return draw(st.permutations(queries))


class TestForecastsMatchOracle:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_predict_and_predict_many_bit_for_bit(self, data):
        trace = data.draw(traces())
        forecaster = DiurnalForecaster(
            trace, anomaly_halflife_h=data.draw(st.floats(0.5, 24.0))
        )
        horizons = (np.arange(47) + 0.5) / 6.0
        for t in data.draw(query_times(trace)):
            if t < trace.times_h[0]:
                with pytest.raises(ValueError, match="no history"):
                    forecaster.predict_many(t, horizons)
                continue
            expected = oracle_predict_many(forecaster, t, horizons)
            np.testing.assert_array_equal(
                bits(forecaster.predict_many(t, horizons)), bits(expected)
            )
            assert bits(forecaster.predict(t, 2.5)) == bits(
                oracle_predict_many(forecaster, t, [2.5])[0]
            )


class TestHourOfDayIndex:
    def test_tiny_negative_query_reads_bin_zero(self):
        """``-1e-168 % 24.0`` rounds to 24.0; the forecast must read the
        midnight bin instead of indexing past the profile."""
        trace = CarbonIntensityTrace(
            times_h=np.array([-2.0, -1.0, 1.0]), values=np.array([100.0, 200.0, 300.0])
        )
        forecaster = DiurnalForecaster(trace)
        forecast = forecaster.predict_many(-1e-168, [0.0, 1.0])
        np.testing.assert_array_equal(
            forecast, oracle_predict_many(forecaster, -1e-168, [0.0, 1.0])
        )
        assert np.isfinite(forecast).all()


class TestProfileCache:
    @pytest.fixture()
    def trace(self):
        rng = np.random.default_rng(11)
        return CarbonIntensityTrace(
            times_h=np.arange(72.0), values=rng.uniform(50.0, 500.0, 72)
        )

    def test_cached_profile_is_read_only(self, trace):
        forecaster = DiurnalForecaster(trace)
        profile = forecaster._climatology(30.5)
        assert not profile.flags.writeable
        with pytest.raises(ValueError):
            profile[0] = 0.0

    def test_reused_between_samples_and_rebuilt_on_a_new_one(self, trace):
        forecaster = DiurnalForecaster(trace)
        profile = forecaster._climatology(30.0)
        assert forecaster._climatology(30.9) is profile  # same history
        assert forecaster._climatology(31.0) is not profile  # one more sample

    def test_forecasters_over_one_trace_share_no_state(self, trace):
        first, second = DiurnalForecaster(trace), DiurnalForecaster(trace)
        before = first.predict_many(30.5, [1.0, 5.0])
        second.predict_many(60.5, [1.0, 5.0])
        assert first._profile_cache[0] != second._profile_cache[0]
        assert first._profile_cache[1] is not second._profile_cache[1]
        np.testing.assert_array_equal(first.predict_many(30.5, [1.0, 5.0]), before)

    def test_cache_is_left_out_of_eq_and_repr(self, trace):
        used, fresh = DiurnalForecaster(trace), DiurnalForecaster(trace)
        used.predict(30.5, 1.0)
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert "_profile_cache" not in repr(used)


class TestGrowingHistory:
    """Walking forward through the trace, the run's query pattern, the
    profile is updated bin by bin; every update equals a full build."""

    @given(trace=traces(), stride=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_each_update_matches_a_full_build(self, trace, stride):
        forecaster = DiurnalForecaster(trace)
        for i in range(1, trace.times_h.size, stride):
            t = float(trace.times_h[i])
            np.testing.assert_array_equal(
                bits(forecaster._climatology(t)), bits(oracle_profile(trace, t))
            )

    def test_hour_rounding_to_24_joins_no_bin(self):
        """``-1e-15 % 24.0`` is 24.0: that sample counts toward the
        overall mean of the empty bins but toward no hour bin."""
        trace = CarbonIntensityTrace(
            times_h=np.array([-1e-15, 0.5, 1.5, 23.5, 30.0]),
            values=np.array([900.0, 100.0, 200.0, 300.0, 400.0]),
        )
        forecaster = DiurnalForecaster(trace)
        for t in trace.times_h[1:]:
            np.testing.assert_array_equal(
                bits(forecaster._climatology(float(t))),
                bits(oracle_profile(trace, float(t))),
            )

    def test_shorter_history_rebuilds(self):
        rng = np.random.default_rng(5)
        trace = CarbonIntensityTrace(
            times_h=np.arange(60.0), values=rng.uniform(50.0, 500.0, 60)
        )
        forecaster = DiurnalForecaster(trace)
        for t in (50.0, 12.0, 13.5, 40.0):
            np.testing.assert_array_equal(
                bits(forecaster._climatology(t)), bits(oracle_profile(trace, t))
            )
