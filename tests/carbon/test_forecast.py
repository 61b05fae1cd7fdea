"""Carbon-intensity forecasting building blocks."""

import numpy as np
import pytest

from repro.carbon.forecast import (
    DiurnalForecaster,
    FORECASTER_NAMES,
    PersistenceForecaster,
    forecast_mae,
    make_forecaster,
)
from repro.carbon.generator import CISO_MARCH, generate_trace
from repro.carbon.intensity import CarbonIntensityTrace


@pytest.fixture(scope="module")
def solar_trace():
    return generate_trace(CISO_MARCH, days=6.0, rng=7)


class TestPersistence:
    def test_prediction_is_current_value(self, solar_trace):
        f = PersistenceForecaster(solar_trace)
        assert f.predict(30.0, 6.0) == pytest.approx(solar_trace.at(30.0))

    def test_horizon_zero_is_exact(self, solar_trace):
        f = PersistenceForecaster(solar_trace)
        assert forecast_mae(f, solar_trace, horizon_h=0.0) == pytest.approx(0.0)

    def test_negative_horizon_rejected(self, solar_trace):
        with pytest.raises(ValueError):
            PersistenceForecaster(solar_trace).predict(30.0, -1.0)


class TestDiurnal:
    def test_beats_persistence_at_multi_hour_horizons(self, solar_trace):
        """The entire point: grid intensity is diurnal, so climatology beats
        persistence from a few hours out."""
        p = PersistenceForecaster(solar_trace)
        d = DiurnalForecaster(solar_trace)
        for horizon in (6.0, 12.0):
            assert forecast_mae(d, solar_trace, horizon) < forecast_mae(
                p, solar_trace, horizon
            )

    def test_short_horizon_tracks_current_anomaly(self, solar_trace):
        """At tiny horizons the forecast stays near the current value."""
        d = DiurnalForecaster(solar_trace)
        t = 40.0
        now = solar_trace.at(t)
        assert d.predict(t, 0.0) == pytest.approx(now, abs=25.0)

    def test_no_lookahead(self):
        """Climatology must ignore samples after the query time."""
        t = np.arange(0.0, 96.0, 1.0)
        v = np.where(t < 48.0, 100.0, 300.0)  # regime change at t=48
        trace = CarbonIntensityTrace(times_h=t, values=np.maximum(v, 1.0))
        d = DiurnalForecaster(trace)
        # Querying at t=40 must know nothing about the later 300s.
        assert d.predict(40.0, 6.0) == pytest.approx(100.0, abs=1.0)

    def test_insufficient_history_raises(self, solar_trace):
        d = DiurnalForecaster(solar_trace)
        with pytest.raises(ValueError):
            d.predict(-10.0, 1.0)

    def test_bad_halflife_rejected(self, solar_trace):
        with pytest.raises(ValueError):
            DiurnalForecaster(solar_trace, anomaly_halflife_h=0.0)

    def test_midnight_wraparound(self, solar_trace):
        """A horizon crossing midnight reads the next day's early-morning
        climatology bin, not an out-of-range index."""
        d = DiurnalForecaster(solar_trace)
        crossing = d.predict(71.0, 3.0)  # 23:00 + 3 h → 02:00 next day
        profile = d._climatology(71.0)
        anchor = profile[2]  # the 02:00 bin
        # The prediction is the 02:00 climatology plus a decayed anomaly.
        anomaly = float(solar_trace.at(71.0)) - profile[23]
        decay = 0.5 ** (3.0 / d.anomaly_halflife_h)
        assert crossing == pytest.approx(anchor + decay * anomaly)

    def test_zero_horizon_is_exactly_now(self, solar_trace):
        """At horizon zero the anomaly term cancels the climatology: the
        forecast is the current observation, exactly."""
        d = DiurnalForecaster(solar_trace)
        for t in (26.0, 40.0, 55.5):
            assert d.predict(t, 0.0) == pytest.approx(
                float(solar_trace.at(t)), rel=1e-12
            )

    def test_short_history_falls_back_to_persistence(self, solar_trace):
        """With a single sample of history (a run's first epoch) there is
        no climatology — the forecast degrades to persistence instead of
        raising."""
        d = DiurnalForecaster(solar_trace)
        t = 0.5  # only the t=0 sample is at or before the query
        assert d.predict(t, 6.0) == pytest.approx(float(solar_trace.at(t)))


class TestFactory:
    def test_all_names_construct(self, solar_trace):
        for name in FORECASTER_NAMES:
            f = make_forecaster(name, solar_trace)
            assert f.predict(30.0, 1.0) > 0.0

    def test_kwargs_forwarded(self, solar_trace):
        f = make_forecaster("diurnal", solar_trace, anomaly_halflife_h=2.0)
        assert f.anomaly_halflife_h == 2.0

    def test_unknown_name_raises(self, solar_trace):
        with pytest.raises(ValueError, match="valid"):
            make_forecaster("crystal-ball", solar_trace)


class TestForecastMae:
    def test_requires_room_for_horizon(self, solar_trace):
        f = PersistenceForecaster(solar_trace)
        with pytest.raises(ValueError):
            forecast_mae(f, solar_trace, horizon_h=1e6)

    def test_step_must_be_positive(self, solar_trace):
        f = PersistenceForecaster(solar_trace)
        with pytest.raises(ValueError):
            forecast_mae(f, solar_trace, 1.0, step_h=0.0)

    def test_evaluates_every_point_of_a_fractional_grid(self):
        """The grid is ``start + k * step``, both ends included: an
        accumulated ``t += step`` drifts past the window's last point."""

        class Recording:
            def __init__(self):
                self.times = []

            def predict(self, t_h, horizon_h):
                self.times.append(t_h)
                return 100.0

        trace = CarbonIntensityTrace(
            times_h=np.arange(0.0, 49.0), values=np.full(49, 100.0)
        )
        for end_h, step_h, expected in ((48.0, 0.1, 241), (47.0, 1.0 / 3.0, 70)):
            rec = Recording()
            forecast_mae(rec, trace.window(0.0, end_h), 0.0, step_h=step_h)
            assert len(rec.times) == expected
            assert rec.times[0] == 24.0
            assert rec.times[-1] == pytest.approx(end_h)
