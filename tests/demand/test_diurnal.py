"""DiurnalDemandModel: day curves, weekends, bursts, normalization."""

import numpy as np
import pytest

from repro.demand.diurnal import (
    BurstEvent,
    ConstantDemandModel,
    DiurnalDemandModel,
    default_demand,
)
from repro.demand.origins import GeoOrigin, default_origins, normalized_weights

MEAN = 120.0


@pytest.fixture(scope="module")
def model():
    return DiurnalDemandModel(
        origins=default_origins(), mean_total_rate_per_s=MEAN
    )


def local_day_mean(model, origin_idx, local_day):
    """Mean rate over one full *local* day of the origin (runs start on a
    local Monday = local day 0; weekends are local days 5 and 6)."""
    off = model.origins[origin_idx].utc_offset_h
    ts = np.arange(local_day * 24.0 - off, (local_day + 1) * 24.0 - off, 0.25)
    return float(np.mean([model.rates(t)[origin_idx] for t in ts]))


class TestDayCurve:
    def test_weekday_mean_preserved_per_origin(self, model):
        """The sinusoid is normalized: a local weekday averages to the
        origin's weight share of the configured mean."""
        weights = normalized_weights(model.origins)
        for i in range(model.n_origins):
            assert local_day_mean(model, i, local_day=1) == pytest.approx(
                MEAN * weights[i], rel=1e-3
            )

    def test_global_weekday_mean_is_configured_mean(self, model):
        """Summed across origins over a mid-week fleet day (every origin
        in a local weekday), the global mean is the configured mean."""
        ts = np.arange(48.0, 72.0, 0.25)
        assert np.mean([model.total_rate(t) for t in ts]) == pytest.approx(
            MEAN, rel=1e-3
        )

    def test_peak_at_local_peak_hour(self, model):
        """Each origin's maximum lands at peak_local_h in its local time."""
        ts = np.arange(0.0, 24.0, 0.25)
        for i, origin in enumerate(model.origins):
            rates = [model.rates(t)[i] for t in ts]
            t_peak = ts[int(np.argmax(rates))]
            local_peak = (t_peak + origin.utc_offset_h) % 24.0
            assert local_peak == pytest.approx(model.peak_local_h, abs=0.5)

    def test_origins_peak_at_different_fleet_hours(self, model):
        """The geo part of geo-diurnal: demand peaks sweep the planet."""
        ts = np.arange(0.0, 24.0, 0.25)
        peaks = [
            ts[int(np.argmax([model.rates(t)[i] for t in ts]))]
            for i in range(model.n_origins)
        ]
        assert len(set(peaks)) == model.n_origins

    def test_rates_strictly_positive(self, model):
        for t in np.arange(0.0, 7 * 24.0, 1.0):
            assert (model.rates(t) > 0.0).all()

    def test_total_is_sum_of_origins(self, model):
        for t in (0.0, 13.5, 30.0):
            assert model.total_rate(t) == pytest.approx(model.rates(t).sum())


class TestWeekend:
    def test_weekend_damped_relative_to_weekday(self, model):
        """Local Saturday (day 5) runs below local Tuesday (day 1)."""
        for i in range(model.n_origins):
            assert local_day_mean(model, i, 5) < local_day_mean(model, i, 1)

    def test_damping_magnitude(self, model):
        ratio = local_day_mean(model, 0, 5) / local_day_mean(model, 0, 1)
        assert ratio == pytest.approx(1.0 - model.weekend_damping, abs=0.01)


class TestBursts:
    def test_burst_multiplies_target_origin_only(self):
        origins = default_origins()
        burst = BurstEvent(start_h=10.0, duration_h=2.0, magnitude=2.0,
                           origin="europe")
        plain = DiurnalDemandModel(origins=origins, mean_total_rate_per_s=MEAN)
        bursty = DiurnalDemandModel(
            origins=origins, mean_total_rate_per_s=MEAN, bursts=(burst,)
        )
        idx = bursty.origin_names.index("europe")
        inside, outside = 11.0, 13.0
        assert bursty.rates(inside)[idx] == pytest.approx(
            2.0 * plain.rates(inside)[idx]
        )
        assert bursty.rates(outside) == pytest.approx(plain.rates(outside))
        other = (idx + 1) % len(origins)
        assert bursty.rates(inside)[other] == pytest.approx(
            plain.rates(inside)[other]
        )

    def test_global_burst_hits_everyone(self):
        burst = BurstEvent(start_h=5.0, duration_h=1.0, magnitude=3.0)
        m = DiurnalDemandModel(
            origins=default_origins(), mean_total_rate_per_s=MEAN,
            bursts=(burst,),
        )
        plain = DiurnalDemandModel(
            origins=default_origins(), mean_total_rate_per_s=MEAN
        )
        assert m.rates(5.5) == pytest.approx(3.0 * plain.rates(5.5))

    def test_invalid_burst_rejected(self):
        with pytest.raises(ValueError):
            BurstEvent(start_h=0.0, duration_h=0.0, magnitude=2.0)
        with pytest.raises(ValueError):
            BurstEvent(start_h=0.0, duration_h=1.0, magnitude=0.0)


class TestConstantModel:
    def test_time_invariant(self):
        m = ConstantDemandModel(
            origins=default_origins(), mean_total_rate_per_s=MEAN
        )
        assert m.rates(0.0) == pytest.approx(m.rates(37.5))
        assert m.total_rate(11.0) == pytest.approx(MEAN)

    def test_single_origin_rate_is_exact(self):
        """The N=1 bit-for-bit anchor: no floating-point drift allowed."""
        rate = 37.12345678901234
        m = ConstantDemandModel(
            origins=(GeoOrigin("solo", 1.0, 0.0, "na"),),
            mean_total_rate_per_s=rate,
        )
        assert float(m.rates(0.0)[0]) == rate  # exact


class TestValidationAndFactory:
    def test_empty_origins_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ConstantDemandModel(origins=(), mean_total_rate_per_s=1.0)

    def test_duplicate_origins_rejected(self):
        o = GeoOrigin("x", 1.0, 0.0, "na")
        with pytest.raises(ValueError, match="duplicate"):
            ConstantDemandModel(origins=(o, o), mean_total_rate_per_s=1.0)

    def test_bad_swing_rejected(self):
        with pytest.raises(ValueError, match="swing"):
            DiurnalDemandModel(
                origins=default_origins(), mean_total_rate_per_s=1.0,
                day_night_swing=1.0,
            )

    def test_unknown_origin_rate_query(self):
        m = ConstantDemandModel(
            origins=default_origins(), mean_total_rate_per_s=MEAN
        )
        with pytest.raises(KeyError, match="valid"):
            m.rate("mars", 0.0)

    def test_factory_kinds(self):
        assert isinstance(default_demand(10.0, "constant"), ConstantDemandModel)
        assert isinstance(default_demand(10.0, "diurnal"), DiurnalDemandModel)
        with pytest.raises(ValueError, match="kind"):
            default_demand(10.0, "chaotic")
