"""The vectorized day curve equals the original per-origin loop, bit for bit.

``rate_matrix`` broadcasts the day curve over times x origins.  The
oracle below is the scalar form it replaced: one ``_shape`` call per
origin per time, multiplying weekend damping and burst factors in turn.
Every public read of a demand model (``rates``, ``total_rate``,
``total_rates``) must return exactly the oracle's floats, including at
burst edges and at the local midnights where weekends begin and end.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.demand.diurnal import (
    WEEKEND_DAYS,
    BurstEvent,
    ConstantDemandModel,
    DiurnalDemandModel,
)
from repro.demand.origins import GeoOrigin, default_origins, normalized_weights


def _burst_factor(burst, origin_name, t_h):
    if burst.origin is not None and burst.origin != origin_name:
        return 1.0
    if burst.start_h <= t_h < burst.start_h + burst.duration_h:
        return burst.magnitude
    return 1.0


def oracle_shape(model, origin, t_h):
    """One origin's day-curve multiplier at ``t_h``, scalar arithmetic."""
    local = origin.local_hour(t_h)
    shape = 1.0 + model.day_night_swing * np.cos(
        2.0 * np.pi * (local - model.peak_local_h) / 24.0
    )
    local_day = int(np.floor((t_h + origin.utc_offset_h) / 24.0)) % 7
    if local_day in WEEKEND_DAYS:
        shape *= 1.0 - model.weekend_damping
    for burst in model.bursts:
        shape *= _burst_factor(burst, origin.name, t_h)
    return float(shape)


def oracle_rates(model, t_h):
    weights = normalized_weights(model.origins)
    if isinstance(model, ConstantDemandModel):
        return model.mean_total_rate_per_s * weights
    shapes = np.array([oracle_shape(model, o, t_h) for o in model.origins])
    return model.mean_total_rate_per_s * weights * shapes


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def edge_times(model):
    """Burst edges and local midnights, each with its two neighbours."""
    edges = []
    for burst in getattr(model, "bursts", ()):
        edges += [burst.start_h, burst.start_h + burst.duration_h]
    for origin in model.origins:
        edges += [day * 24.0 - origin.utc_offset_h for day in range(-1, 16)]
    out = []
    for t in edges:
        out += [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
    return out


@st.composite
def diurnal_models(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    origins = tuple(
        GeoOrigin(
            f"origin-{i}",
            draw(st.floats(min_value=0.05, max_value=5.0)),
            draw(st.floats(min_value=-12.0, max_value=14.0)),
            "na",
        )
        for i in range(n)
    )
    names = [None] + [o.name for o in origins]
    bursts = tuple(
        BurstEvent(
            start_h=draw(st.floats(min_value=-24.0, max_value=300.0)),
            duration_h=draw(st.floats(min_value=0.01, max_value=48.0)),
            magnitude=draw(st.floats(min_value=0.1, max_value=4.0)),
            origin=draw(st.sampled_from(names)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    return DiurnalDemandModel(
        origins=origins,
        mean_total_rate_per_s=draw(st.floats(min_value=0.1, max_value=1000.0)),
        day_night_swing=draw(st.floats(min_value=0.0, max_value=0.99)),
        peak_local_h=draw(st.floats(min_value=0.0, max_value=24.0)),
        weekend_damping=draw(st.floats(min_value=0.0, max_value=0.95)),
        bursts=bursts,
    )


@st.composite
def models_and_times(draw):
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        model = ConstantDemandModel(
            origins=default_origins(),
            mean_total_rate_per_s=draw(st.floats(min_value=0.1, max_value=1000.0)),
        )
    else:
        model = draw(diurnal_models())
    free = draw(
        st.lists(st.floats(min_value=-48.0, max_value=400.0), max_size=20)
    )
    times = np.array(edge_times(model) + free)
    # Non-monotone query order: the curve must not depend on call order.
    order = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).permutation(
        times.size
    )
    return model, times[order]


class TestRateMatrixMatchesOracle:
    @given(case=models_and_times())
    @settings(max_examples=80, deadline=None)
    def test_rates_and_totals_bit_for_bit(self, case):
        model, times = case
        totals = model.total_rates(times)
        matrix = model.rate_matrix(times)
        assert matrix.shape == (times.size, model.n_origins)
        for i, t in enumerate(times):
            expected = oracle_rates(model, float(t))
            np.testing.assert_array_equal(bits(model.rates(float(t))), bits(expected))
            np.testing.assert_array_equal(bits(matrix[i]), bits(expected))
            total = float(expected.sum())
            assert bits(model.total_rate(float(t))) == bits(total)
            assert bits(totals[i]) == bits(total)


class TestRateMatrixContract:
    def test_rates_is_fresh_and_writable(self):
        model = DiurnalDemandModel(origins=default_origins(), mean_total_rate_per_s=9.0)
        first = model.rates(3.0)
        first[:] = -1.0
        assert (model.rates(3.0) > 0.0).all()

    def test_constant_rates_are_fresh_and_writable(self):
        model = ConstantDemandModel(origins=default_origins(), mean_total_rate_per_s=9.0)
        first = model.rates(3.0)
        first[:] = -1.0
        np.testing.assert_array_equal(model.rates(3.0), oracle_rates(model, 3.0))

    def test_total_rates_of_no_times_is_empty(self):
        model = DiurnalDemandModel(origins=default_origins(), mean_total_rate_per_s=9.0)
        assert model.total_rates([]).shape == (0,)
        assert model.rate_matrix([]).shape == (0, model.n_origins)


#: A 48-h run at default fidelity: 10-minute epochs, and an 8-h batch
#: deadline planned over 48 slots, 47 of them after the current epoch.
RUN_STEP_S = 600.0
RUN_EPOCHS = 288
RUN_SLOTS = 48


def run_tables(model, start_h=0.0):
    """A run's demand reads: one rate_matrix over every epoch time, and
    every epoch's total_rates over its future mid-slots, stacked here
    into one epoch x slot grid read."""
    times = [start_h + i * RUN_STEP_S / 3600.0 for i in range(RUN_EPOCHS)]
    offsets = (np.arange(RUN_SLOTS) + 0.5) * (RUN_STEP_S / 3600.0)
    grid = np.add.outer(np.array(times), offsets[1:])
    totals = model.total_rates(grid.ravel()).reshape(grid.shape)
    return times, offsets[1:], model.rate_matrix(times), totals


def run_scale_models():
    origins = default_origins()
    step_h = RUN_STEP_S / 3600.0
    bursts = (
        # Edges on an epoch time, on a mid-slot time and between both.
        BurstEvent(start_h=10.0, duration_h=5.0, magnitude=2.5),
        BurstEvent(
            start_h=20.0 + 0.5 * step_h, duration_h=7 * step_h,
            magnitude=0.4, origin=origins[1].name,
        ),
        BurstEvent(start_h=31.3, duration_h=0.01, magnitude=3.0,
                   origin=origins[0].name),
    )
    return [
        DiurnalDemandModel(origins=origins, mean_total_rate_per_s=37.5),
        DiurnalDemandModel(
            origins=origins, mean_total_rate_per_s=1234.5,
            day_night_swing=0.8, weekend_damping=0.6, bursts=bursts,
        ),
        ConstantDemandModel(origins=origins, mean_total_rate_per_s=37.5),
    ]


class TestRunScaleTables:
    """Batched = scalar at run scale: numpy's long-array loops must
    return each row's floats exactly as a one-time read."""

    # 0 h is the run's own grid; 100 h crosses every origin's local
    # Saturday midnight, where the weekend damping begins.
    @pytest.mark.parametrize("start_h", [0.0, 100.0])
    @pytest.mark.parametrize("model_index", range(3))
    def test_rows_equal_per_time_reads(self, model_index, start_h):
        model = run_scale_models()[model_index]
        times, offsets, matrix, totals = run_tables(model, start_h)
        assert matrix.shape == (RUN_EPOCHS, model.n_origins)
        assert totals.shape == (RUN_EPOCHS, RUN_SLOTS - 1)
        for i, t_h in enumerate(times):
            np.testing.assert_array_equal(bits(matrix[i]), bits(model.rates(t_h)))
            np.testing.assert_array_equal(
                bits(totals[i]), bits(model.total_rates(t_h + offsets))
            )
            scalar = [model.total_rate(float(t)) for t in t_h + offsets]
            np.testing.assert_array_equal(bits(totals[i]), bits(scalar))

    def test_weekend_edges_fall_inside_the_late_grid(self):
        model = run_scale_models()[1]
        times, offsets, _, totals = run_tables(model, 100.0)
        local_days = {
            int(np.floor((t + o.utc_offset_h) / 24.0)) % 7
            for t in (times[0], times[-1] + offsets[-1])
            for o in model.origins
        }
        assert local_days & set(WEEKEND_DAYS)
        assert local_days - set(WEEKEND_DAYS)
