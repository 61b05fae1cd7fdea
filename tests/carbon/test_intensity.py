"""Carbon-intensity trace queries and interpolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.intensity import CarbonIntensityTrace
from repro.carbon.traces import ciso_march_48h


def make_trace(interpolation="linear"):
    return CarbonIntensityTrace(
        times_h=np.array([0.0, 1.0, 2.0, 3.0]),
        values=np.array([100.0, 200.0, 150.0, 300.0]),
        name="t",
        interpolation=interpolation,
    )


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def clamp_then_query(tr, t_h):
    """The query as first written: clamp to the span, then interpolate."""
    t = np.clip(np.asarray(t_h, dtype=np.float64), tr.start_h, tr.end_h)
    if tr.interpolation == "linear":
        return np.interp(t, tr.times_h, tr.values)
    idx = np.searchsorted(tr.times_h, t, side="right") - 1
    return tr.values[np.clip(idx, 0, tr.times_h.size - 1)]


#: Inside, on and outside each trace's span, signed zeros and NaN.
QUERY_TIMES = st.one_of(
    st.floats(),
    st.floats(min_value=-1.0, max_value=50.0),
    st.sampled_from(
        (0.0, -0.0, 0.5, 1.0, 3.0, 47.5, 48.0, math.nan, math.inf, -math.inf)
    ),
)


class TestQueries:
    def test_at_sample_points(self):
        tr = make_trace()
        assert tr.at(1.0) == 200.0
        assert tr.at(3.0) == 300.0

    def test_linear_interpolation(self):
        assert make_trace().at(0.5) == pytest.approx(150.0)

    def test_step_interpolation_holds_previous(self):
        tr = make_trace("step")
        assert tr.at(0.99) == 100.0
        assert tr.at(1.0) == 200.0

    def test_clamped_outside_span(self):
        tr = make_trace()
        assert tr.at(-5.0) == 100.0
        assert tr.at(99.0) == 300.0

    def test_vectorized_query(self):
        tr = make_trace()
        out = tr.at(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(out, [100.0, 150.0, 200.0])

    def test_scalar_query_returns_float(self):
        assert isinstance(make_trace().at(1.5), float)

    @pytest.mark.parametrize("interpolation", ["linear", "step"])
    @given(ts=st.lists(QUERY_TIMES, min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_query_is_clamp_then_interpolate(self, interpolation, ts):
        """Float and array queries answer bit for bit what clamping first
        does, inside, on and outside the span, at ±0.0, ±inf and NaN."""
        shifted = CarbonIntensityTrace(
            times_h=np.array([0.5, 2.0, 7.25]),
            values=np.array([80.0, 310.0, 120.0]),
            interpolation=interpolation,
        )
        real = ciso_march_48h()
        if interpolation == "step":
            real = CarbonIntensityTrace(
                real.times_h, real.values, interpolation="step"
            )
        for tr in (make_trace(interpolation), shifted, real):
            for t in ts:
                got = tr.at(t)
                assert isinstance(got, float)
                assert _bits(got) == _bits(clamp_then_query(tr, t))
            arr = np.array(ts)
            assert _bits(tr.at(arr)) == _bits(clamp_then_query(tr, arr))

    def test_span_and_extrema(self):
        tr = make_trace()
        assert tr.span_h == 3.0
        assert tr.min() == 100.0
        assert tr.max() == 300.0

    def test_mean_is_time_weighted(self):
        tr = CarbonIntensityTrace(
            times_h=np.array([0.0, 1.0, 3.0]),
            values=np.array([100.0, 100.0, 300.0]),
        )
        # Trapezoid: 1h at 100 + 2h averaging 200 -> (100 + 400)/3.
        assert tr.mean() == pytest.approx(500.0 / 3.0)

    def test_len(self):
        assert len(make_trace()) == 4


class TestWindow:
    def test_window_preserves_values(self):
        tr = make_trace()
        w = tr.window(0.5, 2.5)
        assert w.span_h == pytest.approx(2.0)
        assert w.at(1.0) == pytest.approx(200.0)
        assert w.at(0.5) == pytest.approx(150.0)

    def test_window_out_of_range_raises(self):
        with pytest.raises(ValueError):
            make_trace().window(-1.0, 2.0)
        with pytest.raises(ValueError):
            make_trace().window(2.0, 1.0)


class TestValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0, 1.0]), values=np.array([100.0])
            )

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0]), values=np.array([100.0])
            )

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0, 0.0]), values=np.array([1.0, 2.0])
            )

    def test_nonpositive_intensity_rejected(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0, 1.0]), values=np.array([10.0, 0.0])
            )

    def test_bad_interpolation_rejected(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0, 1.0]),
                values=np.array([1.0, 2.0]),
                interpolation="cubic",
            )

    def test_arrays_readonly(self):
        tr = make_trace()
        with pytest.raises(ValueError):
            tr.values[0] = 5.0
