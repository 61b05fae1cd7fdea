"""The 5% change-detection trigger."""

import numpy as np
import pytest

from repro.carbon.intensity import CarbonIntensityTrace
from repro.carbon.monitor import CarbonIntensityMonitor


def trace_from(values, step=1.0):
    v = np.asarray(values, dtype=float)
    return CarbonIntensityTrace(
        times_h=np.arange(len(v)) * step, values=v, interpolation="step"
    )


class TestTriggerRule:
    def test_first_observation_always_triggers(self):
        m = CarbonIntensityMonitor(trace_from([100, 100]))
        assert m.should_trigger(0.0)

    def test_no_trigger_below_threshold(self):
        m = CarbonIntensityMonitor(trace_from([100, 104, 100]))
        m.mark_optimized(0.0)
        assert not m.should_trigger(1.0)  # +4% < 5%

    def test_trigger_above_threshold(self):
        m = CarbonIntensityMonitor(trace_from([100, 106]))
        m.mark_optimized(0.0)
        assert m.should_trigger(1.0)  # +6% > 5%

    def test_decrease_also_triggers(self):
        m = CarbonIntensityMonitor(trace_from([100, 94]))
        m.mark_optimized(0.0)
        assert m.should_trigger(1.0)

    def test_reference_is_last_optimization_not_last_observation(self):
        """Drift accumulates: +3% then +3% crosses the 5% threshold even
        though no single step does."""
        m = CarbonIntensityMonitor(trace_from([100, 103, 106.1]))
        m.mark_optimized(0.0)
        assert not m.should_trigger(1.0)
        assert m.should_trigger(2.0)

    def test_mark_optimized_resets_reference(self):
        m = CarbonIntensityMonitor(trace_from([100, 106, 106]))
        m.mark_optimized(0.0)
        assert m.should_trigger(1.0)
        m.mark_optimized(1.0)
        assert not m.should_trigger(2.0)

    def test_reset_forgets_reference(self):
        m = CarbonIntensityMonitor(trace_from([100, 100]))
        m.mark_optimized(0.0)
        m.reset()
        assert m.should_trigger(1.0)

    def test_custom_threshold(self):
        m = CarbonIntensityMonitor(trace_from([100, 106]), threshold=0.10)
        m.mark_optimized(0.0)
        assert not m.should_trigger(1.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            CarbonIntensityMonitor(trace_from([100, 100]), threshold=0.0)


class TestOfflinePreview:
    def test_trigger_times_match_stateful_simulation(self):
        values = [100, 103, 108, 108, 90, 91, 130]
        m = CarbonIntensityMonitor(trace_from(values))
        times = np.arange(len(values), dtype=float)
        preview = m.trigger_times(times)

        live = CarbonIntensityMonitor(trace_from(values))
        expected = []
        for t in times:
            fired = live.should_trigger(t)
            expected.append(fired)
            if fired:
                live.mark_optimized(t)
        assert preview.tolist() == expected

    def test_preview_does_not_mutate_state(self):
        m = CarbonIntensityMonitor(trace_from([100, 200]))
        m.trigger_times(np.array([0.0, 1.0]))
        assert m.reference_ci is None


class TestObserveCache:
    def test_repeated_and_new_times_equal_the_trace(self):
        trace = CarbonIntensityTrace(
            times_h=np.arange(6.0),
            values=np.array([100.0, 130.0, 90.0, 90.0, 210.0, 60.0]),
        )
        m = CarbonIntensityMonitor(trace)
        for t in [0.0, 0.0, 0.5, 0.5, 2.25, 0.5, 0.0, 5.0, 7.5, 7.5, -1.0]:
            assert m.observe(t) == float(trace.at(t))

    def test_a_replaced_trace_is_read_afresh(self):
        m = CarbonIntensityMonitor(trace_from([100, 200]))
        assert m.observe(1.0) == 200.0
        m.trace = trace_from([300, 400])
        assert m.observe(1.0) == 400.0

    def test_cache_is_out_of_equality_and_repr(self):
        trace = trace_from([100, 200])
        seen = CarbonIntensityMonitor(trace)
        fresh = CarbonIntensityMonitor(trace)
        seen.observe(1.0)
        assert seen == fresh
        assert repr(seen) == repr(fresh)
