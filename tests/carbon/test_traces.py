"""The embedded 48-hour evaluation traces (paper Fig. 8)."""

import numpy as np

from repro.carbon.traces import (
    EVALUATION_SPAN_HOURS,
    ciso_march_48h,
    ciso_september_48h,
    eso_march_48h,
    evaluation_traces,
)


class TestEvaluationTraces:
    def test_all_span_48_hours(self):
        for tr in evaluation_traces().values():
            assert tr.span_h == EVALUATION_SPAN_HOURS

    def test_traces_are_cached_and_stable(self):
        a, b = ciso_march_48h(), ciso_march_48h()
        assert a is b

    def test_ciso_march_range_matches_fig8(self):
        """Fig. 8's CISO March axis runs ~100-350 gCO2/kWh."""
        tr = ciso_march_48h()
        assert 60.0 <= tr.min() <= 160.0
        assert 280.0 <= tr.max() <= 400.0

    def test_ciso_september_range_matches_fig8(self):
        tr = ciso_september_48h()
        assert 60.0 <= tr.min() <= 170.0
        assert 240.0 <= tr.max() <= 360.0

    def test_eso_march_range_matches_fig8(self):
        """Fig. 8's ESO March axis runs ~50-300 gCO2/kWh."""
        tr = eso_march_48h()
        assert tr.min() <= 120.0
        assert 220.0 <= tr.max() <= 380.0

    def test_enough_variation_to_trigger_reoptimization(self):
        """Every trace must cross the 5% change threshold many times, or
        the carbon-aware schemes would never re-invoke."""
        for tr in evaluation_traces().values():
            rel = np.abs(np.diff(tr.values)) / tr.values[:-1]
            assert (rel > 0.05).sum() >= 10

    def test_lookup_by_name(self):
        traces = evaluation_traces()
        assert traces["ciso-march"] is ciso_march_48h()
        assert traces["ciso-september"] is ciso_september_48h()
        assert traces["eso-march"] is eso_march_48h()

    def test_traces_are_distinct(self):
        vals = [tuple(tr.values) for tr in evaluation_traces().values()]
        assert len(set(vals)) == 3
