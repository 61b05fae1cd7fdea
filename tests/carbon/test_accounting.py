"""Energy-to-carbon accounting arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.carbon.accounting import DEFAULT_PUE, carbon_grams, joules_to_kwh


class TestConversions:
    def test_joules_to_kwh(self):
        assert joules_to_kwh(3.6e6) == 1.0

    def test_carbon_of_one_kwh(self):
        # 1 kWh at 200 g/kWh with PUE 1.5 -> 300 g.
        assert carbon_grams(3.6e6, 200.0) == pytest.approx(300.0)

    def test_pue_one_is_it_energy_only(self):
        assert carbon_grams(3.6e6, 200.0, pue=1.0) == pytest.approx(200.0)

    def test_zero_energy_zero_carbon(self):
        assert carbon_grams(0.0, 100.0) == 0.0

    @given(
        e=st.floats(min_value=0, max_value=1e12),
        ci=st.floats(min_value=1, max_value=1000),
    )
    def test_linearity_in_energy_and_intensity(self, e, ci):
        assert carbon_grams(e, ci) == pytest.approx(
            joules_to_kwh(e) * DEFAULT_PUE * ci
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            carbon_grams(-1.0, 100.0)
        with pytest.raises(ValueError):
            carbon_grams(1.0, 0.0)
        with pytest.raises(ValueError):
            carbon_grams(1.0, 100.0, pue=0.9)
