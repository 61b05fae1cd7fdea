"""Energy-to-carbon accounting (the carbontracker substitute).

The paper measures node energy with a modified carbontracker and converts it
to emissions as ``Carbon = Energy x Carbon Intensity`` (Sec. 2), scaled by a
datacenter PUE of 1.5.  This module implements the same arithmetic on the
simulated power model's output.
"""

from __future__ import annotations

__all__ = ["DEFAULT_PUE", "joules_to_kwh", "carbon_grams"]

#: Paper's assumed power-usage-effectiveness (Uptime Institute survey value).
DEFAULT_PUE = 1.5

_JOULES_PER_KWH = 3.6e6


def joules_to_kwh(energy_j: float) -> float:
    """Convert joules to kilowatt-hours."""
    return energy_j / _JOULES_PER_KWH


def carbon_grams(
    energy_j: float, carbon_intensity: float, pue: float = DEFAULT_PUE
) -> float:
    """Operational carbon of ``energy_j`` joules of IT energy, in gCO2.

    ``carbon_intensity`` is in gCO2/kWh; the PUE multiplies IT energy into
    facility energy (cooling, distribution losses).
    """
    if energy_j < 0:
        raise ValueError(f"energy must be non-negative, got {energy_j}")
    if carbon_intensity <= 0:
        raise ValueError(
            f"carbon intensity must be positive, got {carbon_intensity}"
        )
    if pue < 1.0:
        raise ValueError(f"PUE cannot be below 1.0, got {pue}")
    return joules_to_kwh(energy_j) * pue * carbon_intensity
