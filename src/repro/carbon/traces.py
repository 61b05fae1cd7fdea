"""The three 48-hour evaluation traces of the paper (Fig. 8).

The paper evaluates over a 48-hour span of the US CISO March trace (all of
Sec. 5.2), then repeats with US CISO September and UK ESO March for
geographic/seasonal robustness (Fig. 16).  Real grid data is unavailable
offline, so these are generated from the calibrated grid profiles in
:mod:`repro.carbon.generator` with *fixed seeds* — every run of the
reproduction sees byte-identical traces, which is what "embedded" means
here.

Trace shape checks against Fig. 8 live in ``tests/carbon/test_traces.py``
(range, diurnal trough/peak placement, volatility ordering ESO > CISO).
"""

from __future__ import annotations

from functools import lru_cache

from repro.carbon.generator import (
    CISO_MARCH,
    CISO_SEPTEMBER,
    ESO_MARCH,
    generate_trace,
)
from repro.carbon.intensity import CarbonIntensityTrace

__all__ = [
    "ciso_march_48h",
    "ciso_september_48h",
    "eso_march_48h",
    "evaluation_traces",
    "EVALUATION_SPAN_HOURS",
]

#: The paper's evaluation window: "we set the trace span to be 48 hours".
EVALUATION_SPAN_HOURS = 48.0

_SEEDS = {"ciso-march": 20210301, "ciso-september": 20210901, "eso-march": 20210315}


@lru_cache(maxsize=None)
def ciso_march_48h() -> CarbonIntensityTrace:
    """US CISO (California), March — the trace used throughout Sec. 5.2."""
    return generate_trace(CISO_MARCH, days=2.0, step_h=1.0, rng=_SEEDS["ciso-march"])


@lru_cache(maxsize=None)
def ciso_september_48h() -> CarbonIntensityTrace:
    """US CISO (California), September — seasonal robustness (Fig. 16)."""
    return generate_trace(
        CISO_SEPTEMBER, days=2.0, step_h=1.0, rng=_SEEDS["ciso-september"]
    )


@lru_cache(maxsize=None)
def eso_march_48h() -> CarbonIntensityTrace:
    """UK ESO, March — geographic robustness (Fig. 16)."""
    return generate_trace(ESO_MARCH, days=2.0, step_h=1.0, rng=_SEEDS["eso-march"])


def evaluation_traces() -> dict[str, CarbonIntensityTrace]:
    """All three evaluation traces keyed by their short names."""
    return {
        "ciso-march": ciso_march_48h(),
        "ciso-september": ciso_september_48h(),
        "eso-march": eso_march_48h(),
    }

