"""Carbon substrate: intensity traces, accounting, and change detection.

Replaces the paper's live grid feeds (CISO/ESO) and carbontracker meter:

* :mod:`repro.carbon.intensity` — the trace abstraction (gCO2/kWh over time),
* :mod:`repro.carbon.generator` — calibrated synthetic grid profiles,
* :mod:`repro.carbon.traces` — the three fixed 48-hour evaluation traces,
* :mod:`repro.carbon.accounting` — energy → carbon arithmetic with PUE,
* :mod:`repro.carbon.monitor` — the 5% change re-optimization trigger,
* :mod:`repro.carbon.forecast` — intensity forecasting building blocks.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "intensity": ("CarbonIntensityTrace",),
    "generator": (
        "GridProfile", "generate_trace", "CISO_MARCH", "CISO_SEPTEMBER",
        "ESO_MARCH",
    ),
    "traces": (
        "ciso_march_48h", "ciso_september_48h", "eso_march_48h",
        "evaluation_traces", "EVALUATION_SPAN_HOURS",
    ),
    "accounting": ("DEFAULT_PUE", "joules_to_kwh", "carbon_grams"),
    "monitor": ("CarbonIntensityMonitor", "DEFAULT_CHANGE_THRESHOLD"),
    "forecast": ("PersistenceForecaster", "DiurnalForecaster", "forecast_mae"),
})
