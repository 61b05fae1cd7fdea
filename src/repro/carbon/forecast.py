"""Carbon-intensity forecasting (a paper-future-work building block).

Clover itself is purely reactive — it re-optimizes when the *observed*
intensity moves 5%.  Several follow-up systems (and the paper's related
work on carbon-aware batch scheduling) act on short-horizon *forecasts*
instead.  This module provides two reference forecasters over
:class:`~repro.carbon.intensity.CarbonIntensityTrace` histories:

* :class:`PersistenceForecaster` — "the next hours look like right now";
  the baseline every forecasting paper compares against,
* :class:`DiurnalForecaster` — hour-of-day climatology blended with a
  persistence anchor; grid intensity is strongly diurnal (solar), so this
  captures most of the predictable structure.

Accuracy is quantified with mean absolute error over a horizon; tests pin
that the diurnal forecaster beats persistence on solar-shaped grids at
multi-hour horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.carbon.intensity import CarbonIntensityTrace

__all__ = [
    "PersistenceForecaster",
    "DiurnalForecaster",
    "FORECASTER_NAMES",
    "make_forecaster",
    "forecast_mae",
]


@dataclass(frozen=True)
class PersistenceForecaster:
    """Predicts the current intensity for every future horizon."""

    trace: CarbonIntensityTrace

    def predict(self, t_h: float, horizon_h: float) -> float:
        """Forecast intensity at ``t_h + horizon_h`` given data up to ``t_h``."""
        if horizon_h < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon_h}")
        return float(self.trace.at(t_h))

    def predict_many(self, t_h: float, horizons_h) -> np.ndarray:
        """Vector form of :meth:`predict` (persistence: one value fits all)."""
        horizons = np.asarray(horizons_h, dtype=np.float64)
        if np.any(horizons < 0):
            raise ValueError("horizons must be non-negative")
        return np.full(horizons.shape, float(self.trace.at(t_h)))


@dataclass(frozen=True)
class DiurnalForecaster:
    """Hour-of-day climatology anchored to the current observation.

    The forecast is ``climatology(target hour) + decay * (now - climatology
    (current hour))``: at short horizons the current anomaly dominates
    (persistence-like); at long horizons the prediction relaxes to the
    historical mean profile.

    The climatology depends on the query time only through the *history
    length* — how many trace samples lie at or before it — so the
    forecaster keeps the last profile it built, keyed on that count.
    Queries between two samples (every epoch of an hourly trace) reuse
    it; a new sample updates the hour bin it falls in.  The cache is
    per instance and left out of equality and ``repr``.

    Parameters
    ----------
    trace:
        History the climatology is built from (only samples at or before
        the query time are used — no lookahead).
    anomaly_halflife_h:
        How fast the current anomaly decays toward climatology.

    >>> from repro.carbon.generator import CISO_MARCH, generate_trace
    >>> forecaster = DiurnalForecaster(generate_trace(CISO_MARCH, days=3.0, rng=7))
    >>> forecasts = forecaster.predict_many(30.0, [0.0, 6.0, 12.0])
    >>> forecasts.shape
    (3,)
    >>> bool(abs(forecasts[0] - forecaster.trace.at(30.0)) < 1e-9)  # 0 h: now
    True
    >>> bool(forecasts[1] == forecaster.predict(30.0, 6.0))
    True
    """

    trace: CarbonIntensityTrace
    anomaly_halflife_h: float = 6.0
    #: ``(history length, read-only profile, empty hour bins)`` of the
    #: last climatology built.
    _profile_cache: tuple[int, np.ndarray, tuple[int, ...]] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.anomaly_halflife_h <= 0:
            raise ValueError(
                f"halflife must be positive, got {self.anomaly_halflife_h}"
            )

    def _climatology(self, t_h: float) -> np.ndarray | None:
        """Mean intensity per hour-of-day over history up to ``t_h``.

        Returns ``None`` when only a single sample precedes the query —
        the short-history case where :meth:`predict` falls back to
        persistence.  With *no* samples at all there is nothing to anchor
        even persistence to, and the query is an error.  The trace's
        times are strictly increasing, so the history is the prefix of
        the first ``n`` samples; the returned profile is read-only.

        The profile is built up from the cached one: only the hour bins
        the samples past the cached length fall in are recomputed, each
        with the mean of its samples among the first ``n``, and bins still
        empty take the overall mean.  Every other bin holds the same
        samples as before.  With no cache, or a shorter history, the
        cached length counts as 0 and every bin starts empty.
        """
        n = int(np.searchsorted(self.trace.times_h, t_h, side="right"))
        if n == 0:
            raise ValueError("no history at or before the query time")
        if n < 2:
            return None
        cached = self._profile_cache
        if cached is not None and cached[0] == n:
            return cached[1]
        if cached is None or cached[0] > n:
            cached = (0, np.empty(24), tuple(range(24)))
        seen, profile, empty = cached
        profile = profile.copy()
        hours = self.trace.times_h[:n] % 24.0
        values = self.trace.values[:n]
        # Bin h holds the samples with h <= hour < h + 1; an hour that
        # rounds to 24.0 lands in no bin.
        bins = {int(hour) for hour in hours[seen:].tolist() if 0.0 <= hour < 24.0}
        empty = tuple(h for h in empty if h not in bins)
        for h in bins:
            profile[h] = values[(hours >= h) & (hours < h + 1)].mean()
        if empty:
            profile[list(empty)] = values.mean()
        profile.setflags(write=False)
        object.__setattr__(self, "_profile_cache", (n, profile, empty))
        return profile

    def predict(self, t_h: float, horizon_h: float) -> float:
        """Forecast intensity at ``t_h + horizon_h`` using history <= t_h.

        With fewer than two historical samples (the run's first epoch)
        there is no climatology to relax toward, so the prediction falls
        back to persistence — the honest degenerate forecast.
        """
        if horizon_h < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon_h}")
        return float(self.predict_many(t_h, [horizon_h])[0])

    def predict_many(self, t_h: float, horizons_h) -> np.ndarray:
        """Forecasts for several horizons sharing one climatology build.

        The hour-of-day profile depends only on ``t_h``'s history
        length, so a whole lookahead window (the fleet coordinator's
        batch planner samples every slot of its horizon per epoch) costs
        at most one profile construction — none while the cached profile
        still matches.
        """
        horizons = np.asarray(horizons_h, dtype=np.float64)
        if np.any(horizons < 0):
            raise ValueError("horizons must be non-negative")
        profile = self._climatology(t_h)
        now = float(self.trace.at(t_h))
        if profile is None:
            return np.full(horizons.shape, now)
        # ``x % 24.0`` rounds up to 24.0 for tiny negative ``x``; the
        # trailing ``% 24`` maps that hour back to bin 0.
        hod_now = int(t_h % 24.0) % 24
        hod_targets = ((t_h + horizons) % 24.0).astype(int) % 24
        anomaly = now - profile[hod_now]
        decay = 0.5 ** (horizons / self.anomaly_halflife_h)
        return profile[hod_targets] + decay * anomaly


FORECASTER_NAMES = ("persistence", "diurnal")


def make_forecaster(name: str, trace: CarbonIntensityTrace, **kwargs):
    """Factory by forecaster name (``"persistence"``, ``"diurnal"``).

    The hook the fleet coordinator uses to provision one forecaster per
    region for forecast-aware routing.
    """
    classes = {
        "persistence": PersistenceForecaster,
        "diurnal": DiurnalForecaster,
    }
    try:
        cls = classes[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown forecaster {name!r}; valid: {', '.join(FORECASTER_NAMES)}"
        ) from None
    return cls(trace, **kwargs)


def forecast_mae(
    forecaster,
    trace: CarbonIntensityTrace,
    horizon_h: float,
    start_h: float | None = None,
    step_h: float = 1.0,
) -> float:
    """Mean absolute forecast error over the trace at a fixed horizon.

    Evaluates ``forecaster.predict(t, horizon_h)`` against the trace's true
    value at ``t + horizon_h`` for every ``t = start_h + k * step_h`` in
    the evaluation window, both ends included.  ``start_h`` defaults to
    one day in (so climatology has history).
    """
    if step_h <= 0:
        raise ValueError(f"step must be positive, got {step_h}")
    start = 24.0 if start_h is None else start_h
    end = trace.end_h - horizon_h
    if end <= start:
        raise ValueError("trace too short for the requested horizon/window")
    # Index the points instead of accumulating ``t += step_h``: the running
    # sum drifts and can drop the window's last point.
    n_steps = math.floor((end - start) / step_h + 1e-9)
    errors = []
    for k in range(n_steps + 1):
        t = start + k * step_h
        predicted = forecaster.predict(t, horizon_h)
        actual = float(trace.at(t + horizon_h))
        errors.append(abs(predicted - actual))
    return float(np.mean(errors))
