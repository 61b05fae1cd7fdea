"""Nonstationary per-origin demand: users sleep, weekends dip, news bursts.

The demand side of the geo-diurnal story.  A :class:`DiurnalDemandModel`
produces ``rate(origin, t_h)`` — a per-origin arrival rate that follows a
sinusoidal day curve in the *origin's local time* (peak mid-afternoon,
trough before dawn), damps on weekends, and can carry superimposed burst
events (a product launch, a viral moment).  The curve is normalized so a
weekday's time-average equals the configured mean rate, which keeps
demand-model runs comparable to the constant-rate seed methodology.

:class:`ConstantDemandModel` is the degenerate member of the family: every
origin emits its weight share of the mean at every instant.  Driving the
fleet with it reproduces the constant-rate path bit-for-bit (asserted in
the fleet tests), which is the regression anchor for the whole subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.demand.origins import GeoOrigin, default_origins, normalized_weights

__all__ = [
    "BurstEvent",
    "DemandModel",
    "ConstantDemandModel",
    "DiurnalDemandModel",
    "default_demand",
    "WEEKEND_DAYS",
]

#: Day-of-run indices treated as the weekend (runs start on a Monday).
WEEKEND_DAYS = (5, 6)


@dataclass(frozen=True)
class BurstEvent:
    """A transient demand surge at one origin (or fleet-wide).

    ``magnitude`` multiplies the origin's rate during
    ``[start_h, start_h + duration_h)``: 2.0 doubles it, 0.5 halves it
    (a regional outage is just a burst below 1).
    """

    start_h: float
    duration_h: float
    magnitude: float
    origin: str | None = None  # None: applies to every origin

    def __post_init__(self) -> None:
        if self.duration_h <= 0:
            raise ValueError(f"burst duration must be positive, got {self.duration_h}")
        if self.magnitude <= 0:
            raise ValueError(f"burst magnitude must be positive, got {self.magnitude}")


class DemandModel:
    """Per-origin arrival rates over time; see the module docstring.

    Subclasses implement :meth:`rate_matrix`; everything else derives from
    it, so each model states its day curve exactly once.
    """

    origins: tuple[GeoOrigin, ...]
    mean_total_rate_per_s: float

    @property
    def n_origins(self) -> int:
        return len(self.origins)

    @property
    def origin_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.origins)

    @cached_property
    def _origin_means(self) -> np.ndarray:
        """``mean_total_rate_per_s`` times the normalized weights, per
        origin — the scale every day curve multiplies (computed once)."""
        means = self.mean_total_rate_per_s * normalized_weights(self.origins)
        means.setflags(write=False)
        return means

    def rate_matrix(self, times_h) -> np.ndarray:
        """Per-origin arrival rates (req/s) at each fleet time in ``times_h``.

        Returns a fresh ``(n_times, n_origins)`` array: one row per time.
        """
        raise NotImplementedError

    def rates(self, t_h: float) -> np.ndarray:
        """Per-origin arrival rates (req/s) at fleet time ``t_h``."""
        return self.rate_matrix([t_h])[0]

    def rate(self, origin: str, t_h: float) -> float:
        """One origin's arrival rate (req/s) at fleet time ``t_h``."""
        try:
            idx = self.origin_names.index(origin)
        except ValueError:
            valid = ", ".join(self.origin_names)
            raise KeyError(f"unknown origin {origin!r}; valid: {valid}") from None
        return float(self.rates(t_h)[idx])

    def total_rate(self, t_h: float) -> float:
        """Global arrival rate (req/s) at fleet time ``t_h``."""
        return float(self.rates(t_h).sum())

    def total_rates(self, times_h) -> np.ndarray:
        """Global arrival rate (req/s) at each fleet time in ``times_h``.

        One :meth:`rate_matrix` call for the whole horizon, equal bit for
        bit to :meth:`total_rate` at each time:

        >>> model = default_demand(30.0)
        >>> times = [0.0, 6.0, 12.0]
        >>> model.total_rates(times).tolist() == [model.total_rate(t) for t in times]
        True
        """
        return self.rate_matrix(times_h).sum(axis=1)


@dataclass(frozen=True)
class ConstantDemandModel(DemandModel):
    """Time-invariant demand: each origin emits its weight share, always.

    With a single origin the emitted rate is *exactly*
    ``mean_total_rate_per_s`` (no floating-point drift), which is what lets
    a constant-demand N=1 fleet reproduce the seed service bit-for-bit.
    """

    origins: tuple[GeoOrigin, ...]
    mean_total_rate_per_s: float

    def __post_init__(self) -> None:
        _validate(self.origins, self.mean_total_rate_per_s)

    def rate_matrix(self, times_h) -> np.ndarray:
        n_times = np.asarray(times_h, dtype=np.float64).size
        return np.full((n_times, self.n_origins), self._origin_means)


@dataclass(frozen=True)
class DiurnalDemandModel(DemandModel):
    """Sinusoidal day curve per origin, weekend damping, optional bursts.

    The weekday shape in an origin's local time is
    ``1 + swing * cos(2*pi*(local - peak_local_h)/24)`` — time-average
    exactly 1, maximum at ``peak_local_h``, minimum twelve hours later.
    ``day_night_swing`` in [0, 1) keeps every rate strictly positive (a
    zero rate has no defined service measurement).

    Parameters
    ----------
    origins:
        The demand world; weights are normalized across it.
    mean_total_rate_per_s:
        Weekday time-average of the *global* rate (all origins summed).
    day_night_swing:
        Peak-to-mean amplitude of the day curve (0 = constant).
    peak_local_h:
        Local hour of maximum demand (mid-afternoon by default).
    weekend_damping:
        Fractional rate reduction on weekend days (0 = none).
    bursts:
        Superimposed :class:`BurstEvent` multipliers.
    """

    origins: tuple[GeoOrigin, ...]
    mean_total_rate_per_s: float
    day_night_swing: float = 0.55
    peak_local_h: float = 14.5
    weekend_damping: float = 0.25
    bursts: tuple[BurstEvent, ...] = ()

    def __post_init__(self) -> None:
        _validate(self.origins, self.mean_total_rate_per_s)
        if not 0.0 <= self.day_night_swing < 1.0:
            raise ValueError(
                f"day/night swing must be in [0, 1), got {self.day_night_swing}"
            )
        if not 0.0 <= self.weekend_damping < 1.0:
            raise ValueError(
                f"weekend damping must be in [0, 1), got {self.weekend_damping}"
            )

    def rate_matrix(self, times_h) -> np.ndarray:
        t = np.asarray(times_h, dtype=np.float64).reshape(-1, 1)
        unwrapped = t + self._utc_offsets  # local hours since the run start
        shape = 1.0 + self.day_night_swing * np.cos(
            2.0 * np.pi * (unwrapped % 24.0 - self.peak_local_h) / 24.0
        )
        # The weekend is a *local* calendar fact: day index in local time.
        local_day = np.floor(unwrapped / 24.0).astype(np.intp) % 7
        shape = shape * self._day_factors[local_day]
        for burst in self.bursts:
            active = (burst.start_h <= t) & (t < burst.start_h + burst.duration_h)
            if burst.origin is not None:
                active = active & (np.array(self.origin_names) == burst.origin)
            shape = np.where(active, shape * burst.magnitude, shape)
        return self._origin_means * shape

    @cached_property
    def _utc_offsets(self) -> np.ndarray:
        return np.array([o.utc_offset_h for o in self.origins])

    @cached_property
    def _day_factors(self) -> np.ndarray:
        """Shape multiplier per local day of the week: exactly 1.0 on
        weekdays, so a weekday shape passes through bit for bit."""
        damped = 1.0 - self.weekend_damping
        return np.array([damped if d in WEEKEND_DAYS else 1.0 for d in range(7)])


def _validate(origins: tuple[GeoOrigin, ...], mean_rate: float) -> None:
    if not origins:
        raise ValueError("a demand model needs at least one origin")
    names = [o.name for o in origins]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate origin names: {names}")
    if mean_rate <= 0:
        raise ValueError(f"mean rate must be positive, got {mean_rate}")


def default_demand(
    mean_total_rate_per_s: float, kind: str = "diurnal", **kwargs
) -> DemandModel:
    """Build a demand model over the default origins by kind name.

    >>> model = default_demand(30.0, kind="diurnal")
    >>> model.origin_names
    ('asia-pacific', 'europe', 'north-america')
    >>> rates = model.rates(12.0)          # per-origin req/s at t = 12 h
    >>> bool(float(rates.sum()) == model.total_rate(12.0) > 0.0)
    True
    >>> default_demand(30.0, kind="constant").total_rate(5.0)
    30.0
    """
    origins = kwargs.pop("origins", None) or default_origins()
    if kind == "constant":
        return ConstantDemandModel(
            origins=origins, mean_total_rate_per_s=mean_total_rate_per_s
        )
    if kind == "diurnal":
        return DiurnalDemandModel(
            origins=origins,
            mean_total_rate_per_s=mean_total_rate_per_s,
            **kwargs,
        )
    raise ValueError(f"unknown demand kind {kind!r}; valid: constant, diurnal")
