"""Carbon-intensity time series (gCO2/kWh) of a grid operator.

The "greenness" signal Clover reacts to.  A trace holds sampled intensity
values over time (hours) and answers point queries with either step or
linear interpolation — grid operators publish discrete (hourly or 5-minute)
averages, but the controller may query arbitrary times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CarbonIntensityTrace"]


@dataclass(frozen=True)
class CarbonIntensityTrace:
    """A named carbon-intensity series sampled at known times.

    Attributes
    ----------
    times_h:
        Sample times in hours since the trace start, strictly increasing.
    values:
        Carbon intensity in gCO2/kWh at each sample time; positive.
    name:
        Human-readable label (``"US CISO March"``).
    interpolation:
        ``"linear"`` (default; matches how sub-hourly queries behave on a
        slowly-varying grid signal) or ``"step"`` (previous published value
        holds until the next sample).
    """

    times_h: np.ndarray
    values: np.ndarray
    name: str = "trace"
    interpolation: str = "linear"

    def __post_init__(self) -> None:
        times = np.asarray(self.times_h, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if times.ndim != 1 or vals.ndim != 1 or times.shape != vals.shape:
            raise ValueError("times_h and values must be 1-D arrays of equal length")
        if times.size < 2:
            raise ValueError("a trace needs at least two samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times_h must be strictly increasing")
        if np.any(vals <= 0):
            raise ValueError("carbon intensity must be positive everywhere")
        if self.interpolation not in ("linear", "step"):
            raise ValueError(
                f"interpolation must be 'linear' or 'step', got {self.interpolation!r}"
            )
        times.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "times_h", times)
        object.__setattr__(self, "values", vals)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def start_h(self) -> float:
        return float(self.times_h[0])

    @property
    def end_h(self) -> float:
        return float(self.times_h[-1])

    @property
    def span_h(self) -> float:
        """Total covered duration in hours."""
        return self.end_h - self.start_h

    def at(self, t_h: float | np.ndarray) -> float | np.ndarray:
        """Carbon intensity at time(s) ``t_h`` (hours); clamped to the span."""
        if self.interpolation == "linear":
            # np.interp holds values[0]/values[-1] outside the samples.
            out = np.interp(t_h, self.times_h, self.values)
        else:
            t = np.clip(
                np.asarray(t_h, dtype=np.float64), self.start_h, self.end_h
            )
            idx = np.searchsorted(self.times_h, t, side="right") - 1
            idx = np.clip(idx, 0, self.times_h.size - 1)
            out = self.values[idx]
        if np.isscalar(t_h) or np.ndim(t_h) == 0:
            return float(out)
        return out

    def mean(self) -> float:
        """Time-weighted mean intensity over the span (trapezoidal)."""
        return float(
            np.trapezoid(self.values, self.times_h) / self.span_h
        )

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def window(self, start_h: float, end_h: float) -> "CarbonIntensityTrace":
        """Sub-trace covering ``[start_h, end_h]`` (endpoints interpolated in)."""
        if not self.start_h <= start_h < end_h <= self.end_h:
            raise ValueError(
                f"window [{start_h}, {end_h}] outside trace span "
                f"[{self.start_h}, {self.end_h}]"
            )
        inside = (self.times_h > start_h) & (self.times_h < end_h)
        times = np.concatenate(([start_h], self.times_h[inside], [end_h]))
        vals = np.concatenate(
            ([self.at(start_h)], self.values[inside], [self.at(end_h)])
        )
        return CarbonIntensityTrace(
            times_h=times,
            values=vals,
            name=f"{self.name}[{start_h:g}h:{end_h:g}h]",
            interpolation=self.interpolation,
        )

    def __len__(self) -> int:
        return int(self.times_h.size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.span_h:g}h, "
            f"{self.min():.0f}-{self.max():.0f} gCO2/kWh"
        )
