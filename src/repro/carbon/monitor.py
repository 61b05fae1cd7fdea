"""Carbon-intensity change detection (the Clover controller's trigger).

The paper re-invokes optimization "whenever Clover detects more than a 5%
change in the carbon intensity compared to the previous optimization run".
:class:`CarbonIntensityMonitor` implements exactly that stateful rule: the
reference point is the intensity *at the last optimization*, not the last
observation — small drifts accumulate until they cross the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.carbon.intensity import CarbonIntensityTrace

__all__ = ["CarbonIntensityMonitor", "DEFAULT_CHANGE_THRESHOLD"]

#: The paper's re-optimization trigger: a 5% relative intensity change.
DEFAULT_CHANGE_THRESHOLD = 0.05


@dataclass
class CarbonIntensityMonitor:
    """Watches a trace and reports when re-optimization should trigger."""

    trace: CarbonIntensityTrace
    threshold: float = DEFAULT_CHANGE_THRESHOLD
    reference_ci: float | None = field(default=None, init=False)
    #: The last ``(trace, t_h, ci)`` read: one epoch observes, tests the
    #: trigger and marks the reference at the same ``t_h``, so the trace
    #: lookup runs once per epoch.
    _last: tuple[CarbonIntensityTrace, float, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")

    def observe(self, t_h: float) -> float:
        """Read the current carbon intensity at trace time ``t_h`` (hours)."""
        last = self._last
        if last is not None and last[0] is self.trace and last[1] == t_h:
            return last[2]
        ci = float(self.trace.at(t_h))
        self._last = (self.trace, t_h, ci)
        return ci

    def should_trigger(self, t_h: float) -> bool:
        """Whether intensity moved > threshold since the last optimization.

        The very first observation always triggers (the service must be
        configured before it can run).
        """
        ci = self.observe(t_h)
        if self.reference_ci is None:
            return True
        return abs(ci - self.reference_ci) / self.reference_ci > self.threshold

    def mark_optimized(self, t_h: float) -> float:
        """Record that an optimization ran at ``t_h``; returns the new reference."""
        self.reference_ci = self.observe(t_h)
        return self.reference_ci

    def reset(self) -> None:
        """Forget the reference (e.g. when the SLA or lambda parameter changes)."""
        self.reference_ci = None

    def trigger_times(self, times_h: np.ndarray) -> np.ndarray:
        """Offline preview: which of ``times_h`` would trigger, in sequence.

        Simulates the stateful rule over the given observation times without
        touching this monitor's live state.  Useful for sizing experiments
        (how many optimizations will a trace cause?).
        """
        times = np.asarray(times_h, dtype=np.float64)
        triggered = np.zeros(times.size, dtype=bool)
        ref: float | None = None
        for i, t in enumerate(times):
            ci = float(self.trace.at(t))
            if ref is None or abs(ci - ref) / ref > self.threshold:
                triggered[i] = True
                ref = ci
        return triggered
