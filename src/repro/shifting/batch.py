"""The deferrable batch workload class and its backlog accounting.

A :class:`BatchJobClass` is the temporal analogue of the demand layer's
origin profiles: a deterministic arrival process for work that tolerates
delay.  Jobs arrive continuously (uniformly, or concentrated in business
hours), each job is ``requests_per_job`` inference requests, and every
request must complete within ``deadline_h`` hours of arriving.  The
workload joins the interactive traffic in a scenario's demand description
(``BatchSpec`` in :mod:`repro.scenarios.spec`); the epochs it actually
runs in are the :class:`~repro.shifting.scheduler.TemporalScheduler`'s
choice.

:class:`BacklogLedger` is the bookkeeping: one fleet-level instance holds
the queued lots still waiting for a clean window, and one instance per
region records the completions that region carried — requests, age at
admission (the "hours moved" of the shift histogram), and whether the
deadline held.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

__all__ = [
    "ARRIVAL_PROFILES",
    "BatchJobClass",
    "BatchLot",
    "BatchCompletion",
    "BacklogLedger",
]

#: Arrival profiles a batch class may name.  ``uniform`` spreads arrivals
#: evenly; ``business-hours`` concentrates the same daily volume into
#: 09:00-17:00 (the shape of human-triggered offline work).
ARRIVAL_PROFILES = ("uniform", "business-hours")

#: Business-hours window (hours of day, [start, end)).
_BUSINESS_START_H = 9.0
_BUSINESS_END_H = 17.0


def _business_hours_overlap(t0_h: float, t1_h: float) -> float:
    """Hours of ``[t0_h, t1_h)`` falling inside 09:00-17:00 of any day.

    >>> _business_hours_overlap(0.0, 24.0)
    8.0
    >>> _business_hours_overlap(8.5, 9.5)
    0.5
    >>> _business_hours_overlap(17.0, 33.5)  # evening through next morning
    0.5
    """
    if t1_h <= t0_h:
        return 0.0
    total = 0.0
    day = math.floor(t0_h / 24.0)
    while day * 24.0 < t1_h:
        lo = day * 24.0 + _BUSINESS_START_H
        hi = day * 24.0 + _BUSINESS_END_H
        total += max(0.0, min(t1_h, hi) - max(t0_h, lo))
        day += 1
    return total


@dataclass(frozen=True)
class BatchJobClass:
    """One class of deferrable batch work: arrivals, size, flexibility.

    Attributes
    ----------
    jobs_per_h:
        Mean job arrival rate (jobs per hour, averaged over a day).
    requests_per_job:
        Inference requests each job amounts to; the scheduler plans in
        requests, so this is the jobs→requests exchange rate.
    deadline_h:
        Every request must complete within this many hours of arriving.
    arrival:
        Arrival profile name (see :data:`ARRIVAL_PROFILES`).
    preemptible:
        ``True`` (default) lets a lot split across epochs and regions;
        ``False`` forces each lot to run whole within a single epoch.
    accuracy_floor_pct:
        Optional floor on the serving accuracy batch work tolerates (% of
        base accuracy); the scheduler avoids admitting into regions whose
        deployed configuration last measured below it, unless a deadline
        forces the work out anyway.
    defer:
        ``False`` disables temporal shifting: every lot is admitted the
        epoch it arrives (the spatial-only ablation the benchmarks
        compare against).

    >>> job = BatchJobClass(jobs_per_h=60.0, requests_per_job=30.0)
    >>> job.mean_rate_per_s
    0.5
    >>> job.arrivals_requests(0.0, 2.0)  # two hours of uniform arrivals
    3600.0
    """

    jobs_per_h: float
    requests_per_job: float = 1.0
    deadline_h: float = 8.0
    arrival: str = "uniform"
    preemptible: bool = True
    accuracy_floor_pct: float | None = None
    defer: bool = True
    name: str = "batch"

    def __post_init__(self) -> None:
        if self.jobs_per_h <= 0.0:
            raise ValueError(
                f"batch jobs per hour must be positive, got {self.jobs_per_h}"
            )
        if self.requests_per_job <= 0.0:
            raise ValueError(
                f"requests per job must be positive, got {self.requests_per_job}"
            )
        if self.deadline_h <= 0.0:
            raise ValueError(
                f"batch deadline must be positive, got {self.deadline_h}"
            )
        if self.arrival not in ARRIVAL_PROFILES:
            raise ValueError(
                f"unknown arrival profile {self.arrival!r}; valid: "
                f"{', '.join(ARRIVAL_PROFILES)}"
            )
        if self.accuracy_floor_pct is not None and not (
            0.0 < self.accuracy_floor_pct <= 100.0
        ):
            raise ValueError(
                f"accuracy floor must be in (0, 100] %, got "
                f"{self.accuracy_floor_pct}"
            )

    @property
    def mean_rate_per_s(self) -> float:
        """Day-averaged batch request rate (requests per second)."""
        return self.jobs_per_h * self.requests_per_job / 3600.0

    def arrivals_requests(self, t0_h: float, t1_h: float) -> float:
        """Requests arriving in ``[t0_h, t1_h)`` (deterministic fluid flow).

        The uniform profile integrates the mean rate; business-hours
        concentrates each day's volume (``24 * jobs_per_h`` jobs) into
        the 8-hour window, so the *daily* total matches the uniform
        profile exactly and only the timing differs.
        """
        hours = max(0.0, t1_h - t0_h)
        per_hour = self.jobs_per_h * self.requests_per_job
        if self.arrival == "uniform":
            return per_hour * hours
        window = _BUSINESS_END_H - _BUSINESS_START_H
        return per_hour * (24.0 / window) * _business_hours_overlap(t0_h, t1_h)


@dataclass
class BatchLot:
    """One epoch's batch arrivals, tracked until fully admitted.

    ``requests`` counts down as slices of the lot are admitted;
    ``requests_total`` keeps the arrival size for reporting.
    """

    arrival_t_h: float
    deadline_t_h: float
    requests: float
    requests_total: float = 0.0

    def __post_init__(self) -> None:
        if self.requests_total == 0.0:
            self.requests_total = self.requests


@dataclass(frozen=True)
class BatchCompletion:
    """One admitted slice of a lot: what ran, where it sat, how it did."""

    epoch: int
    t_h: float
    requests: float
    #: Hours the work waited between arrival and admission — the shift.
    age_h: float
    on_time: bool


class BacklogLedger:
    """Queued batch work, deadlines and completions for one queue.

    The coordinator keeps one fleet-level ledger (the undispatched
    backlog the temporal scheduler plans over) plus one per region (the
    work that region actually carried).  The same class serves both
    roles: ``enqueue``/``pending`` for the queue side,
    ``record``/``completions`` for the execution side.

    >>> ledger = BacklogLedger("us-ciso")
    >>> ledger.enqueue(BatchLot(arrival_t_h=0.0, deadline_t_h=8.0,
    ...                         requests=100.0))
    >>> ledger.pending_requests
    100.0
    >>> ledger.record(epoch=3, t_h=3.0, requests=100.0, age_h=3.0,
    ...               on_time=True)
    >>> ledger.completed_requests, ledger.on_time_requests
    (100.0, 100.0)
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.pending: deque[BatchLot] = deque()
        self.completions: list[BatchCompletion] = []

    # -------------------------------------------------------------- #
    # queue side
    # -------------------------------------------------------------- #

    def enqueue(self, lot: BatchLot) -> None:
        self.pending.append(lot)

    @property
    def pending_requests(self) -> float:
        return float(sum(lot.requests for lot in self.pending))

    def overdue_requests(self, t_h: float) -> float:
        """Still-queued requests whose deadline has already passed."""
        return float(
            sum(
                lot.requests
                for lot in self.pending
                if lot.deadline_t_h <= t_h + 1e-9
            )
        )

    # -------------------------------------------------------------- #
    # execution side
    # -------------------------------------------------------------- #

    def record(
        self, epoch: int, t_h: float, requests: float, age_h: float,
        on_time: bool,
    ) -> None:
        self.completions.append(
            BatchCompletion(
                epoch=epoch, t_h=t_h, requests=requests, age_h=age_h,
                on_time=on_time,
            )
        )

    @property
    def completed_requests(self) -> float:
        return float(sum(c.requests for c in self.completions))

    @property
    def on_time_requests(self) -> float:
        return float(sum(c.requests for c in self.completions if c.on_time))

    def reset(self) -> None:
        self.pending.clear()
        self.completions.clear()
