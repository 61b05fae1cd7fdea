"""repro.shifting — deferrable batch workloads and temporal load shifting.

Clover decides *where* and *at what accuracy* to serve; this layer adds
*when*.  A :class:`BatchJobClass` describes work that does not have to run
the epoch it arrives — training-data refreshes, offline re-scoring,
embedding backfills — only by a deadline some hours out.  The
:class:`TemporalScheduler` holds that work in a deadline-ordered backlog
and releases it into the epochs the grid is predicted to be cleanest,
falling back to earliest-deadline-first admission whenever waiting any
longer would risk a miss.  Per-region :class:`BacklogLedger` instances
record what each region carried, when, and how far the work moved.

The layer sits between :mod:`repro.demand` and :mod:`repro.fleet`:
it consumes carbon forecasts (:func:`repro.carbon.forecast.make_forecaster`)
and produces per-epoch admission rates the
:class:`~repro.fleet.FleetCoordinator` folds into its
gate→route→admit-batch→wake→step pipeline.
"""

from repro.shifting.batch import (
    ARRIVAL_PROFILES,
    BacklogLedger,
    BatchCompletion,
    BatchJobClass,
    BatchLot,
)
from repro.shifting.scheduler import TemporalScheduler, plan_batch_slots

__all__ = [
    "ARRIVAL_PROFILES",
    "BatchJobClass",
    "BatchLot",
    "BatchCompletion",
    "BacklogLedger",
    "TemporalScheduler",
    "plan_batch_slots",
]
