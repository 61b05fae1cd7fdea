"""The carbon-aware temporal scheduler: slot planning plus EDF safety.

Each epoch the scheduler looks at every queued batch lot and the window
of future epochs ("slots") still inside its deadline, ranks the slots by
predicted effective gCO2/request, and water-fills each lot's requests
into the cleanest slots with estimated spare capacity —
earliest-deadline-first, so tight lots claim their (smaller) windows
before flexible ones.  Whatever lands in slot 0 is admitted *now*;
everything else stays queued and the plan is recomputed next epoch
against fresh forecasts (model-predictive replanning, the CarbonShiftML
slot/deadline shape).

The EDF ordering doubles as the no-miss guarantee: lots are processed in
deadline order and each only ever consumes capacity inside its own
window, so if a lot cannot be fully placed, the total demand due by its
deadline genuinely exceeds the window's capacity — greedy EDF placement
is feasibility-optimal for this nested-window structure (Hall's
condition; property-tested).  A lot whose deadline falls inside the
current epoch is *deadline-forced*: it is placed into slot 0 regardless
of how dirty the grid looks, up to whatever leftover capacity exists.

:func:`plan_batch_slots` permutes the slot capacities into score-rank
order once, water-fills each lot with a running sum over the open rank
positions inside its deadline — stopping as soon as the sum provably
covers the lot — and scatters the allocation back to slot order once at
the end.  Its arithmetic is the rank-space numpy loop's, op for op; that
loop stays in ``tests/shifting/test_scheduler_properties.py`` as the
bit-for-bit oracle, next to the explicit per-slot loop that is the
semantic reference.
"""

from __future__ import annotations

import math

import numpy as np

from repro.shifting.batch import BacklogLedger, BatchJobClass, BatchLot

__all__ = [
    "plan_batch_slots",
    "TemporalScheduler",
]


def plan_batch_slots(
    requests: np.ndarray,
    deadline_slots: np.ndarray,
    slot_caps: np.ndarray,
    slot_scores: np.ndarray,
    preemptible: bool = True,
) -> np.ndarray:
    """Assign each lot's requests to the cleanest slots inside its deadline.

    Parameters
    ----------
    requests:
        Per-lot request counts (floats, >= 0).
    deadline_slots:
        Per-lot index of the last slot the lot may run in (inclusive;
        slot 0 is the current epoch).
    slot_caps:
        Estimated spare capacity of each slot, in requests.
    slot_scores:
        Predicted effective gCO2/request of each slot (lower = cleaner).
    preemptible:
        ``True`` lets a lot split across slots; ``False`` places each lot
        whole into the cleanest single slot that fits (falling back to
        the roomiest eligible slot when none does).

    Returns the ``(n_lots, n_slots)`` allocation matrix.  Row sums can
    fall short of ``requests`` only when the lot's eligible slots lack
    capacity — the caller keeps the remainder queued.

    Preemptible lots are planned in *rank space*: position ``j`` is the
    ``j``-th cleanest slot.  Each lot (earliest deadline first) runs the
    water-fill ``c += room; take = min(max(need - (c - room), 0), room)``
    over the positions inside its deadline, so every take equals the
    water-fill over the gathered eligible slots bit for bit.  Positions
    past the deadline or with no room left are skipped, and the scan
    stops once the running sum covers the need with a rounding slack
    (see :func:`_water_fill_ranked`); both skips are exact.

    ``prior = c - room`` cancels when a small room precedes a huge one,
    so a lot can be over-served: ``plan_batch_slots([1.], [1],
    [1., 2.**60], [1., 2.])`` returns ``[[1., 1.]]`` — a need of 1 gets
    2 — where the per-slot reference gives ``[[1., 0.]]``.  Fixing it
    moves ulps of every plan, so it waits for its own re-pin.

    Raises ``ValueError`` unless every capacity is finite and
    non-negative and no request count is NaN (the domain on which the
    scan's skips are exact).

    >>> alloc = plan_batch_slots(
    ...     np.array([10.0]), np.array([2]),
    ...     slot_caps=np.array([20.0, 20.0, 20.0]),
    ...     slot_scores=np.array([300.0, 100.0, 200.0]))
    >>> alloc[0].tolist()  # defers everything into the cleanest slot
    [0.0, 10.0, 0.0]
    """
    requests = np.asarray(requests, dtype=np.float64)
    deadline_slots = np.asarray(deadline_slots, dtype=np.int64)
    caps = np.array(slot_caps, dtype=np.float64)
    scores = np.asarray(slot_scores, dtype=np.float64)
    n_lots, n_slots = requests.size, caps.size
    if deadline_slots.size != n_lots:
        raise ValueError(
            f"{deadline_slots.size} deadlines for {n_lots} lots"
        )
    if scores.size != n_slots:
        raise ValueError(f"{scores.size} scores for {n_slots} slots")
    if not np.all(np.isfinite(caps) & (caps >= 0.0)):
        raise ValueError("slot capacities must be finite and non-negative")
    if np.isnan(requests).any():
        raise ValueError("lot request counts must not be NaN")
    alloc = np.zeros((n_lots, n_slots), dtype=np.float64)
    # Cleanest slot first; stable sort prefers the *earlier* slot on
    # ties, so equal-score work is never deferred for nothing.
    slot_rank = np.argsort(scores, kind="stable")
    # EDF over lots: nested deadline windows mean earlier-due lots see a
    # subset of later lots' slots, so serving them first never strands
    # capacity a later lot could not also have used.
    edf = np.argsort(deadline_slots, kind="stable")
    if preemptible:
        _water_fill_ranked(
            requests.tolist(),
            deadline_slots.tolist(),
            caps[slot_rank].tolist(),
            slot_rank.tolist(),
            edf.tolist(),
            alloc,
        )
        return alloc
    for li in edf:
        need = float(requests[li])
        if need <= 0.0:
            continue
        last = max(0, min(int(deadline_slots[li]), n_slots - 1))
        eligible = slot_rank[slot_rank <= last]
        fits = eligible[caps[eligible] >= need - 1e-12]
        # Fallback ties break toward the earliest slot (the eligible set
        # is exactly 0..last), matching the scalar reference.
        slot = int(fits[0]) if fits.size else int(np.argmax(caps[: last + 1]))
        take = min(need, float(caps[slot]))
        alloc[li, slot] = take
        caps[slot] -= take
    return alloc


def _water_fill_ranked(
    needs: list[float],
    deadlines: list[int],
    rooms: list[float],
    rank_slot: list[int],
    edf: list[int],
    alloc: np.ndarray,
) -> None:
    """Preemptible EDF water-fill in rank space, written into ``alloc``.

    ``rooms[j]`` is the spare capacity of the ``j``-th cleanest slot and
    ``rank_slot[j]`` its slot index.  Each lot runs
    ``c += room; prior = c - room; take = min(max(need - prior, 0), room)``
    over its deadline window in rank order, op for op as the rank-space
    numpy loop (``np.maximum`` and ``np.minimum`` return their second
    operand on ties, hence ``+0.0`` for ``max(0, 0)``).  Three kinds of
    position are settled without running that arithmetic, exactly:

    * a position past the deadline, or with room ``+0.0``, adds ``+0.0``
      to ``c`` (``need > 0``, so the sign of a zero ``c`` never reaches a
      take) and takes ``+0.0``;
    * once ``c >= need + slack`` with ``slack = 4·2**-53·T`` (``T`` the
      ``math.fsum`` of the capacities), every later
      ``prior = fl(fl(c + room) - room)`` is at least ``c - 2·2**-53·T``
      (to first order) and the stop test rounds off at most
      ``2**-53·T`` more, so ``need - prior <= 0`` and every later take
      is ``+0.0``;
    * a ``-0.0`` room never moves ``c`` and always takes ``-0.0``
      (``min(m, -0.0)`` with ``m >= +0.0``), leaving ``+0.0`` behind, so
      it is settled for the first lot whose window holds it.
    """
    n_slots = len(rooms)
    try:
        slack = 4.0 * 2.0**-53 * math.fsum(rooms)
    except OverflowError:  # capacities summing past the float range
        slack = math.inf
    open_pos = [j for j, room in enumerate(rooms) if room > 0.0]
    signed_zero_slots = [
        slot
        for slot, room in zip(rank_slot, rooms)
        if math.copysign(1.0, room) < 0.0
    ]
    rows: list[int] = []
    cols: list[int] = []
    takes: list[float] = []
    for li in edf:
        need = needs[li]
        if need <= 0.0:
            continue
        last = max(0, min(deadlines[li], n_slots - 1))
        if signed_zero_slots:
            for slot in signed_zero_slots:
                if slot <= last:
                    rows.append(li)
                    cols.append(slot)
                    takes.append(-0.0)
            signed_zero_slots = [s for s in signed_zero_slots if s > last]
        stop = need + slack
        c = 0.0
        closed = False
        for j in open_pos:
            slot = rank_slot[j]
            if slot > last:
                continue
            room = rooms[j]
            c += room
            x = need - (c - room)
            if x > 0.0:
                take = x if x < room else room
                rooms[j] = room - take
                closed = closed or take == room
                rows.append(li)
                cols.append(slot)
                takes.append(take)
            if c >= stop:
                break
        if closed:
            open_pos = [j for j in open_pos if rooms[j] > 0.0]
    alloc[rows, cols] = takes


class TemporalScheduler:
    """Per-epoch batch admission over a fleet's leftover capacity.

    Owns the fleet-level backlog (lots still waiting for a clean window)
    and one :class:`BacklogLedger` per region recording the work each
    region carried.  The coordinator drives it once per epoch:
    :meth:`observe_arrivals` folds in the epoch's new lots, then
    :meth:`plan_epoch` returns the per-region admission rates (and the
    capacity-hold hints that keep GPUs awake through clean valleys).
    """

    def __init__(
        self,
        job: BatchJobClass,
        step_s: float,
        region_names: tuple[str, ...] | list[str],
    ) -> None:
        if step_s <= 0.0:
            raise ValueError(f"epoch length must be positive, got {step_s}")
        self.job = job
        self.step_s = float(step_s)
        self.step_h = float(step_s) / 3600.0
        self.backlog = BacklogLedger("fleet")
        self.ledgers = [BacklogLedger(name) for name in region_names]
        #: Slots the planner looks ahead: every epoch a fresh lot could
        #: still run in and finish by its deadline (1 when shifting is
        #: disabled — admit-on-arrival).
        self.horizon_slots = (
            1
            if not job.defer
            else max(1, math.floor(job.deadline_h / self.step_h + 1e-9))
        )

    def reset(self) -> None:
        self.backlog.reset()
        for ledger in self.ledgers:
            ledger.reset()

    def observe_arrivals(self, t_h: float) -> float:
        """Queue the lot arriving during ``[t_h, t_h + step)``; its size."""
        requests = self.job.arrivals_requests(t_h, t_h + self.step_h)
        if requests > 0.0:
            self.backlog.enqueue(
                BatchLot(
                    arrival_t_h=t_h,
                    deadline_t_h=t_h + self.job.deadline_h,
                    requests=requests,
                )
            )
        return requests

    def _deadline_slot(self, lot: BatchLot, t_h: float) -> int:
        """Last slot index (0 = now) the lot may run in and still be on
        time — the last slot whose epoch *ends* by the deadline; overdue
        lots clamp to 0 (run ASAP, recorded as a miss)."""
        if not self.job.defer:
            return 0
        slack_h = lot.deadline_t_h - t_h
        return max(0, math.floor(slack_h / self.step_h + 1e-9) - 1)

    def plan_epoch(
        self,
        epoch: int,
        t_h: float,
        region_scores: np.ndarray,
        region_leftover_rates: np.ndarray,
        region_eligible: np.ndarray,
        slot_scores: np.ndarray,
        slot_caps: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Admit batch work into this epoch; plan the rest into the future.

        Parameters
        ----------
        region_scores:
            Current effective gCO2/request per region (spatial ranking).
        region_leftover_rates:
            Per-region spare serving rate this epoch (req/s) — awake,
            SLA-safe capacity minus the routed interactive rate.
        region_eligible:
            Accuracy-floor mask; ineligible regions receive batch work
            only when a deadline forces it out anyway.
        slot_scores, slot_caps:
            Per-slot predicted effective gCO2/request and estimated spare
            capacity (requests); slot 0 must hold the *actual* values.

        Returns ``(admitted_rates, hold_rates)`` in req/s per region:
        what to serve now, and the near-future rate (admission plus the
        next slot's planned volume) gating should hold capacity for.
        """
        n_regions = len(self.ledgers)
        lots = sorted(
            self.backlog.pending, key=lambda l: (l.deadline_t_h, l.arrival_t_h)
        )
        if not lots:
            return np.zeros(n_regions), np.zeros(n_regions)
        deadlines = [self._deadline_slot(l, t_h) for l in lots]
        alloc = plan_batch_slots(
            np.array([l.requests for l in lots], dtype=np.float64),
            np.array(deadlines, dtype=np.int64),
            slot_caps,
            slot_scores,
            preemptible=self.job.preemptible,
        )
        # Spatial placement: fill the cleanest regions' leftover first.
        # A few lots over a few regions: Python floats, same arithmetic
        # as numpy scalars, in the same order.
        order = np.argsort(region_scores, kind="stable").tolist()
        room = (np.asarray(region_leftover_rates) * self.step_s).tolist()
        eligible = np.asarray(region_eligible).tolist()
        admitted = [0.0] * n_regions
        epoch_end = t_h + self.step_h
        for lot, last, share in zip(lots, deadlines, alloc[:, 0].tolist()):
            forced = last == 0
            # A deadline-forced lot takes whatever leftover exists — the
            # EDF fallback — while plannable work honors the slot-0
            # allocation and the accuracy-floor eligibility mask.
            target = float(lot.requests) if forced else share
            if target <= 0.0:
                continue
            placed_total = 0.0
            for r in order:
                if target <= 0.0:
                    break
                if not forced and not eligible[r]:
                    continue
                take = min(target, room[r])
                if take <= 0.0:
                    continue
                room[r] -= take
                target -= take
                placed_total += take
                admitted[r] += take
                self.ledgers[r].record(
                    epoch=epoch,
                    t_h=t_h,
                    requests=take,
                    age_h=t_h - lot.arrival_t_h,
                    on_time=epoch_end <= lot.deadline_t_h + 1e-9,
                )
            lot.requests -= placed_total
        drained = [l for l in self.backlog.pending if l.requests > 1e-9]
        self.backlog.pending.clear()
        self.backlog.pending.extend(drained)
        # Hold hints: the rate each region should stay provisioned for
        # next epoch — this epoch's admission plus the next slot's
        # planned volume, placed against the remaining leftover.
        hold = admitted.copy()
        if alloc.shape[1] > 1:
            upcoming = float(alloc[:, 1].sum())
            for r in order:
                if upcoming <= 0.0:
                    break
                take = min(upcoming, room[r])
                hold[r] += take
                upcoming -= take
            if upcoming > 0.0 and order:
                hold[order[0]] += upcoming
        return (
            np.array(admitted, dtype=np.float64) / self.step_s,
            np.array(hold, dtype=np.float64) / self.step_s,
        )
