"""Property tests for the temporal slot planner.

Three guarantees: the planner equals its per-slot scalar reference bit
for bit (signs of zero included), every plan respects capacity, need and
deadline eligibility at any capacity scale, and EDF water-filling never
misses a deadline the slot capacities could have met (Hall's condition
on the nested deadline windows — the scheduler's no-miss claim).  Its
cost is checked against an exact optimum in ``test_slot_optimality.py``.

``TemporalScheduler.plan_epoch``'s spatial placement over Python lists
equals the numpy-scalar loop it replaced (``plan_epoch_numpy``) bit for
bit, ledgers and backlog included.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.shifting import (
    BatchJobClass,
    BatchLot,
    TemporalScheduler,
    plan_batch_slots,
)

RTOL = 1e-9


def _plan_batch_slots_scalar(
    requests: np.ndarray,
    deadline_slots: np.ndarray,
    slot_caps: np.ndarray,
    slot_scores: np.ndarray,
    preemptible: bool = True,
) -> np.ndarray:
    """The original lot-by-lot, slot-by-slot loop; the semantic reference
    for :func:`plan_batch_slots`'s equivalence property tests."""
    requests = np.asarray(requests, dtype=np.float64)
    deadline_slots = np.asarray(deadline_slots, dtype=np.int64)
    caps = [float(c) for c in np.asarray(slot_caps, dtype=np.float64)]
    scores = np.asarray(slot_scores, dtype=np.float64)
    n_lots, n_slots = requests.size, len(caps)
    alloc = np.zeros((n_lots, n_slots), dtype=np.float64)
    slot_rank = sorted(range(n_slots), key=lambda s: (scores[s], s))
    for li in sorted(range(n_lots), key=lambda l: (deadline_slots[l], l)):
        need = float(requests[li])
        if need <= 0.0:
            continue
        last = max(0, min(int(deadline_slots[li]), n_slots - 1))
        if preemptible:
            for s in slot_rank:
                if s > last or need <= 0.0:
                    continue
                take = min(need, caps[s])
                if take > 0.0:
                    alloc[li, s] = take
                    caps[s] -= take
                    need -= take
        else:
            chosen = None
            for s in slot_rank:
                if s <= last and caps[s] >= need - 1e-12:
                    chosen = s
                    break
            if chosen is None:
                eligible = [s for s in range(n_slots) if s <= last]
                chosen = max(eligible, key=lambda s: caps[s])
            take = min(need, caps[chosen])
            alloc[li, chosen] = take
            caps[chosen] -= take
    return alloc


@st.composite
def slot_problems(draw):
    n_lots = draw(st.integers(min_value=1, max_value=24))
    n_slots = draw(st.integers(min_value=1, max_value=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    requests = rng.uniform(0.0, 80.0, n_lots)
    if draw(st.booleans()):
        requests = requests.round(0)  # integer sizes force exact ties
    deadline_slots = rng.integers(0, n_slots, n_lots)
    caps = rng.uniform(0.0, 120.0, n_slots)
    if draw(st.booleans()):
        caps = caps.round(0)
    scores = rng.uniform(20.0, 400.0, n_slots)
    if draw(st.booleans()):
        scores = scores.round(-1)  # score ties exercise the stable sort
    preemptible = draw(st.booleans())
    return requests, deadline_slots, caps, scores, preemptible


@st.composite
def edge_slot_problems(draw):
    """Problems at the planner's edges: signed-zero capacities, capacities
    scaled by 2**-40 to 2**70 (a small room before a huge one), needs
    equal to capacities, deadlines before and past the horizon, and score
    ties."""
    n_lots = draw(st.integers(min_value=1, max_value=12))
    n_slots = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    decimals = draw(st.sampled_from([0, 3]))
    requests = rng.uniform(0.0, 80.0, n_lots).round(decimals)
    caps = rng.uniform(0.0, 120.0, n_slots).round(0)
    caps *= 2.0 ** rng.integers(-40, 71, n_slots)
    pick = rng.random(n_slots)
    caps[pick < 0.2] = 0.0
    caps[(pick >= 0.2) & (pick < 0.4)] = -0.0
    # Needs equal to capacities land lots exactly on a slot's room.
    equal = (pick >= 0.4) & (pick < 0.6)
    caps[equal] = rng.choice(requests, n_slots)[equal]
    deadline_slots = rng.integers(-2, n_slots + 3, n_lots)
    scores = rng.uniform(20.0, 400.0, n_slots).round(-2)
    return requests, deadline_slots, caps, scores


def plan_both(requests, deadlines, caps, scores, preemptible=True):
    """The planner's and the scalar reference's plans of one problem."""
    return (
        plan_batch_slots(
            requests, deadlines, caps, scores, preemptible=preemptible
        ),
        _plan_batch_slots_scalar(
            np.asarray(requests), np.asarray(deadlines), np.asarray(caps),
            np.asarray(scores), preemptible=preemptible,
        ),
    )


class TestVectorizedMatchesScalar:
    """The planner equals the per-slot loop bit for bit: ``tobytes()``
    compares signs of zero too."""

    @given(problem=slot_problems())
    @settings(max_examples=120, deadline=None)
    def test_allocation_matrices_agree(self, problem):
        got, ref = plan_both(*problem)
        assert got.tobytes() == ref.tobytes()

    @given(problem=edge_slot_problems(), preemptible=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_edge_problems_bit_for_bit(self, problem, preemptible):
        got, ref = plan_both(*problem, preemptible=preemptible)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "requests, deadlines, caps, scores",
        [
            # -0.0 rooms are never taken from.
            ([5.0, 3.0], [3, 1], [-0.0, 2.0, -0.0, 7.0], [1.0, 2.0, 3.0, 4.0]),
            ([1.0, 1.0], [2, 2], [-0.0, 5.0, -0.0], [3.0, 1.0, 2.0]),
            # Needs equal to caps close a slot exactly.
            ([4.0, 6.0, 2.0], [1, 2, 2], [4.0, 6.0, 2.0], [1.0, 1.0, 1.0]),
            # Deadlines before slot 0 and past the horizon clamp.
            ([3.0, 9.0], [-3, 40], [2.0, 2.0, 20.0], [5.0, 1.0, 3.0]),
            # A 2**60 room after a small one.
            ([1.0], [1], [1.0, 2.0**60], [1.0, 2.0]),
            ([2.0**60, 3.0], [2, 2], [2.0**60, 1.0, 2.0**60], [2.0, 1.0, 3.0]),
            # Capacities summing past the float range.
            ([1e308, 1e308], [5, 5], [1e308, 1e308, 1e308], [3.0, 2.0, 1.0]),
            ([np.inf, 2.0], [2, 0], [3.0, 4.0, 5.0], [1.0, 1.0, 1.0]),
            ([0.0, -1.0, 2.0], [1, 1, 1], [1.0, 1.0], [2.0, 1.0]),
        ],
    )
    def test_targeted_cases_bit_for_bit(
        self, requests, deadlines, caps, scores
    ):
        got, ref = plan_both(requests, deadlines, caps, scores)
        assert got.tobytes() == ref.tobytes()


class TestPlanInvariants:
    @given(problem=slot_problems())
    @settings(max_examples=120, deadline=None)
    def test_caps_deadlines_and_demand_respected(self, problem):
        requests, deadlines, caps, scores, preemptible = problem
        alloc = plan_batch_slots(
            requests, deadlines, caps, scores, preemptible=preemptible
        )
        n_slots = caps.size
        assert (alloc >= 0.0).all()
        # No slot is oversubscribed...
        assert (alloc.sum(axis=0) <= caps + 1e-9 * (1.0 + caps)).all()
        # ... no lot is over-served...
        assert (alloc.sum(axis=1) <= requests + 1e-9 * (1.0 + requests)).all()
        # ... and nothing lands past its deadline slot.
        for li in range(requests.size):
            last = max(0, min(int(deadlines[li]), n_slots - 1))
            assert alloc[li, last + 1:].sum() == 0.0

    @given(problem=edge_slot_problems(), preemptible=st.booleans())
    @example(
        problem=([1.0], [1], [1.0, 2.0**60], [1.0, 2.0]), preemptible=True
    )
    @settings(max_examples=200, deadline=None)
    def test_no_lot_gets_more_than_its_need(self, problem, preemptible):
        """Whatever the capacities' scale, a lot's plan sums to at most
        its need, up to rounding."""
        requests, deadlines, caps, scores = problem
        alloc = plan_batch_slots(
            requests, deadlines, caps, scores, preemptible=preemptible
        )
        assert (alloc.sum(axis=1) <= np.asarray(requests) * (1 + 1e-12)).all()

    def test_cancellation_does_not_over_serve(self):
        """A fill from prefix sums took ``need - (cumsum - room)``; at the
        2**60 room ``cumsum - room`` cancels to 0, and a need of 1 was
        served twice."""
        got = plan_batch_slots([1.0], [1], [1.0, 2.0**60], [1.0, 2.0])
        assert got.tolist() == [[1.0, 0.0]]


class TestNoMissWhileFeasible:
    @given(
        n_slots=st.integers(min_value=1, max_value=12),
        seed=st.integers(0, 2**31 - 1),
        slack=st.floats(min_value=1.0, max_value=2.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_feasible_backlogs_place_fully(self, n_slots, seed, slack):
        """Hall's condition: if every deadline-prefix of the demand fits
        the matching capacity prefix, preemptible EDF places every lot."""
        rng = np.random.default_rng(seed)
        n_lots = int(rng.integers(1, 20))
        requests = rng.uniform(1.0, 50.0, n_lots)
        deadline_slots = rng.integers(0, n_slots, n_lots)
        # Build capacities that make the instance feasible by
        # construction: each slot carries ``slack`` times the demand due
        # at it, placed at its deadline (the tightest legal layout).
        caps = np.zeros(n_slots)
        for li in range(n_lots):
            caps[deadline_slots[li]] += requests[li]
        caps *= slack
        scores = rng.uniform(20.0, 400.0, n_slots)
        alloc = plan_batch_slots(requests, deadline_slots, caps, scores)
        np.testing.assert_allclose(
            alloc.sum(axis=1), requests, rtol=RTOL, atol=1e-9
        )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shortfall_only_when_prefix_overflows(self, seed):
        """Any unplaced remainder certifies genuine infeasibility: the
        demand due by some deadline exceeds that prefix's capacity."""
        rng = np.random.default_rng(seed)
        n_lots = int(rng.integers(1, 16))
        n_slots = int(rng.integers(1, 10))
        requests = rng.uniform(1.0, 60.0, n_lots)
        deadline_slots = rng.integers(0, n_slots, n_lots)
        caps = rng.uniform(0.0, 80.0, n_slots)
        scores = rng.uniform(20.0, 400.0, n_slots)
        alloc = plan_batch_slots(requests, deadline_slots, caps, scores)
        placed = alloc.sum(axis=1)
        short = placed < requests - 1e-9 * (1.0 + requests)
        if not short.any():
            return
        clipped = np.minimum(deadline_slots, n_slots - 1)
        for li in np.flatnonzero(short):
            last = int(clipped[li])
            due = requests[clipped <= last].sum()
            room = caps[: last + 1].sum()
            assert due > room - 1e-6


def plan_epoch_numpy(
    sched,
    epoch,
    t_h,
    region_scores,
    region_leftover_rates,
    region_eligible,
    slot_scores,
    slot_caps,
):
    """``TemporalScheduler.plan_epoch`` as it ran with its spatial
    placement on numpy arrays and scalars: the bit-for-bit oracle for
    the placement over Python lists."""
    n_regions = len(sched.ledgers)
    admitted = np.zeros(n_regions, dtype=np.float64)
    hold = np.zeros(n_regions, dtype=np.float64)
    lots = sorted(
        sched.backlog.pending, key=lambda l: (l.deadline_t_h, l.arrival_t_h)
    )
    if not lots:
        return admitted, hold
    requests = np.array([l.requests for l in lots], dtype=np.float64)
    deadlines = np.array(
        [sched._deadline_slot(l, t_h) for l in lots], dtype=np.int64
    )
    alloc = plan_batch_slots(
        requests,
        deadlines,
        slot_caps,
        slot_scores,
        preemptible=sched.job.preemptible,
    )
    # Spatial placement: fill the cleanest regions' leftover first.
    order = np.argsort(region_scores, kind="stable")
    room = region_leftover_rates * sched.step_s
    epoch_end = t_h + sched.step_h
    for li, lot in enumerate(lots):
        forced = deadlines[li] == 0
        # A deadline-forced lot takes whatever leftover exists — the
        # EDF fallback — while plannable work honors the slot-0
        # allocation and the accuracy-floor eligibility mask.
        target = float(lot.requests) if forced else float(alloc[li, 0])
        if target <= 0.0:
            continue
        placed_total = 0.0
        for r in order:
            if target <= 0.0:
                break
            if not forced and not region_eligible[r]:
                continue
            take = min(target, float(room[r]))
            if take <= 0.0:
                continue
            room[r] -= take
            target -= take
            placed_total += take
            admitted[r] += take
            sched.ledgers[r].record(
                epoch=epoch,
                t_h=t_h,
                requests=take,
                age_h=t_h - lot.arrival_t_h,
                on_time=epoch_end <= lot.deadline_t_h + 1e-9,
            )
        lot.requests -= placed_total
    drained = [l for l in sched.backlog.pending if l.requests > 1e-9]
    sched.backlog.pending.clear()
    sched.backlog.pending.extend(drained)
    admitted_rates = admitted / sched.step_s
    # Hold hints: the rate each region should stay provisioned for
    # next epoch — this epoch's admission plus the next slot's
    # planned volume, placed against the remaining leftover.
    hold = admitted.copy()
    if alloc.shape[1] > 1:
        upcoming = float(alloc[:, 1].sum())
        for r in order:
            if upcoming <= 0.0:
                break
            take = min(upcoming, float(room[r]))
            hold[r] += take
            upcoming -= take
        if upcoming > 0.0 and order.size:
            hold[order[0]] += upcoming
    return admitted_rates, hold / sched.step_s


def _completion_bits(sched):
    return [
        [
            (c.epoch, c.t_h.hex(), float(c.requests).hex(),
             float(c.age_h).hex(), c.on_time)
            for c in ledger.completions
        ]
        for ledger in sched.ledgers
    ]


def _backlog_bits(sched):
    return [
        (l.arrival_t_h.hex(), l.deadline_t_h.hex(), float(l.requests).hex(),
         float(l.requests_total).hex())
        for l in sched.backlog.pending
    ]


@st.composite
def placement_problems(draw):
    """A scheduler with a random backlog — forced, overdue and
    near-empty lots among ordinary ones — over 1 to 6 regions, some with
    no leftover and some ineligible."""
    n_regions = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    step_s = draw(st.sampled_from([600.0, 1800.0, 3600.0]))
    job = BatchJobClass(
        jobs_per_h=draw(st.floats(min_value=1.0, max_value=500.0)),
        requests_per_job=draw(st.sampled_from([1.0, 10.0, 100.0])),
        deadline_h=draw(st.sampled_from([0.5, 2.0, 8.0])),
        preemptible=draw(st.booleans()),
        defer=draw(st.integers(0, 4)) > 0,
    )
    sched = TemporalScheduler(
        job, step_s, tuple(f"region-{r}" for r in range(n_regions))
    )
    t_h = float(rng.integers(0, 48)) * step_s / 3600.0
    for _ in range(draw(st.integers(min_value=1, max_value=48))):
        kind = rng.random()
        arrival = t_h - rng.uniform(0.0, 2.0 * job.deadline_h)
        deadline = arrival + job.deadline_h
        if kind < 0.15:
            deadline = t_h - rng.uniform(0.0, 1.0)  # overdue
        elif kind < 0.3:
            deadline = t_h + rng.uniform(0.0, step_s / 3600.0)  # forced
        requests = rng.uniform(0.0, 2.0e3)
        if rng.random() < 0.15:
            requests = rng.uniform(0.0, 2e-9)  # near-empty
        elif rng.random() < 0.2:
            requests = float(round(requests))
        sched.backlog.enqueue(
            BatchLot(arrival_t_h=arrival, deadline_t_h=deadline,
                     requests=requests)
        )
    leftover = rng.uniform(0.0, 2.0, n_regions)
    leftover[rng.random(n_regions) < 0.3] = 0.0
    scores = rng.uniform(20.0, 400.0, n_regions)
    if rng.random() < 0.5:
        scores = scores.round(-2)  # ties keep the stable order
    eligible = rng.random(n_regions) < 0.7
    n_slots = sched.horizon_slots
    slot_caps = rng.uniform(0.0, 5.0e3, n_slots)
    slot_caps[rng.random(n_slots) < 0.2] = 0.0
    slot_scores = rng.uniform(20.0, 400.0, n_slots)
    epochs = draw(st.integers(min_value=1, max_value=3))
    return sched, t_h, scores, leftover, eligible, slot_scores, slot_caps, epochs


class TestPlanEpochMatchesNumpy:
    """Spatial placement over Python lists equals the numpy-scalar loop
    bit for bit: admissions, hold hints, every ledger completion and the
    backlog left behind, over consecutive epochs."""

    @given(problem=placement_problems())
    @settings(max_examples=150, deadline=None)
    def test_epochs_bit_for_bit(self, problem):
        (
            sched, t_h, scores, leftover, eligible, slot_scores, slot_caps,
            epochs,
        ) = problem
        got, ref = copy.deepcopy(sched), copy.deepcopy(sched)
        for k in range(epochs):
            now = t_h + k * sched.step_h
            if k:
                got.observe_arrivals(now)
                ref.observe_arrivals(now)
            args = (
                k, now, scores, leftover, eligible, slot_scores, slot_caps,
            )
            admitted, hold = got.plan_epoch(*args)
            admitted_ref, hold_ref = plan_epoch_numpy(ref, *args)
            assert admitted.tobytes() == admitted_ref.tobytes()
            assert hold.tobytes() == hold_ref.tobytes()
            assert admitted.dtype == admitted_ref.dtype == np.float64
            assert _completion_bits(got) == _completion_bits(ref)
            assert _backlog_bits(got) == _backlog_bits(ref)
