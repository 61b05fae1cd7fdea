"""The slot planner and the per-epoch temporal scheduler."""

import numpy as np
import pytest

from repro.shifting import BatchJobClass, TemporalScheduler, plan_batch_slots


def plan(requests, deadlines, caps, scores, **kwargs):
    return plan_batch_slots(
        np.asarray(requests, dtype=np.float64),
        np.asarray(deadlines, dtype=np.int64),
        np.asarray(caps, dtype=np.float64),
        np.asarray(scores, dtype=np.float64),
        **kwargs,
    )


class TestPlanBatchSlots:
    def test_defers_into_cleanest_slot(self):
        alloc = plan([10.0], [2], [50.0, 50.0, 50.0], [300.0, 100.0, 200.0])
        assert alloc[0].tolist() == [0.0, 10.0, 0.0]

    def test_deadline_restricts_the_window(self):
        alloc = plan([10.0], [0], [50.0, 50.0], [300.0, 100.0])
        assert alloc[0].tolist() == [10.0, 0.0]

    def test_water_fills_over_capacity(self):
        alloc = plan([30.0], [2], [5.0, 20.0, 50.0], [200.0, 100.0, 300.0])
        # Cleanest first (slot 1), overflow to slot 0, never slot 2's dirt
        # until the clean room runs out.
        assert alloc[0].tolist() == [5.0, 20.0, 5.0]

    def test_edf_gives_tight_lots_first_claim(self):
        # Both lots want the clean slot 0; the lot due *now* gets it.
        alloc = plan(
            [10.0, 10.0], [1, 0], [10.0, 10.0], [100.0, 300.0]
        )
        assert alloc[1].tolist() == [10.0, 0.0]
        assert alloc[0].tolist() == [0.0, 10.0]

    def test_shortfall_stays_unplaced(self):
        alloc = plan([100.0], [1], [10.0, 10.0], [100.0, 100.0])
        assert alloc[0].sum() == pytest.approx(20.0)

    def test_ties_prefer_the_earlier_slot(self):
        alloc = plan([10.0], [2], [50.0, 50.0, 50.0], [100.0, 100.0, 100.0])
        assert alloc[0].tolist() == [10.0, 0.0, 0.0]

    def test_non_preemptible_takes_one_whole_slot(self):
        alloc = plan(
            [30.0], [2], [35.0, 29.0, 40.0], [200.0, 100.0, 150.0],
            preemptible=False,
        )
        # The cleanest slot (1) cannot hold the lot whole; the next
        # cleanest that fits (2) takes all of it.
        assert alloc[0].tolist() == [0.0, 0.0, 30.0]

    def test_non_preemptible_falls_back_to_roomiest(self):
        alloc = plan(
            [100.0], [1], [20.0, 30.0], [100.0, 200.0], preemptible=False
        )
        assert alloc[0].tolist() == [0.0, 30.0]

    def test_zero_request_lots_are_skipped(self):
        alloc = plan([0.0, 5.0], [1, 1], [10.0, 10.0], [100.0, 200.0])
        assert alloc[0].sum() == 0.0
        assert alloc[1].sum() == pytest.approx(5.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="deadlines"):
            plan([1.0, 2.0], [0], [10.0], [100.0])
        with pytest.raises(ValueError, match="scores"):
            plan([1.0], [0], [10.0, 10.0], [100.0])

    @pytest.mark.parametrize("preemptible", [True, False])
    @pytest.mark.parametrize("bad_cap", [-1.0, np.inf, np.nan])
    def test_capacities_must_be_finite_and_non_negative(
        self, bad_cap, preemptible
    ):
        with pytest.raises(ValueError, match="capacities"):
            plan([1.0], [1], [10.0, bad_cap], [100.0, 200.0],
                 preemptible=preemptible)

    def test_request_counts_must_not_be_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            plan([np.nan], [0], [10.0], [100.0])


def make_scheduler(
    jobs_per_h=360.0,
    requests_per_job=10.0,
    deadline_h=4.0,
    step_s=3600.0,
    regions=("clean", "dirty"),
    **kwargs,
):
    job = BatchJobClass(
        jobs_per_h=jobs_per_h,
        requests_per_job=requests_per_job,
        deadline_h=deadline_h,
        **kwargs,
    )
    return TemporalScheduler(job, step_s, tuple(regions))


class TestTemporalScheduler:
    def test_horizon_matches_deadline(self):
        assert make_scheduler(deadline_h=4.0).horizon_slots == 4
        assert make_scheduler(deadline_h=0.5).horizon_slots == 1
        assert make_scheduler(deadline_h=4.0, defer=False).horizon_slots == 1

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="epoch length"):
            make_scheduler(step_s=0.0)

    def test_arrivals_enqueue_with_deadline(self):
        sched = make_scheduler(jobs_per_h=360.0, requests_per_job=10.0)
        got = sched.observe_arrivals(2.0)
        assert got == pytest.approx(3600.0)
        (lot,) = sched.backlog.pending
        assert lot.arrival_t_h == 2.0
        assert lot.deadline_t_h == pytest.approx(6.0)

    def plan_once(self, sched, scores, leftover, slot_scores, slot_caps,
                  eligible=None, epoch=0, t_h=0.0):
        n = len(sched.ledgers)
        return sched.plan_epoch(
            epoch,
            t_h,
            region_scores=np.asarray(scores, dtype=np.float64),
            region_leftover_rates=np.asarray(leftover, dtype=np.float64),
            region_eligible=(
                np.ones(n, dtype=bool) if eligible is None
                else np.asarray(eligible, dtype=bool)
            ),
            slot_scores=np.asarray(slot_scores, dtype=np.float64),
            slot_caps=np.asarray(slot_caps, dtype=np.float64),
        )

    def test_clean_now_admits_into_cleanest_region(self):
        sched = make_scheduler()
        sched.observe_arrivals(0.0)
        admitted, hold = self.plan_once(
            sched,
            scores=[100.0, 400.0],
            leftover=[2.0, 2.0],
            slot_scores=[100.0, 300.0, 300.0, 300.0],
            slot_caps=[7200.0, 7200.0, 7200.0, 7200.0],
        )
        # 3600 requests over a 3600 s epoch: 1 req/s, all on the clean
        # region (its leftover suffices).
        assert admitted[0] == pytest.approx(1.0)
        assert admitted[1] == 0.0
        assert sched.backlog.pending_requests == pytest.approx(0.0)
        assert hold[0] >= admitted[0]

    def test_dirty_now_defers_everything(self):
        sched = make_scheduler()
        sched.observe_arrivals(0.0)
        admitted, _ = self.plan_once(
            sched,
            scores=[400.0, 500.0],
            leftover=[2.0, 2.0],
            slot_scores=[400.0, 100.0, 300.0, 300.0],
            slot_caps=[7200.0, 7200.0, 7200.0, 7200.0],
        )
        assert admitted.sum() == 0.0
        assert sched.backlog.pending_requests == pytest.approx(3600.0)
        # The planned next-slot volume shows up as a hold hint.
        _, hold = self.plan_once(
            sched,
            scores=[400.0, 500.0],
            leftover=[2.0, 2.0],
            slot_scores=[400.0, 100.0, 300.0, 300.0],
            slot_caps=[7200.0, 7200.0, 7200.0, 7200.0],
        )
        assert hold.sum() > 0.0

    def test_deadline_forced_lot_ignores_cleanliness_and_floors(self):
        sched = make_scheduler(deadline_h=1.0)
        sched.observe_arrivals(0.0)
        admitted, _ = self.plan_once(
            sched,
            scores=[100.0, 400.0],
            leftover=[0.0, 2.0],
            slot_scores=[900.0],
            slot_caps=[7200.0],
            eligible=[True, False],  # even an ineligible region serves it
        )
        assert admitted[0] == 0.0
        assert admitted[1] == pytest.approx(1.0)
        on_time = sum(
            c.requests for c in sched.ledgers[1].completions if c.on_time
        )
        assert on_time == pytest.approx(3600.0)

    def test_admission_never_exceeds_leftover(self):
        sched = make_scheduler(jobs_per_h=3600.0, requests_per_job=10.0)
        sched.observe_arrivals(0.0)
        admitted, _ = self.plan_once(
            sched,
            scores=[100.0, 200.0],
            leftover=[1.5, 0.5],
            slot_scores=[100.0, 300.0, 300.0, 300.0],
            slot_caps=[7200.0, 7200.0, 7200.0, 7200.0],
        )
        assert admitted[0] <= 1.5 + 1e-12
        assert admitted[1] <= 0.5 + 1e-12

    def test_defer_false_admits_on_arrival(self):
        sched = make_scheduler(defer=False)
        sched.observe_arrivals(0.0)
        admitted, _ = self.plan_once(
            sched,
            scores=[100.0, 400.0],
            leftover=[5.0, 5.0],
            slot_scores=[500.0],
            slot_caps=[36000.0],
        )
        assert admitted.sum() == pytest.approx(1.0)

    def test_reset_clears_all_ledgers(self):
        sched = make_scheduler()
        sched.observe_arrivals(0.0)
        sched.ledgers[0].record(
            epoch=0, t_h=0.0, requests=1.0, age_h=0.0, on_time=True
        )
        sched.reset()
        assert sched.backlog.pending_requests == 0.0
        assert all(not led.completions for led in sched.ledgers)
