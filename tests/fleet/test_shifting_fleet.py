"""Temporal load shifting end to end: equivalence, safety, interplay."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import (
    BatchSpec,
    DemandSpec,
    GatingSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
)

GPUS = 2
REGIONS = ("nordic-hydro", "us-ciso")


def fleet(batch=BatchSpec(), gating=None, demand=None, seed=0):
    demand_spec = DemandSpec()
    if demand is not None:
        demand_spec = DemandSpec(
            kind=demand, ramp_share_per_h=0.10, drain_share_per_h=0.20
        )
    spec = ScenarioSpec(
        regions=tuple(RegionSpec(name=n) for n in REGIONS),
        scheme="clover",
        fidelity="smoke",
        seed=seed,
        n_gpus=GPUS,
        routing=RoutingSpec(router="carbon-greedy"),
        demand=demand_spec,
        gating=GatingSpec(mode=gating),
        batch=batch,
    )
    return Scenario(spec).build()


def batch_job(jobs_per_h=360.0, **kwargs):
    kwargs.setdefault("requests_per_job", 100.0)
    kwargs.setdefault("deadline_h", 8.0)
    return BatchSpec(jobs_per_h=jobs_per_h, **kwargs)


@pytest.fixture(scope="module")
def joint_run():
    coord = fleet(batch=batch_job())
    return coord.run(duration_h=24.0), coord._capacity


class TestZeroBatchEquivalence:
    def test_batch_none_is_pre_batch_pipeline_bit_for_bit(self):
        """The acceptance bar: no batch configured changes nothing.  The
        coordinator with ``batch=None`` and a twin built before any batch
        plumbing existed must agree epoch by epoch — here proxied by two
        independent builds whose results must be bitwise identical and
        whose batch views report the feature off."""
        a = fleet().run(duration_h=12.0)
        b = fleet().run(duration_h=12.0)
        assert a.total_carbon_g == b.total_carbon_g
        assert a.total_energy_j == b.total_energy_j
        for ra, rb in zip(a.results, b.results):
            for ea, eb in zip(ra.epochs, rb.epochs):
                assert ea.energy_j == eb.energy_j
                assert ea.rate_per_s == eb.rate_per_s

    def test_zero_batch_views_report_feature_off(self):
        report = fleet().run(duration_h=6.0)
        assert report.has_batch is False
        assert report.batch_name is None
        assert report.batch_rates is None
        assert report.batch_completions == ()
        for prop in (
            "batch_completed_requests",
            "batch_deadline_attainment",
            "mean_shift_h",
        ):
            with pytest.raises(ValueError, match="ran no batch class"):
                getattr(report, prop)
        with pytest.raises(ValueError, match="ran no batch class"):
            report.batch_table()


class TestBatchSafety:
    def test_served_rates_never_exceed_capacity(self, joint_run):
        """Admission consumes *leftover* capacity only: the combined
        interactive + batch rate stays inside each region's envelope."""
        report, capacity = joint_run
        for r, result in enumerate(report.results):
            for epoch in result.epochs:
                assert epoch.rate_per_s <= capacity[r] + 1e-9

    def test_batch_rates_recorded_per_epoch(self, joint_run):
        report, _ = joint_run
        n_epochs = len(report.results[0].epochs)
        assert report.batch_rates.shape == (n_epochs, len(report.regions))
        assert (report.batch_rates >= 0.0).all()
        assert report.batch_rates.sum() > 0.0

    def test_all_deadlines_met_with_ample_capacity(self, joint_run):
        report, _ = joint_run
        assert report.batch_deadline_attainment == 1.0
        assert report.batch_overdue_requests == 0.0

    def test_interactive_sla_unharmed(self, joint_run):
        report, _ = joint_run
        baseline = fleet().run(duration_h=24.0)
        assert report.sla_attainment >= baseline.sla_attainment - 1e-12

    def test_conservation_served_plus_queued_is_arrivals(self, joint_run):
        report, _ = joint_run
        job = fleet(batch=batch_job()).batch
        arrived = job.arrivals_requests(0.0, 24.0)
        accounted = (
            report.batch_completed_requests + report.batch_pending_requests
        )
        assert accounted == pytest.approx(arrived, rel=1e-9)

    def test_batch_table_and_histogram_render(self, joint_run):
        report, _ = joint_run
        headers, rows = report.batch_table()
        assert rows[-1][0] == "fleet"
        assert len(rows) == len(REGIONS) + 1
        assert all(len(r) == len(headers) for r in rows)
        edges, counts = report.shift_histogram(bin_h=1.0)
        assert edges.size == counts.size + 1
        assert counts.sum() == pytest.approx(
            report.batch_completed_requests, rel=1e-9
        )
        with pytest.raises(ValueError, match="histogram bin"):
            report.shift_histogram(bin_h=0.0)


class TestGatingInterplay:
    def test_hold_hints_keep_gpus_awake_for_the_backlog(self):
        gated = fleet(gating="reactive", demand="diurnal").run(duration_h=24.0)
        gated_batch = fleet(
            batch=batch_job(), gating="reactive", demand="diurnal"
        ).run(duration_h=24.0)
        assert gated.mean_awake_fraction < 1.0
        assert (
            gated_batch.mean_awake_fraction
            >= gated.mean_awake_fraction - 1e-12
        )
        assert gated_batch.batch_deadline_attainment == 1.0

    def test_defer_false_admits_on_arrival(self):
        report = fleet(batch=batch_job(defer=False)).run(duration_h=12.0)
        assert report.mean_shift_h == pytest.approx(0.0)
        assert report.batch_deadline_attainment == 1.0


@given(
    jobs_per_h=st.floats(min_value=36.0, max_value=288.0),
    deadline_h=st.floats(min_value=4.0, max_value=12.0),
    seed=st.integers(0, 3),
)
@settings(max_examples=8, deadline=None)
def test_property_no_miss_and_capacity_respected(jobs_per_h, deadline_h, seed):
    """Across feasible workload shapes: every deadline holds and the
    fleet never serves past its capacity envelope."""
    coord = fleet(
        batch=batch_job(jobs_per_h=jobs_per_h, deadline_h=deadline_h),
        seed=seed,
    )
    report = coord.run(duration_h=12.0)
    assert report.batch_deadline_attainment == 1.0
    for r, result in enumerate(report.results):
        cap = coord._capacity[r]
        for epoch in result.epochs:
            assert epoch.rate_per_s <= cap + 1e-9
