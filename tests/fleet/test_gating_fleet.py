"""Elastic capacity end to end: equivalence, energy, zero traffic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.traces import ciso_march_48h
from repro.core.controller import EpochCapacity
from repro.core.service import CarbonAwareInferenceService
from repro.fleet import (
    FleetCoordinator,
    GatingPolicy,
    Region,
    RegionalService,
    StaticRouter,
)
from repro.gpu.profiles import A100_PROFILE
from repro.scenarios import (
    DemandSpec,
    GatingSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
)

GPUS = 2
DEMAND_REGIONS = ("us-ciso", "uk-eso", "apac-solar")


def solo_region(net_latency_ms=0.0):
    return Region(
        name="solo",
        trace=ciso_march_48h(),
        pue=1.5,
        net_latency_ms=net_latency_ms,
        n_gpus=GPUS,
    )


def demand_fleet(gating=None):
    spec = ScenarioSpec(
        regions=tuple(RegionSpec(name=n) for n in DEMAND_REGIONS),
        scheme="clover",
        fidelity="smoke",
        seed=0,
        n_gpus=GPUS,
        routing=RoutingSpec(router="carbon-greedy"),
        demand=DemandSpec(
            kind="diurnal", ramp_share_per_h=0.10, drain_share_per_h=0.20
        ),
        gating=GatingSpec(mode=gating),
    )
    return Scenario(spec).build()


@pytest.fixture(scope="module")
def gated_vs_always_on():
    """carbon-greedy on the demand fleet, gated and always-on (24 h)."""
    on = demand_fleet(gating=None).run(duration_h=24.0)
    gated = demand_fleet(gating="reactive").run(duration_h=24.0)
    return on, gated


class TestGatingDisabledEquivalence:
    def test_n1_gating_none_is_seed_service_bit_for_bit(self):
        """The acceptance bar: gating disabled changes nothing — the N=1
        constant-demand fleet still reproduces the seed service exactly,
        epoch by epoch."""
        service = RegionalService.create(
            solo_region(), scheme="clover", fidelity="smoke", seed=7
        )
        fleet = FleetCoordinator([service], StaticRouter(), gating=None)
        fleet_result = fleet.run(duration_h=6.0)
        seed_result = CarbonAwareInferenceService.create(
            application="classification",
            scheme="clover",
            fidelity="smoke",
            seed=7,
            n_gpus=GPUS,
        ).run(duration_h=6.0)
        assert fleet_result.total_carbon_g == seed_result.total_carbon_g
        assert fleet_result.total_energy_j == seed_result.total_energy_j
        for fe, se in zip(fleet_result.results[0].epochs, seed_result.epochs):
            assert fe.energy_j == se.energy_j
            assert fe.p95_ms == se.p95_ms
            assert fe.awake_gpus is None

    def test_gating_off_runs_report_no_gating(self, gated_vs_always_on):
        on, gated = gated_vs_always_on
        assert not on.has_gating
        assert on.mean_awake_fraction == 1.0
        assert gated.has_gating
        assert gated.gating_name == "reactive"

    def test_rerun_resets_capacity_managers(self):
        """Regression: run() used to reset the router and services but not
        the capacity managers, so a second run started from a stale awake
        count / pending transitions / hysteresis streak.  (Full bit-equal
        reruns of a reused coordinator are not a guarantee — schemes keep
        warm-start state across runs, which is why the harness builds a
        fresh coordinator per run — but the capacity state machine must
        boot fully provisioned every run.)"""
        fleet = demand_fleet(gating="reactive")
        first = fleet.run(duration_h=12.0)
        assert first.awake_gpu_series().min() < GPUS  # GPUs really slept
        # At least one manager ends the run carrying non-boot state.
        assert any(
            mgr.awake < mgr.n_gpus or mgr.total_wakes > 0
            for mgr in fleet._managers
        )
        second = fleet.run(duration_h=12.0)
        # Epoch 0 of the rerun starts from the boot state everywhere.
        assert (second.awake_gpu_series()[0] == GPUS).all()
        for mgr, result in zip(fleet._managers, second.results):
            assert result.epochs[0].awake_gpus == GPUS

    def test_overspending_wake_energy_rejected(self):
        """The no-overspend invariant is enforced, not just documented: a
        wake transition may not draw more than the static floor it was
        gated from."""
        parts = demand_fleet()
        with pytest.raises(ValueError, match="out-spend"):
            FleetCoordinator(
                parts.services,
                parts.router,
                demand=parts.demand,
                latency_matrix=parts.latency_matrix,
                gating=GatingPolicy(wake_latency_s=10.0),  # default 2 kJ wake
            )


class TestGatedEnergy:
    def test_gated_fleet_sleeps_gpus(self, gated_vs_always_on):
        _, gated = gated_vs_always_on
        assert gated.mean_awake_fraction < 1.0
        awake = gated.awake_gpu_series()
        assert awake.min() >= 1
        assert awake.max() <= GPUS

    def test_gated_total_energy_below_always_on(self, gated_vs_always_on):
        on, gated = gated_vs_always_on
        assert gated.total_energy_j < on.total_energy_j
        assert gated.total_carbon_g < on.total_carbon_g

    def test_gated_per_epoch_energy_never_exceeds_always_on(
        self, gated_vs_always_on
    ):
        """Satellite property at fleet scope: epoch by epoch, the gated
        fleet never spends more energy than its always-on twin — sleep
        savings always cover the (static-floor-bounded) wake transitions."""
        on, gated = gated_vs_always_on
        for i in range(len(on.results[0].epochs)):
            e_on = sum(r.epochs[i].energy_j for r in on.results)
            e_gated = sum(r.epochs[i].energy_j for r in gated.results)
            assert e_gated <= e_on * (1.0 + 1e-9)

    def test_sla_still_judged(self, gated_vs_always_on):
        _, gated = gated_vs_always_on
        assert 0.0 < gated.user_sla_attainment <= 1.0


class ControllerHarness:
    """Two identical BASE services, one gated, driven with paired rates."""

    def __init__(self, seed=3):
        def make():
            return CarbonAwareInferenceService.create(
                application="classification",
                scheme="base",
                fidelity="smoke",
                seed=seed,
                n_gpus=4,
            )

        self.plain = make()
        self.gated = make()
        self.rate = self.plain.controller.rate_per_s

    def run_paired(self, awake_seq, rate_factors):
        c_plain, c_gated = self.plain.controller, self.gated.controller
        r_plain, r_gated = c_plain.begin_run(), c_gated.begin_run()
        power = c_plain.measure_evaluator.perf.power
        prev_awake = 4
        for i, (awake, factor) in enumerate(zip(awake_seq, rate_factors)):
            rate = self.rate * factor
            t_h = float(i)
            c_plain.step(r_plain, i, t_h, rate)
            woken = max(0, awake - prev_awake)
            capacity = EpochCapacity(
                awake_gpus=awake,
                serving_gpus_at_start=min(prev_awake, awake),
                wake_delay_s=60.0 if woken else 0.0,
                aux_energy_j=(
                    power.sleep_watts_per_gpu() * (4 - awake)
                    * c_gated.step_s
                    # The policy default (None) resolves to the device
                    # profile's per-wake energy — all-A100 here.
                    + A100_PROFILE.wake_energy_j * woken
                ),
            )
            c_gated.step(r_gated, i, t_h, rate, capacity=capacity)
            prev_awake = awake
        return c_plain.finalize(r_plain), c_gated.finalize(r_gated)


@given(
    awake_seq=st.lists(
        st.integers(min_value=1, max_value=4), min_size=3, max_size=8
    ),
    rate_factor=st.floats(min_value=0.05, max_value=0.9),
)
@settings(max_examples=12, deadline=None)
def test_property_gated_epoch_energy_bounded(awake_seq, rate_factor):
    """Paired-rate property at controller scope: with identical arrival
    rates, every gated epoch's energy (awake cluster + sleep draw + wake
    transitions) stays at or below the always-on epoch's."""
    harness = ControllerHarness()
    # The gated cluster must be able to carry the rate on one GPU.
    factors = [rate_factor * min(awake_seq) / 4.0] * len(awake_seq)
    plain, gated = harness.run_paired(awake_seq, factors)
    for pe, ge in zip(plain.epochs, gated.epochs):
        assert ge.energy_j <= pe.energy_j * (1.0 + 1e-9)
    assert gated.total_energy_j <= plain.total_energy_j * (1.0 + 1e-9)


class TestZeroTraffic:
    def test_zero_rate_epoch_serves_nothing_pays_static(self):
        service = CarbonAwareInferenceService.create(
            application="classification", scheme="base",
            fidelity="smoke", seed=0, n_gpus=GPUS,
        )
        controller = service.controller
        result = controller.begin_run()
        controller.step(result, 0, 0.0, controller.rate_per_s)
        record = controller.step(result, 1, 1.0, 0.0)
        assert record.requests == 0.0
        assert np.isnan(record.p95_ms)
        assert record.sla_met
        static = (
            controller.measure_evaluator.perf.power.static_watts_per_gpu()
            * GPUS
        )
        assert record.energy_j == pytest.approx(static * controller.step_s)
        assert record.carbon_g > 0.0

    def test_zero_traffic_run_views_do_not_divide_by_zero(self):
        service = CarbonAwareInferenceService.create(
            application="classification", scheme="base",
            fidelity="smoke", seed=0, n_gpus=GPUS,
        )
        controller = service.controller
        result = controller.begin_run()
        for i in range(3):
            controller.step(result, i, float(i), 0.0)
        controller.finalize(result)
        assert result.total_requests == 0.0
        assert np.isnan(result.carbon_g_per_request)
        assert np.isnan(result.mean_accuracy)
        assert np.isnan(result.worst_p95_ms)
        assert result.sla_violation_fraction == 0.0

    def test_fleet_views_survive_a_zero_request_region(self):
        """FleetResult aggregate views must stay well-defined when one
        region serves nothing for the whole window — the case gating
        makes common."""
        import dataclasses

        fleet = demand_fleet(gating="reactive")
        report = fleet.run(duration_h=12.0)
        # Zero out one region's record stream to simulate a fully-drained
        # gated region (rates, requests and measurements all nil).
        starved = report.results[1]
        starved.epochs[:] = [
            dataclasses.replace(
                e, requests=0.0, accuracy=0.0, p95_ms=float("nan"),
                rate_per_s=0.0,
            )
            for e in starved.epochs
        ]
        zeroed_plans = tuple(
            np.where([False, True, False], 0.0, plan)
            for plan in report.origin_plans
        )
        report = dataclasses.replace(report, origin_plans=zeroed_plans)
        assert np.isfinite(report.carbon_g_per_request)
        assert np.isfinite(report.mean_accuracy)
        assert 0.0 <= report.sla_attainment <= 1.0
        shares = report.request_shares
        assert shares[report.regions[1].name] == 0.0
        headers, rows = report.table()
        assert len(rows) == len(report.regions) + 1
        headers, rows = report.origin_table()
        assert len(rows) == len(report.origin_names)
        assert np.isfinite(report.mean_net_latency_ms)
