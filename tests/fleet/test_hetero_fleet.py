"""Heterogeneous fleets: bit-for-bit homogeneous anchor, routing, gating.

The acceptance bar of the heterogeneity PR: a fleet whose every region
explicitly declares A100 devices must be *bit-for-bit* identical to the
pre-heterogeneity fleet path (``devices=None``), while mixed fleets route
on effective gCO2/request and gate their least-efficient silicon first.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner
from repro.fleet import CapacityManager, GatingPolicy, region_by_name
from repro.fleet.regional import RegionalService
from repro.fleet.routing import CarbonGreedyRouter, RoutingContext, make_router
from repro.gpu.profiles import parse_region_devices
from repro.scenarios import (
    DemandSpec,
    GatingSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
    load_scenario_file,
)

GPUS = 2
SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


def small_fleet(
    devices, router="carbon-greedy", efficiency_weighted=True, **overrides
):
    spec = ScenarioSpec(
        regions=tuple(
            RegionSpec(name=name, devices=dev)
            for name, dev in (("us-ciso", devices[0]), ("uk-eso", devices[1]))
        ),
        fidelity="smoke",
        seed=0,
        n_gpus=GPUS,
        routing=RoutingSpec(
            router=router, efficiency_weighted=efficiency_weighted
        ),
        **overrides,
    )
    return Scenario(spec).build()


class TestHomogeneousBitForBit:
    @pytest.mark.parametrize("router", ["static", "carbon-greedy"])
    def test_explicit_a100_fleet_equals_pre_heterogeneity_path(self, router):
        """The acceptance criterion: all regions A100 == the pre-PR fleet,
        epoch by epoch, bit for bit."""
        implicit = small_fleet((None, None), router=router).run(duration_h=6.0)
        explicit = small_fleet(("a100", "a100"), router=router).run(
            duration_h=6.0
        )
        assert implicit.total_carbon_g == explicit.total_carbon_g
        assert implicit.total_energy_j == explicit.total_energy_j
        assert implicit.total_requests == explicit.total_requests
        assert implicit.sla_attainment == explicit.sla_attainment
        for a, b in zip(implicit.results, explicit.results):
            assert len(a.epochs) == len(b.epochs)
            for ea, eb in zip(a.epochs, b.epochs):
                assert ea.carbon_g == eb.carbon_g
                assert ea.p95_ms == eb.p95_ms
                assert ea.requests == eb.requests

    def test_explicit_tuple_form_is_also_anchored(self):
        implicit = small_fleet((None, None)).run(duration_h=3.0)
        explicit = small_fleet((("a100",) * GPUS, ("a100",) * GPUS)).run(
            duration_h=3.0
        )
        assert implicit.total_carbon_g == explicit.total_carbon_g

    def test_homogeneous_context_carries_no_energy_signal(self):
        fleet = small_fleet((None, None))
        ctx = fleet._context(0.0, fleet.global_rate_per_s, None)
        assert ctx.energy_per_request_j is None

    def test_heterogeneous_context_carries_energy_signal(self):
        fleet = small_fleet(("a100", "l4"))
        ctx = fleet._context(0.0, fleet.global_rate_per_s, None)
        assert ctx.energy_per_request_j is not None
        assert ctx.energy_per_request_j.shape == (2,)
        assert np.all(ctx.energy_per_request_j > 0)


class TestEfficiencyAwareRouting:
    def ctx(self, ci, energy):
        n = len(ci)
        return RoutingContext(
            t_h=0.0,
            global_rate_per_s=30.0,
            ci=np.asarray(ci, dtype=np.float64),
            pue=np.ones(n),
            net_latency_ms=np.zeros(n),
            nominal_rates=np.full(n, 10.0),
            capacity_rates=np.full(n, 15.0),
            sla_cap_rates=np.full(n, 15.0),
            floor_rates=np.full(n, 0.5),
            energy_per_request_j=(
                None if energy is None else np.asarray(energy, dtype=np.float64)
            ),
        )

    def test_flat_energy_returns_identical_scores_object(self):
        """Not merely the same ordering — the identical array, which is
        what keeps homogeneous fleets bit-for-bit."""
        ctx = self.ctx([100.0, 200.0], [5.0, 5.0])
        scores = ctx.effective_ci
        assert ctx.efficiency_scores(scores) is scores
        ctx_none = self.ctx([100.0, 200.0], None)
        assert ctx_none.efficiency_scores(scores) is scores

    def test_efficiency_ranking_flips_on_hungry_clean_region(self):
        """A clean grid on hungry silicon loses to a dirtier grid on lean
        silicon once the energy term is priced in."""
        ctx = self.ctx([100.0, 140.0], [12.0, 5.0])
        intensity_only = CarbonGreedyRouter(efficiency_weighted=False)
        efficiency = CarbonGreedyRouter(efficiency_weighted=True)
        assert list(intensity_only.region_order(ctx)) == [0, 1]
        assert list(efficiency.region_order(ctx)) == [1, 0]

    def test_make_router_passes_efficiency_flag(self):
        assert make_router("carbon-greedy").efficiency_weighted
        r = make_router("forecast-aware", efficiency_weighted=False)
        assert not r.efficiency_weighted

    def test_mixed_fleet_efficiency_beats_intensity_under_gating(self):
        """The tentpole's routing claim at test scale: strictly lower
        carbon at equal-or-better SLA on a mixed A100/L4 fleet."""
        kwargs = dict(
            gating=GatingSpec(mode="reactive", wake_energy_j=1000.0),
            demand=DemandSpec(
                kind="diurnal", ramp_share_per_h=0.10, drain_share_per_h=0.20
            ),
        )
        eff = small_fleet(
            ("a100", "l4"), efficiency_weighted=True, **kwargs
        ).run(duration_h=24.0)
        intensity = small_fleet(
            ("a100", "l4"), efficiency_weighted=False, **kwargs
        ).run(duration_h=24.0)
        assert eff.total_carbon_g < intensity.total_carbon_g
        assert eff.user_sla_attainment >= intensity.user_sla_attainment - 1e-12


class TestHeterogeneousRegionalService:
    @pytest.fixture(scope="class")
    def mixed_service(self):
        region = region_by_name("us-ciso", n_gpus=2, devices=("a100", "l4"))
        return RegionalService.create(region, fidelity="smoke", seed=0)

    def test_pool_is_canonical_best_first(self, mixed_service):
        assert mixed_service.device_pool.names == ("l4", "a100")

    def test_capacity_reflects_device_speeds(self, mixed_service):
        rates = mixed_service.device_capacity_rates
        # Canonical order (l4, a100): the L4 carries 0.4x the A100 rate.
        assert rates[0] == pytest.approx(0.4 * rates[1])
        assert sum(rates) == pytest.approx(mixed_service.capacity_rate_per_s)

    def test_awake_capacity_is_a_canonical_prefix_sum(self, mixed_service):
        full = mixed_service.capacity_rate_per_s
        mixed_service.set_awake(1)
        try:
            # The awake prefix is the L4 alone: 0.4/1.4 of the pool.
            assert mixed_service.awake_capacity_rate_per_s == pytest.approx(
                full * 0.4 / 1.4
            )
        finally:
            mixed_service.set_awake(None)

    def test_sleeping_draw_prices_the_gated_tail(self, mixed_service):
        # Gating to 1 awake sleeps the A100 (canonical tail): 6 W, not the
        # L4's 3 W.
        assert mixed_service.sleeping_draw_watts(1) == pytest.approx(6.0)
        assert mixed_service.sleeping_draw_watts(2) == 0.0

    def test_min_static_watts_is_the_leanest_device(self, mixed_service):
        assert mixed_service.min_static_watts_per_gpu() == pytest.approx(18.0)

    def test_marginal_energy_positive_and_finite(self, mixed_service):
        # Pre-deployment: the closed-form BASE fallback (statics included).
        e = mixed_service.marginal_energy_per_request_j()
        assert 0.0 < e < 1e3

    def test_marginal_energy_amortizes_static_once_deployed(self):
        region = region_by_name("us-ciso", n_gpus=2, devices=("a100", "l4"))
        svc = RegionalService.create(region, fidelity="smoke", seed=0)
        result = svc.begin_run()
        svc.step(result, 0, 0.0, svc.nominal_rate_per_s)
        dynamic_only = svc.marginal_energy_per_request_j()
        with_static = svc.marginal_energy_per_request_j(
            static_amortize_utilization=0.75
        )
        assert 0.0 < dynamic_only < with_static

    def test_l4_region_never_partitions(self):
        """Granularity 1 pins an L4 region's deployments to full GPUs."""
        region = region_by_name("us-ciso", n_gpus=2, devices="l4")
        svc = RegionalService.create(
            region, scheme="clover", fidelity="smoke", seed=0
        )
        result = svc.begin_run()
        for i in range(4):
            svc.step(result, i, float(i), svc.nominal_rate_per_s)
        svc.finalize(result)
        deployed = svc.controller.deployed
        assert deployed is not None
        assert all(a.partition_id == 1 for a in deployed.assignments)


class TestHeterogeneousCapacityManager:
    def test_prefix_sizing_sleeps_least_efficient_first(self):
        mgr = CapacityManager(
            n_gpus=3,
            capacity_rate_per_s=50.0,
            policy=GatingPolicy(),
            per_gpu_rates=(10.0, 20.0, 20.0),
        )
        # 10 req/s fits the first (most efficient) device at 100% of its
        # 10 req/s... but not at 75% target utilization.
        assert mgr.gpus_for(7.0, 0.75) == 1
        assert mgr.gpus_for(10.0, 0.75) == 2
        assert mgr.gpus_for(23.0, 0.75) == 3
        assert mgr.gpus_for(1e9, 0.75) == 3
        assert mgr.awake_rate_per_s() == pytest.approx(50.0)

    def test_per_gpu_rate_validation(self):
        with pytest.raises(ValueError, match="per-GPU rates"):
            CapacityManager(
                n_gpus=2, capacity_rate_per_s=10.0, policy=GatingPolicy(),
                per_gpu_rates=(5.0,),
            )
        with pytest.raises(ValueError, match="positive"):
            CapacityManager(
                n_gpus=2, capacity_rate_per_s=10.0, policy=GatingPolicy(),
                per_gpu_rates=(5.0, 0.0),
            )

    def test_default_wake_energy_fits_every_device(self):
        """Per-profile wake energies: the A100-sized 2 kJ scalar used to
        make a gated L4 fleet unassemblable; the profile defaults fit
        each board's own static ceiling, so the mixed fleet gates out of
        the box with no override."""
        fleet = small_fleet(("a100", "l4"), gating=GatingSpec(mode="reactive"))
        assert fleet.gating is not None
        assert fleet.gating.wake_energy_j is None  # per-device defaults

    def test_scalar_wake_energy_rejected_for_l4_fleet(self):
        """The gated-never-out-spends-always-on invariant is enforced
        against the leanest device: an L4 region with an explicit
        A100-sized 2 kJ wake energy must be rejected loudly."""
        with pytest.raises(ValueError, match="wake energy"):
            small_fleet(
                ("a100", "l4"),
                gating=GatingSpec(mode="reactive", wake_energy_j=2000.0),
            )


class TestScenarioDevices:
    def test_pools_with_an_l4_deploy_full_gpus_in_a_scenario_run(self):
        """Through the front door, every deployment of a region whose pool
        holds an L4 (``uk-eso`` mixes it with an A100, ``apac-solar`` is
        all L4) names partition 1 on each GPU."""
        spec, _ = load_scenario_file(SCENARIOS / "hetero_fleet.toml")
        result = Scenario(spec.with_fidelity("smoke")).build().run(duration_h=6.0)
        labels = {
            region.name: [inv.deployed_label for inv in run.invocations]
            for region, run in zip(result.regions, result.results)
        }
        for name in ("uk-eso", "apac-solar"):
            assert labels[name], name
            for label in labels[name]:
                assert set(ast.literal_eval(label)) == {1}, (name, label)

    def test_runner_threads_devices_and_efficiency_flag(self):
        runner = ExperimentRunner()
        spec = ScenarioSpec(
            regions=(
                RegionSpec(name="us-ciso", devices="a100"),
                RegionSpec(name="uk-eso", devices="l4"),
            ),
            fidelity="smoke",
            n_gpus=2,
            duration_h=3.0,
            routing=RoutingSpec(router="carbon-greedy"),
        )
        result = runner.run_scenario(spec)
        assert result.regions[0].devices is None or result.regions[0].devices
        assert result.regions[1].device_pool().names == ("l4", "l4")
        # The intensity-only ablation is a distinct memo entry.
        ablation = runner.run_scenario(
            spec.override("routing.efficiency_weighted", False)
        )
        assert ablation is not runner.run_scenario(spec)

    def test_mixed_pool_spec_string(self):
        result = ExperimentRunner().run_scenario(
            ScenarioSpec(
                regions=(
                    RegionSpec(
                        name="us-ciso",
                        devices=parse_region_devices("a100:1,l4:1"),
                    ),
                ),
                fidelity="smoke",
                n_gpus=2,
                duration_h=2.0,
                routing=RoutingSpec(router="static"),
            )
        )
        assert result.regions[0].device_pool().names == ("l4", "a100")

    def test_device_count_mismatch_rejected(self):
        spec = ScenarioSpec(
            regions=(RegionSpec(name="us-ciso", devices=("a100",) * 3),),
            fidelity="smoke",
            n_gpus=2,
        )
        with pytest.raises(ValueError, match="3 device entries"):
            Scenario(spec).build()
