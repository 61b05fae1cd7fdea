"""FleetCoordinator: N=1 seed equivalence, conservation, routing wins."""

import numpy as np
import pytest

from repro.carbon.traces import ciso_march_48h
from repro.core.service import CarbonAwareInferenceService
from repro.fleet import (
    DEFAULT_FLOOR_SHARE,
    FleetCoordinator,
    Region,
    RegionalService,
    StaticRouter,
)
from repro.scenarios import RegionSpec, RoutingSpec, Scenario, ScenarioSpec

#: Small clusters + smoke fidelity keep the fleet tests in CI budget.
GPUS = 2


def solo_region(net_latency_ms=0.0):
    """A region that mirrors the seed service's defaults exactly."""
    return Region(
        name="solo",
        trace=ciso_march_48h(),
        pue=1.5,
        net_latency_ms=net_latency_ms,
        n_gpus=GPUS,
    )


def solo_service(scheme="base", seed=0, net_latency_ms=0.0):
    return RegionalService.create(
        solo_region(net_latency_ms),
        application="classification",
        scheme=scheme,
        fidelity="smoke",
        seed=seed,
    )


def fleet_spec(names, router="static", **overrides):
    return ScenarioSpec(
        regions=tuple(RegionSpec(name=n) for n in names),
        n_gpus=GPUS,
        fidelity="smoke",
        routing=RoutingSpec(router=router),
        **overrides,
    )


@pytest.fixture(scope="module")
def three_region_runs():
    """static vs carbon-greedy on the default 3-region fleet (24 h)."""
    out = {}
    for router in ("static", "carbon-greedy"):
        fleet = Scenario(
            fleet_spec(
                ("us-ciso", "uk-eso", "nordic-hydro"), router, scheme="clover"
            )
        ).build()
        out[router] = (fleet, fleet.run(duration_h=24.0))
    return out


class TestSingleRegionEquivalence:
    @pytest.mark.parametrize(
        "scheme", ["base", "co2opt", "blover", "clover", "oracle"]
    )
    def test_static_n1_reproduces_seed_service_exactly(self, scheme):
        """The acceptance bar: one region + static router == the seed
        CarbonAwareInferenceService.run, bit for bit — every epoch and
        invocation record and both cache counters, for every scheme the
        paper figures run as N=1 scenarios."""
        fleet = FleetCoordinator(
            [solo_service(scheme, seed=7)], StaticRouter()
        )
        fleet_result = fleet.run(duration_h=6.0)

        service = CarbonAwareInferenceService.create(
            application="classification",
            scheme=scheme,
            fidelity="smoke",
            seed=7,
            n_gpus=GPUS,
        )
        seed_result = service.run(duration_h=6.0)

        assert fleet_result.total_carbon_g == seed_result.total_carbon_g
        assert fleet_result.total_energy_j == seed_result.total_energy_j
        assert fleet_result.total_requests == seed_result.total_requests
        assert fleet_result.mean_accuracy == seed_result.mean_accuracy
        region_run = fleet_result.results[0]
        assert region_run.sla_target_ms == seed_result.sla_target_ms
        assert region_run.epochs == seed_result.epochs
        assert region_run.invocations == seed_result.invocations
        assert region_run.opt_cache == seed_result.opt_cache
        assert region_run.measure_cache == seed_result.measure_cache

    def test_n1_default_duration_is_trace_span(self):
        fleet = FleetCoordinator([solo_service()], StaticRouter())
        assert fleet.run().duration_h == pytest.approx(48.0)


class TestConservation:
    def test_per_epoch_arrivals_conserved(self, three_region_runs):
        """Every epoch, the regions' routed requests sum to the global
        workload — Poisson thinning never creates or drops arrivals."""
        for fleet, result in three_region_runs.values():
            per_epoch_global = fleet.global_rate_per_s * fleet.step_s
            n_epochs = len(result.results[0].epochs)
            for i in range(n_epochs):
                routed = sum(r.epochs[i].requests for r in result.results)
                assert routed == pytest.approx(per_epoch_global, rel=1e-9)

    def test_total_requests_match_global_workload(self, three_region_runs):
        fleet, result = three_region_runs["carbon-greedy"]
        expected = fleet.global_rate_per_s * result.duration_h * 3600.0
        assert result.total_requests == pytest.approx(expected, rel=1e-9)

    def test_request_shares_sum_to_one(self, three_region_runs):
        _, result = three_region_runs["carbon-greedy"]
        assert sum(result.request_shares.values()) == pytest.approx(1.0)


class TestCapacityAndSla:
    def test_carbon_greedy_respects_capacity(self, three_region_runs):
        fleet, result = three_region_runs["carbon-greedy"]
        for service, run in zip(fleet.services, result.results):
            for e in run.epochs:
                assert e.rate_per_s <= service.capacity_rate_per_s * (1 + 1e-9)

    def test_floor_traffic_always_served(self, three_region_runs):
        fleet, result = three_region_runs["carbon-greedy"]
        for service, run in zip(fleet.services, result.results):
            floor = DEFAULT_FLOOR_SHARE * service.nominal_rate_per_s
            for e in run.epochs:
                assert e.rate_per_s >= floor * (1 - 1e-9)

    def test_remote_region_sla_tightened_by_network_latency(self):
        near_sla = solo_service(net_latency_ms=0.0).sla_target_ms
        far_sla = solo_service(net_latency_ms=15.0).sla_target_ms
        assert far_sla == pytest.approx(near_sla - 15.0)

    def test_unreachable_region_rejected(self):
        with pytest.raises(ValueError, match="never"):
            solo_service(net_latency_ms=10_000.0)


class TestLoadShiftingWins:
    def test_carbon_greedy_beats_static_on_carbon(self, three_region_runs):
        """The tentpole acceptance: shifting toward the cleanest grid cuts
        total fleet carbon vs the static split."""
        static = three_region_runs["static"][1]
        greedy = three_region_runs["carbon-greedy"][1]
        assert greedy.total_carbon_g < static.total_carbon_g

    def test_carbon_greedy_keeps_sla_attainment(self, three_region_runs):
        static = three_region_runs["static"][1]
        greedy = three_region_runs["carbon-greedy"][1]
        assert greedy.sla_attainment >= static.sla_attainment

    def test_share_shifts_toward_clean_region(self, three_region_runs):
        static = three_region_runs["static"][1]
        greedy = three_region_runs["carbon-greedy"][1]
        assert (
            greedy.request_shares["nordic-hydro"]
            > static.request_shares["nordic-hydro"]
        )


class TestFleetResult:
    def test_totals_are_region_sums(self, three_region_runs):
        _, result = three_region_runs["static"]
        assert result.total_carbon_g == pytest.approx(
            sum(r.total_carbon_g for r in result.results)
        )
        assert result.total_energy_j == pytest.approx(
            sum(r.total_energy_j for r in result.results)
        )

    def test_accuracy_is_request_weighted(self, three_region_runs):
        _, result = three_region_runs["static"]
        lo = min(r.mean_accuracy for r in result.results)
        hi = max(r.mean_accuracy for r in result.results)
        assert lo <= result.mean_accuracy <= hi

    def test_cache_counters_reported(self, three_region_runs):
        _, result = three_region_runs["carbon-greedy"]
        stats = result.cache_stats
        assert stats.misses > 0
        assert stats.hits > 0
        assert 0.0 < stats.hit_rate < 1.0
        for run in result.results:
            assert run.measure_cache is not None
            assert run.measure_cache.evaluations > 0
            assert run.opt_cache is not None

    def test_table_renders(self, three_region_runs):
        _, result = three_region_runs["carbon-greedy"]
        headers, rows = result.table()
        assert len(rows) == 4  # 3 regions + the fleet summary row
        assert rows[-1][0] == "fleet"
        assert len(headers) == len(rows[0])


class TestValidation:
    def test_duplicate_region_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetCoordinator(
                [solo_service(seed=0), solo_service(seed=1)], StaticRouter()
            )

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetCoordinator([], StaticRouter())

    def test_region_seeds_differ(self):
        fleet = Scenario(
            fleet_spec(("us-ciso", "uk-eso"), scheme="base", seed=3)
        ).build()
        seeds = {s.service.controller.measure_evaluator.seed for s in fleet.services}
        assert len(seeds) == 2
