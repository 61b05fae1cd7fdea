"""Cross-region evaluator cache pooling (satellite)."""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.regional import RegionalService
from repro.fleet.regions import region_by_name
from repro.fleet.routing import make_router
from repro.models.perf import PerfModel
from repro.models.zoo import default_zoo
from repro.scenarios import (
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
    build_coordinator,
)


#: A uniform-hardware fleet: every region's analytic cache pools.
SPEC = ScenarioSpec(
    regions=(
        RegionSpec(name="us-ciso"),
        RegionSpec(name="uk-eso"),
        RegionSpec(name="nordic-hydro"),
    ),
    scheme="clover",
    fidelity="smoke",
    n_gpus=2,
    duration_h=6.0,
    routing=RoutingSpec(router="carbon-greedy"),
)


def isolated(spec: ScenarioSpec) -> FleetCoordinator:
    """The fleet :func:`build_coordinator` assembles, minus the pooling."""
    zoo, perf = default_zoo(), PerfModel()
    services = [
        RegionalService.create(
            region=region_by_name(r.name, n_gpus=spec.n_gpus, devices=r.devices),
            application=spec.application,
            scheme=spec.scheme,
            lambda_weight=spec.lambda_weight,
            fidelity=spec.fidelity,
            seed=spec.seed + i,
            zoo=zoo,
            perf=perf,
        )
        for i, r in enumerate(spec.regions)
    ]
    return FleetCoordinator(services, make_router(spec.routing.router))


def opt_misses(result) -> int:
    return sum(
        r.opt_cache.misses for r in result.results if r.opt_cache is not None
    )


class TestSharedCache:
    def test_results_identical_with_and_without_sharing(self):
        """Pooling is a pure-function cache merge: no number may move."""
        pooled = Scenario(SPEC).run()
        alone = isolated(SPEC).run(duration_h=SPEC.duration_h)
        assert pooled.total_carbon_g == alone.total_carbon_g
        assert pooled.total_energy_j == alone.total_energy_j
        assert pooled.total_requests == alone.total_requests
        assert pooled.mean_accuracy == alone.mean_accuracy
        for p_r, i_r in zip(pooled.results, alone.results):
            assert [e.p95_ms for e in p_r.epochs] == [
                e.p95_ms for e in i_r.epochs
            ]

    def test_warm_up_evaluation_count_drops_on_uniform_fleet(self):
        """The satellite's acceptance: identical-hardware regions stop
        re-deriving each other's evaluations."""
        pooled = Scenario(SPEC).run()
        alone = isolated(SPEC).run(duration_h=SPEC.duration_h)
        assert opt_misses(pooled) < opt_misses(alone)

    def test_hit_stats_still_reported_per_region(self):
        pooled = Scenario(SPEC).run()
        by_region = pooled.cache_stats_by_region
        assert set(by_region) == {"us-ciso", "uk-eso", "nordic-hydro"}
        assert all(s.evaluations > 0 for s in by_region.values())

    def test_different_pools_never_share(self):
        """Pooling groups by device pool: mixed-silicon fleets keep their
        per-region caches apart (cache-key isolation is preserved)."""
        mixed = ScenarioSpec(
            regions=(
                RegionSpec(name="us-ciso", devices="a100"),
                RegionSpec(name="uk-eso", devices="l4"),
            ),
            fidelity="smoke",
            n_gpus=2,
        )
        fleet = build_coordinator(mixed)
        evaluators = [s.service.scheme.evaluator for s in fleet.services]
        assert evaluators[0].cache_store is not evaluators[1].cache_store
        # ... while same-pool services do share.
        uniform = build_coordinator(SPEC)
        stores = {
            id(s.service.scheme.evaluator.cache_store)
            for s in uniform.services
        }
        assert len(stores) == 1

    def test_measure_evaluators_never_pooled(self):
        """DES measurement caches are seed-dependent and must stay
        per-region even when the analytic caches pool."""
        fleet = build_coordinator(SPEC)
        stores = {
            id(s.controller.measure_evaluator.cache_store)
            for s in fleet.services
        }
        assert len(stores) == len(fleet.services)
