"""Geo-diurnal demand fleets: seed equivalence, conservation, routing wins.

The acceptance bar of the demand subsystem:

* a constant-demand N=1 fleet reproduces the seed service bit-for-bit,
* under diurnal demand the carbon-greedy router beats the static geo-DNS
  split on fleet carbon and the forecast-aware router matches or beats
  carbon-greedy, both at equal-or-better user SLA attainment (charged per
  (origin, serving-region) pair).
"""

import numpy as np
import pytest

from repro.carbon.traces import ciso_march_48h
from repro.core.service import CarbonAwareInferenceService
from repro.demand import (
    DiurnalDemandModel,
    GeoOrigin,
    LatencyMatrix,
    default_demand,
    default_origins,
)
from repro.fleet import (
    FleetCoordinator,
    Region,
    RegionalService,
    StaticRouter,
    region_by_name,
)
from repro.scenarios import (
    DemandSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
)

GPUS = 2
DEMAND_REGIONS = ("us-ciso", "uk-eso", "apac-solar")
RAMP, DRAIN, LOOKAHEAD = 0.10, 0.20, 6.0


def demand_spec(router, regions=DEMAND_REGIONS, lookahead_h=None):
    return ScenarioSpec(
        regions=tuple(RegionSpec(name=n) for n in regions),
        application="classification",
        scheme="clover",
        fidelity="smoke",
        seed=0,
        n_gpus=GPUS,
        routing=RoutingSpec(router=router, lookahead_h=lookahead_h),
        demand=DemandSpec(
            kind="diurnal", ramp_share_per_h=RAMP, drain_share_per_h=DRAIN
        ),
    )


def demand_fleet(router, **kwargs):
    return Scenario(demand_spec(router, **kwargs)).build()


def solo_constant_demand_fleet(scheme, seed):
    """One co-located origin at zero latency, demand at the nominal rate."""
    region = Region(
        name="solo", trace=ciso_march_48h(), pue=1.5,
        net_latency_ms=0.0, n_gpus=GPUS,
    )
    service = RegionalService.create(
        region, application="classification", scheme=scheme,
        fidelity="smoke", seed=seed,
    )
    return FleetCoordinator(
        [service],
        StaticRouter(),
        demand=default_demand(
            service.nominal_rate_per_s,
            kind="constant",
            origins=(GeoOrigin("local", 1.0, 0.0, "na"),),
        ),
        latency_matrix=LatencyMatrix(("local",), ("solo",), np.zeros((1, 1))),
    )


@pytest.fixture(scope="module")
def demand_runs():
    """static vs carbon-greedy vs forecast-aware over 48 h of demand."""
    out = {}
    for router, kw in (
        ("static", {}),
        ("carbon-greedy", {}),
        ("forecast-aware", dict(lookahead_h=LOOKAHEAD)),
    ):
        fleet = demand_fleet(router, **kw)
        out[router] = (fleet, fleet.run(duration_h=48.0))
    return out


class TestConstantDemandSeedEquivalence:
    def test_n1_constant_demand_is_bit_for_bit_seed(self):
        """One co-located origin, zero network, constant demand at the
        nominal rate: the fleet path IS the seed service, exactly."""
        fleet = solo_constant_demand_fleet("clover", seed=7)
        fleet_result = fleet.run(duration_h=6.0)

        service = CarbonAwareInferenceService.create(
            application="classification", scheme="clover",
            fidelity="smoke", seed=7, n_gpus=GPUS,
        )
        seed_result = service.run(duration_h=6.0)

        assert fleet_result.total_carbon_g == seed_result.total_carbon_g
        assert fleet_result.total_energy_j == seed_result.total_energy_j
        assert fleet_result.total_requests == seed_result.total_requests
        assert fleet_result.mean_accuracy == seed_result.mean_accuracy
        for fe, se in zip(fleet_result.results[0].epochs, seed_result.epochs):
            assert fe.carbon_g == se.carbon_g
            assert fe.p95_ms == se.p95_ms
            assert fe.rate_per_s == se.rate_per_s
            assert fe.config_label == se.config_label

    def test_n1_constant_demand_reports_demand_views(self):
        fleet = solo_constant_demand_fleet("base", seed=0)
        result = fleet.run(duration_h=3.0)
        assert result.has_demand
        assert result.origin_request_shares == {"local": pytest.approx(1.0)}
        assert result.mean_net_latency_ms == pytest.approx(0.0)
        assert result.user_sla_attainment == pytest.approx(
            result.sla_attainment
        )


class TestAcceptance:
    """The ISSUE's headline ordering, at the tuned experiment settings."""

    def test_carbon_greedy_beats_static_on_carbon(self, demand_runs):
        static = demand_runs["static"][1]
        greedy = demand_runs["carbon-greedy"][1]
        assert greedy.total_carbon_g < static.total_carbon_g
        saving = 1.0 - greedy.total_carbon_g / static.total_carbon_g
        assert saving > 0.02  # a real win, not float noise

    def test_forecast_aware_at_least_matches_carbon_greedy(self, demand_runs):
        greedy = demand_runs["carbon-greedy"][1]
        fa = demand_runs["forecast-aware"][1]
        assert fa.total_carbon_g <= greedy.total_carbon_g

    def test_carbon_routers_keep_user_sla(self, demand_runs):
        static = demand_runs["static"][1]
        for router in ("carbon-greedy", "forecast-aware"):
            assert (
                demand_runs[router][1].user_sla_attainment
                >= static.user_sla_attainment
            )

    def test_accuracy_stays_in_paper_band(self, demand_runs):
        for _, result in demand_runs.values():
            assert result.accuracy_loss_pct < 5.5

    def test_share_shifts_off_the_dirty_region(self, demand_runs):
        static = demand_runs["static"][1]
        greedy = demand_runs["carbon-greedy"][1]
        assert (
            greedy.request_shares["apac-solar"]
            < static.request_shares["apac-solar"]
        )


class TestDemandConservation:
    def test_per_epoch_rates_match_demand_model(self, demand_runs):
        """Every epoch, routed regional rates sum to the demand model's
        global rate at that epoch — nonstationary conservation."""
        fleet, result = demand_runs["carbon-greedy"]
        for i in range(len(result.results[0].epochs)):
            t_h = result.results[0].epochs[i].t_h
            routed = sum(r.epochs[i].rate_per_s for r in result.results)
            assert routed == pytest.approx(
                fleet.demand.total_rate(t_h), rel=1e-9
            )

    def test_origin_plans_are_complete_transports(self, demand_runs):
        """Each epoch's plan rows sum to the origin rates and its columns
        to the routed regional rates."""
        fleet, result = demand_runs["forecast-aware"]
        for i, plan in enumerate(result.origin_plans):
            t_h = result.results[0].epochs[i].t_h
            np.testing.assert_allclose(
                plan.sum(axis=1), fleet.demand.rates(t_h), rtol=1e-9
            )
            rates = np.array([r.epochs[i].rate_per_s for r in result.results])
            np.testing.assert_allclose(plan.sum(axis=0), rates, rtol=1e-9)

    def test_session_drain_limits_hold(self, demand_runs):
        """No cell sheds more than the drain limit per epoch (scaled with
        its origin's demand); cells below the planner's de-minimis share
        of their origin's demand are exempt (they are dropped outright so
        a decaying residue cannot throttle a region forever)."""
        _, result = demand_runs["carbon-greedy"]
        keep = 1.0 - DRAIN  # hourly epochs at smoke fidelity
        plans = result.origin_plans
        for i in range(1, len(plans)):
            prev_rows = plans[i - 1].sum(axis=1)
            rows = plans[i].sum(axis=1)
            ratio = np.minimum(1.0, rows / np.maximum(prev_rows, 1e-12))
            floor = plans[i - 1] * ratio[:, None] * keep
            binding = floor > 1e-3 * rows[:, None]
            assert (plans[i][binding] >= floor[binding] - 1e-6).all()


class TestDemandReporting:
    def test_origin_shares_match_population_order(self, demand_runs):
        _, result = demand_runs["static"]
        shares = result.origin_request_shares
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["asia-pacific"] == max(shares.values())

    def test_mean_net_latency_positive_and_bounded(self, demand_runs):
        _, result = demand_runs["carbon-greedy"]
        lat = result.mean_net_latency_ms
        assert 0.0 < lat < result.latency_matrix_ms.max()

    def test_cache_stats_by_region_cover_all_regions(self, demand_runs):
        """The per-region evaluator cache counters surface in the summary."""
        _, result = demand_runs["carbon-greedy"]
        stats = result.cache_stats_by_region
        assert set(stats) == set(DEMAND_REGIONS)
        pooled = result.cache_stats
        assert pooled.hits == sum(s.hits for s in stats.values())
        assert pooled.misses == sum(s.misses for s in stats.values())
        assert pooled.batched == sum(s.batched for s in stats.values())
        for s in stats.values():
            assert s.misses > 0

    def test_batched_evaluations_surface_in_summary(self, demand_runs):
        """Demand-mode routing drives the batched SLA bisections, so the
        batch counter must be non-zero and bounded by the misses."""
        _, result = demand_runs["carbon-greedy"]
        pooled = result.cache_stats
        assert pooled.batched > 0
        assert pooled.batched <= pooled.misses
        assert 0.0 < pooled.batch_rate <= 1.0

    def test_region_table_has_cache_column(self, demand_runs):
        _, result = demand_runs["carbon-greedy"]
        headers, rows = result.table()
        assert "CacheHit%" in headers
        assert "Batch%" in headers
        assert len(rows) == len(DEMAND_REGIONS) + 1
        assert len(headers) == len(rows[0])

    def test_origin_table_renders(self, demand_runs):
        _, result = demand_runs["forecast-aware"]
        headers, rows = result.origin_table()
        assert len(rows) == 3
        assert {r[0] for r in rows} == set(result.origin_names)
        assert len(headers) == len(rows[0])

    def test_demand_views_rejected_without_demand(self):
        spec = ScenarioSpec(
            regions=(RegionSpec(name="us-ciso"),),
            scheme="base", fidelity="smoke", seed=0, n_gpus=GPUS,
            routing=RoutingSpec(router="static"),
        )
        result = Scenario(spec).build().run(duration_h=2.0)
        assert not result.has_demand
        with pytest.raises(ValueError, match="demand"):
            _ = result.origin_request_shares


class TestKeepAlive:
    def test_homeless_region_keeps_a_positive_rate(self):
        """Two regions in one zone: the one that is nobody's nearest
        origin must still be planned a keep-alive rate every epoch (a
        zero-rate region has no defined service measurement)."""
        fleet = demand_fleet(
            "forecast-aware",
            regions=("us-ciso", "uk-eso", "nordic-hydro"),  # two eu zones
            lookahead_h=LOOKAHEAD,
        )
        result = fleet.run(duration_h=6.0)
        for run in result.results:
            for e in run.epochs:
                assert e.rate_per_s > 0.0

    def test_router_instance_reusable_across_fleets(self):
        """A router instance that already served one fleet run carries no
        regret state into the next fleet — the coordinator resets it, so
        a shared instance routes identically to a fresh one."""
        from repro.fleet import ForecastAwareRouter

        def routed_by(router):
            """A fresh demand fleet's built parts under ``router``."""
            parts = demand_fleet("forecast-aware", lookahead_h=LOOKAHEAD)
            return FleetCoordinator(
                parts.services,
                router,
                demand=parts.demand,
                latency_matrix=parts.latency_matrix,
                ramp_share_per_h=RAMP,
                drain_share_per_h=DRAIN,
            )

        shared = ForecastAwareRouter(lookahead_h=LOOKAHEAD)
        routed_by(shared).run(duration_h=6.0)
        reused = routed_by(shared).run(duration_h=6.0)
        fresh = routed_by(
            ForecastAwareRouter(lookahead_h=LOOKAHEAD)
        ).run(duration_h=6.0)
        assert reused.total_carbon_g == fresh.total_carbon_g
        assert reused.total_requests == fresh.total_requests


class TestValidation:
    def test_demand_model_origins_must_match_matrix(self):
        region = region_by_name("us-ciso", n_gpus=GPUS)
        model = DiurnalDemandModel(
            origins=default_origins(), mean_total_rate_per_s=10.0
        )
        bad_matrix = LatencyMatrix(
            ("someone-else",), ("us-ciso",), np.zeros((1, 1))
        )
        service = RegionalService.create(region, fidelity="smoke")
        with pytest.raises(ValueError, match="origins"):
            FleetCoordinator(
                [service], StaticRouter(),
                demand=model, latency_matrix=bad_matrix,
            )

    def test_unknown_demand_kind_rejected(self):
        with pytest.raises(ValueError, match="demand kind"):
            DemandSpec(kind="chaotic")

    def test_lookahead_on_nonforecast_router_rejected(self):
        with pytest.raises(ValueError, match="lookahead"):
            demand_spec("static", regions=("us-ciso",), lookahead_h=4.0)

    def test_bad_ramp_rejected(self):
        with pytest.raises(ValueError, match="ramp"):
            DemandSpec(kind="diurnal", ramp_share_per_h=-0.1)
        service = RegionalService.create(
            region_by_name("us-ciso", n_gpus=GPUS), fidelity="smoke"
        )
        with pytest.raises(ValueError, match="ramp"):
            FleetCoordinator([service], StaticRouter(), ramp_share_per_h=-0.1)
