"""Experiment runner: the one memo and the derived metrics."""

from dataclasses import replace

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.core.service import CarbonAwareInferenceService
from repro.scenarios import RegionSpec, RoutingSpec, ScenarioSpec


@pytest.fixture()
def runner():
    return ExperimentRunner()


#: A paper-figure run: an N=1 scenario with no network.
SPEC = ScenarioSpec(
    regions=(RegionSpec(name="us-ciso"),),
    application="classification", scheme="base", fidelity="smoke",
    seed=0, n_gpus=2, duration_h=4.0, net_latency_ms=0.0,
    routing=RoutingSpec(router="static"),
)


class TestMemoization:
    def test_same_spec_returns_cached_object(self, runner):
        r1 = runner.run_scenario(SPEC)
        r2 = runner.run_scenario(SPEC)
        assert r1 is r2

    def test_different_spec_reruns(self, runner):
        r1 = runner.run_scenario(SPEC)
        r2 = runner.run_scenario(replace(SPEC, seed=1))
        assert r1 is not r2


class TestCustomTraces:
    def test_unknown_trace_raises(self):
        """fig16 maps each trace name onto a registry region; any other
        name fails before a single run, listing the names it maps."""
        from repro.analysis.experiments import fig16_geographic

        class NoRuns(ExperimentRunner):
            def run_scenario(self, spec):
                raise AssertionError(f"ran {spec.label}")

        with pytest.raises(
            ValueError, match="valid: ciso-march, ciso-september, eso-march"
        ):
            fig16_geographic(
                NoRuns(), fidelity="smoke",
                trace_names=("ciso-march", "mars-colony"),
            )


class TestDerivedMetrics:
    def test_carbon_saving_vs_self_is_zero(self, runner):
        base = runner.run_scenario(SPEC).results[0]
        assert ExperimentRunner.carbon_saving_pct(base, base) == 0.0

    def test_latency_norm_vs_self_is_one(self, runner):
        base = runner.run_scenario(SPEC).results[0]
        assert ExperimentRunner.latency_norm(base, base) == pytest.approx(1.0)


class TestFleetRuns:
    def _spec(self):
        from repro.scenarios import RegionSpec, RoutingSpec, ScenarioSpec

        return ScenarioSpec(
            regions=(RegionSpec(name="us-ciso"),),
            application="classification", scheme="base", fidelity="smoke",
            seed=0, n_gpus=2, duration_h=4.0,
            routing=RoutingSpec(router="static"),
        )

    def test_fleet_run_is_memoized(self, runner):
        r1 = runner.run_scenario(self._spec())
        r2 = runner.run_scenario(self._spec())
        assert r1 is r2

    def test_fleet_n1_static_matches_plain_run(self, runner):
        """The runner's fleet path and the single-cluster facade agree
        exactly on the paper trace (registry regions embed the same
        traces)."""
        fleet = runner.run_scenario(self._spec())
        plain = CarbonAwareInferenceService.create(
            application="classification", scheme="base", fidelity="smoke",
            seed=0, n_gpus=2,
        ).run(duration_h=4.0)
        assert fleet.total_requests == plain.total_requests
        assert fleet.mean_accuracy == plain.mean_accuracy
        assert fleet.total_energy_j == plain.total_energy_j
        assert fleet.total_carbon_g == plain.total_carbon_g

    def test_fleet_experiment_orders_routers(self, runner):
        """fleet_load_shifting: carbon-greedy saves carbon vs static and
        keeps SLA attainment — the PR's acceptance ordering."""
        from dataclasses import replace

        from repro.analysis.experiments import fleet_load_shifting

        ladder = replace(
            fleet_load_shifting,
            base=replace(fleet_load_shifting.base, n_gpus=2, duration_h=24.0),
            rows={
                k: fleet_load_shifting.rows[k]
                for k in ("static", "carbon-greedy")
            },
        )
        result = ladder(runner, fidelity="smoke", seed=0)
        runs = result.results
        assert (
            runs["carbon-greedy"].total_carbon_g
            < runs["static"].total_carbon_g
        )
        assert (
            runs["carbon-greedy"].sla_attainment
            >= runs["static"].sla_attainment
        )
        assert result.saving_pct("carbon-greedy", "static") > 0.0
        headers, rows = result.table()
        assert len(rows) == 2
