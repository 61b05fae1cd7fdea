"""Experiment runner: memoization and derived metrics."""

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.carbon.intensity import CarbonIntensityTrace


@pytest.fixture()
def runner():
    return ExperimentRunner()


SPEC = RunSpec(
    application="classification", scheme="base", fidelity="smoke",
    seed=0, n_gpus=2, duration_h=4.0,
)


class TestMemoization:
    def test_same_spec_returns_cached_object(self, runner):
        r1 = runner.run(SPEC)
        r2 = runner.run(SPEC)
        assert r1 is r2

    def test_different_spec_reruns(self, runner):
        r1 = runner.run(SPEC)
        r2 = runner.run(
            RunSpec(
                application="classification", scheme="base", fidelity="smoke",
                seed=1, n_gpus=2, duration_h=4.0,
            )
        )
        assert r1 is not r2


class TestCustomTraces:
    def test_registered_trace_is_used(self, runner):
        flat = CarbonIntensityTrace(
            times_h=np.array([0.0, 48.0]),
            values=np.array([123.0, 123.0]),
            name="flat-123",
        )
        runner.register_trace("flat-123", flat)
        r = runner.run(
            RunSpec(
                application="classification", scheme="base",
                trace_name="flat-123", fidelity="smoke", seed=0,
                n_gpus=2, duration_h=4.0,
            )
        )
        assert r.trace_name == "flat-123"
        assert all(e.ci == pytest.approx(123.0) for e in r.epochs)

    def test_unknown_trace_raises(self, runner):
        with pytest.raises(KeyError):
            runner.run(
                RunSpec(
                    application="classification", scheme="base",
                    trace_name="mars-colony", fidelity="smoke", seed=0,
                )
            )


class TestDerivedMetrics:
    def test_carbon_saving_vs_self_is_zero(self, runner):
        base = runner.run(SPEC)
        assert ExperimentRunner.carbon_saving_pct(base, base) == 0.0

    def test_latency_norm_vs_self_is_one(self, runner):
        base = runner.run(SPEC)
        assert ExperimentRunner.latency_norm(base, base) == pytest.approx(1.0)

    def test_run_matrix_keys(self, runner):
        out = runner.run_matrix(
            ("base",), ("classification",), fidelity="smoke", seed=0,
            n_gpus=2, duration_h=4.0,
        )
        assert set(out) == {("classification", "base")}


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
        """The runner's fleet path and single-cluster path agree exactly
        on the paper trace (registry regions embed the same traces)."""
        fleet = runner.run_scenario(self._spec())
        plain = runner.run(SPEC)
        assert fleet.total_requests == plain.total_requests
        assert fleet.mean_accuracy == plain.mean_accuracy
        # Carbon differs only by the run's PUE; energy is PUE-free.
        assert fleet.total_energy_j == plain.total_energy_j

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

    def test_fig16_custom_trace_falls_back_to_single_cluster(self, runner):
        """Traces registered on the runner (no fleet region) still work."""
        import numpy as np

        from repro.analysis.experiments import fig16_geographic
        from repro.carbon.intensity import CarbonIntensityTrace

        flat = CarbonIntensityTrace(
            times_h=np.array([0.0, 48.0]),
            values=np.array([200.0, 200.0]),
            name="flat-200",
        )
        runner.register_trace("flat-200", flat)
        result = fig16_geographic(
            runner, fidelity="smoke", seed=0,
            applications=("classification",), trace_names=("flat-200",),
        )
        assert ("flat-200", "classification") in result.carbon_save_pct
