"""Batched SLA-rate bisection (`sla_safe_rates`) vs the scalar method,
and the per-region envelope memo in front of it."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.fleet.regional import (
    PRE_DEPLOYMENT_BUDGET_SLACK_MS,
    RegionalService,
)
from repro.fleet.regions import region_by_name
from repro.scenarios import (
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
    load_scenario_file,
)

EXAMPLE_SCENARIOS = (
    Path(__file__).resolve().parents[2] / "examples" / "scenarios"
)

#: One us-ciso region behind the static router.
SOLO_SPEC = ScenarioSpec(
    regions=(RegionSpec(name="us-ciso"),),
    scheme="clover",
    fidelity="smoke",
    seed=0,
    n_gpus=2,
    routing=RoutingSpec(router="static"),
)


@pytest.fixture(scope="module")
def fresh_service():
    region = region_by_name("us-ciso", n_gpus=2)
    return RegionalService.create(region, fidelity="smoke", seed=0)


@pytest.fixture(scope="module")
def deployed_service():
    fleet = Scenario(SOLO_SPEC).build()
    fleet.run(duration_h=2.0)
    svc = fleet.services[0]
    assert svc.controller.deployed is not None
    return svc


class TestPreDeployment:
    def test_scalar_delegates_to_batch(self, fresh_service):
        svc = fresh_service
        cap = svc.awake_capacity_rate_per_s
        target = svc.sla_target_ms
        budgets = np.array([
            -5.0,
            0.0,
            target - PRE_DEPLOYMENT_BUDGET_SLACK_MS - 1.0,
            target - 1.0,
            target,
            target + 50.0,
        ])
        batch = svc.sla_safe_rates(budgets)
        scalar = np.array([svc.sla_safe_rate(float(b)) for b in budgets])
        np.testing.assert_array_equal(batch, scalar)  # exact
        assert batch[0] == batch[1] == 0.0  # non-positive budgets
        assert batch[2] == 0.0  # tighter than the slack window
        assert batch[3] == batch[4] == batch[5] == cap

    def test_default_budget_is_the_region_target(self, fresh_service):
        svc = fresh_service
        assert svc.sla_safe_rate() == svc.sla_safe_rate(svc.sla_target_ms)


class TestDeployed:
    def test_batch_identical_to_scalar_probes(self, deployed_service):
        svc = deployed_service
        target = svc.sla_target_ms
        budgets = np.concatenate([
            np.linspace(-10.0, 0.0, 3),  # non-positive -> 0.0
            np.linspace(1.0, 2.0 * target, 17),
        ])
        batch = svc.sla_safe_rates(budgets)
        scalar = np.array([svc.sla_safe_rate(float(b)) for b in budgets])
        # Each batch row runs exactly the scalar probe sequence, so the
        # agreement is bitwise, not approximate.
        np.testing.assert_array_equal(batch, scalar)
        assert (batch[:3] == 0.0).all()

    def test_monotone_in_budget(self, deployed_service):
        svc = deployed_service
        budgets = np.linspace(1.0, 2.0 * svc.sla_target_ms, 25)
        rates = svc.sla_safe_rates(budgets)
        assert (np.diff(rates) >= -1e-12).all()
        assert (rates <= svc.awake_capacity_rate_per_s + 1e-12).all()


@pytest.fixture
def churned_service():
    """A deployed region the test may redeploy, gate and re-budget."""
    fleet = Scenario(SOLO_SPEC).build()
    fleet.run(duration_h=2.0)
    return fleet.services[0]


def opt_counters(svc):
    stats = svc.service.scheme.evaluator.cache_stats
    return stats.hits, stats.misses, stats.size, stats.batched


class TestEnvelopeMemo:
    def test_equals_a_memo_less_bisection_across_changes(self, churned_service):
        svc = churned_service
        target = svc.sla_target_ms
        tables = [
            np.array([target]),
            np.array([target - 4.0, target + 3.0]),
            np.linspace(-1.0, 2.0 * target, 9),
        ]
        states = [
            (deployed, awake)
            for deployed in (
                svc.controller.deployed,
                svc.service.scheme.initial_config(),
                None,
            )
            for awake in (None, 1)
        ]
        expected = {}
        for s_i, (deployed, awake) in enumerate(states):
            svc.controller._deployed = deployed
            svc.set_awake(awake)
            for t_i, budgets in enumerate(tables):
                got = svc.sla_safe_rates(budgets)
                ref = svc._bisect_safe_rates(budgets, 12)
                np.testing.assert_array_equal(got, ref)
                expected[s_i, t_i] = ref
        # Revisiting every state in reverse order is served from the memo:
        # bit-identical envelopes, and not one evaluator lookup.
        for s_i in reversed(range(len(states))):
            deployed, awake = states[s_i]
            svc.controller._deployed = deployed
            svc.set_awake(awake)
            for t_i, budgets in enumerate(tables):
                before = opt_counters(svc)
                got = svc.sla_safe_rates(budgets)
                assert opt_counters(svc) == before
                assert got.tobytes() == expected[s_i, t_i].tobytes()

    def test_hands_out_independent_copies(self, churned_service):
        svc = churned_service
        budgets = np.linspace(1.0, 2.0 * svc.sla_target_ms, 5)
        first = svc.sla_safe_rates(budgets)
        second = svc.sla_safe_rates(budgets)
        assert first is not second
        np.testing.assert_array_equal(first, second)
        first[:] = -1.0
        budgets[:] = 0.0  # the key is a snapshot of the caller's budgets
        again = svc.sla_safe_rates(
            np.linspace(1.0, 2.0 * svc.sla_target_ms, 5)
        )
        np.testing.assert_array_equal(again, second)

    def test_begin_run_clears_the_memo(self, churned_service):
        svc = churned_service
        svc.sla_safe_rate()
        assert svc._envelopes
        svc.begin_run()
        assert not svc._envelopes

    @pytest.mark.parametrize("stem", ["load_shifting", "mixed_scheme"])
    def test_only_evaluator_hits_fall(self, stem, monkeypatch):
        """Against the memo-less path, a run's results and its evaluator
        misses, size and batched count are identical; only hits fall."""
        spec, _ = load_scenario_file(EXAMPLE_SCENARIOS / f"{stem}.toml")
        spec = replace(spec.with_fidelity("smoke"), duration_h=12.0)
        memo = Scenario(spec).run()
        monkeypatch.setattr(
            RegionalService,
            "sla_safe_rates",
            lambda self, budgets_ms, iters=12: self._bisect_safe_rates(
                np.asarray(budgets_ms, dtype=np.float64), iters
            ),
        )
        plain = Scenario(spec).run()
        assert memo.total_carbon_g == plain.total_carbon_g
        for got, ref in zip(memo.results, plain.results):
            assert got.epochs == ref.epochs
            assert got.opt_cache.misses == ref.opt_cache.misses
            assert got.opt_cache.size == ref.opt_cache.size
            assert got.opt_cache.batched == ref.opt_cache.batched
            assert got.opt_cache.hits <= ref.opt_cache.hits
            assert got.measure_cache == ref.measure_cache
        assert sum(r.opt_cache.hits for r in memo.results) < sum(
            r.opt_cache.hits for r in plain.results
        )
        if memo.batch_rates is not None:
            assert memo.batch_rates.tobytes() == plain.batch_rates.tobytes()
        for got, ref in zip(memo.origin_plans, plain.origin_plans):
            assert got.tobytes() == ref.tobytes()
