"""Batched config evaluation vs the scalar loop: equivalence + counters."""

import numpy as np

from repro.core.config import base_config, uniform_config
from repro.core.evaluator import CacheStats, ConfigEvaluator
from repro.core.moves import MoveGenerator
from repro.serving.workload import default_rate
from repro.utils.rng import RngMixer

RTOL = 1e-9


def _walk(zoo, fam, n, n_gpus, seed=7):
    """A deterministic SA-style walk of n configurations."""
    moves = MoveGenerator(zoo=zoo, family=fam.name)
    gen = RngMixer(seed=seed).fork("batch-walk", 0)
    configs = [base_config(fam, n_gpus)]
    while len(configs) < n:
        nxt = moves.propose(configs[-1], gen)
        if nxt is None:  # pragma: no cover
            break
        configs.append(nxt)
    return configs


def _fresh(zoo, perf, n_gpus=4, rate=None):
    fam = zoo.family("efficientnet")
    if rate is None:
        rate = default_rate(fam, perf, n_gpus)
    return ConfigEvaluator(
        zoo=zoo, perf=perf, family=fam.name, rate_per_s=rate, n_gpus=n_gpus,
        method="analytic",
    )


def _assert_evals_match(batch, scalar):
    assert len(batch) == len(scalar)
    for b, s in zip(batch, scalar):
        assert b.overloaded == s.overloaded
        assert b.num_instances == s.num_instances
        np.testing.assert_allclose(b.accuracy, s.accuracy, rtol=RTOL)
        np.testing.assert_allclose(
            b.energy_per_request_j, s.energy_per_request_j, rtol=RTOL
        )
        np.testing.assert_allclose(b.power_watts, s.power_watts, rtol=RTOL)
        np.testing.assert_allclose(b.utilization, s.utilization, rtol=RTOL)
        if s.overloaded:
            assert b.p95_ms == s.p95_ms == np.inf
        else:
            np.testing.assert_allclose(b.p95_ms, s.p95_ms, rtol=RTOL)


class TestEvaluateBatch:
    def test_counters_identical_to_scalar(self, zoo, perf):
        """``evaluate_batch`` is the scalar loop: same results, same stats."""
        fam = zoo.family("efficientnet")
        configs = _walk(zoo, fam, 40, 4)
        configs = configs + configs[:10]  # duplicates → cache hits
        batch_ev = _fresh(zoo, perf)
        scalar_ev = _fresh(zoo, perf)
        batch = batch_ev.evaluate_batch(configs)
        scalar = [scalar_ev.evaluate(c) for c in configs]
        assert batch == scalar
        assert batch_ev.cache_stats == scalar_ev.cache_stats


class TestEvaluateRates:
    def test_matches_scalar_over_rate_grid(self, zoo, perf):
        fam = zoo.family("efficientnet")
        config = uniform_config(fam, 4, 3, 2)
        rates = np.linspace(5.0, 400.0, 9)
        batch_ev = _fresh(zoo, perf)
        scalar_ev = _fresh(zoo, perf)
        batch = batch_ev.evaluate_rates(config, rates)
        scalar = [scalar_ev.evaluate(config, float(r)) for r in rates]
        _assert_evals_match(batch, scalar)


class TestCacheStatsBatchRate:
    def test_batch_rate(self):
        assert CacheStats(hits=3, misses=4, size=4, batched=2).batch_rate == 0.5
        assert CacheStats(hits=0, misses=0, size=0).batch_rate == 0.0
