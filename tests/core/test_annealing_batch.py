"""Incremental annealing: graph memoization."""

import pytest

from repro.core.annealing import OptimizationCostModel, _Tracker
from repro.core.config import base_config
from repro.core.evaluator import ConfigEvaluator
from repro.core.graph import ConfigGraph
from repro.core.moves import MoveGenerator
from repro.core.objective import ObjectiveSpec
from repro.serving.sla import SlaPolicy
from repro.serving.workload import default_rate
from repro.utils.rng import RngMixer


@pytest.fixture()
def setup(zoo, perf):
    fam = zoo.family("efficientnet")
    n_gpus = 3
    rate = default_rate(fam, perf, n_gpus)
    evaluator = ConfigEvaluator(
        zoo=zoo, perf=perf, family=fam.name, rate_per_s=rate, n_gpus=n_gpus,
        method="analytic",
    )
    base_eval = evaluator.evaluate(base_config(fam, n_gpus))
    objective = ObjectiveSpec(
        lambda_weight=0.5,
        a_base=fam.base_accuracy,
        c_base=0.002,
        sla=SlaPolicy(p95_target_ms=base_eval.p95_ms),
    )
    moves = MoveGenerator(zoo=zoo, family=fam.name)
    return fam, n_gpus, evaluator, objective, moves


class TestGraphMemoization:
    def test_one_projection_per_distinct_config(self, setup, monkeypatch):
        """Regression: each SA move used to rebuild the *previous* config's
        graph as well as the candidate's — two ``from_config`` calls per
        evaluation.  The tracker memo makes it one per distinct config."""
        fam, n_gpus, evaluator, objective, moves = setup
        # Generate the walk first: MoveGenerator.propose projects graphs
        # of its own, which must not pollute the count.
        gen = RngMixer(seed=3).fork("memo-walk", 0)
        walk = [base_config(fam, n_gpus)]
        while len(walk) < 25:
            nxt = moves.propose(walk[-1], gen)
            if nxt is None:  # pragma: no cover
                break
            walk.append(nxt)

        calls = []
        original = ConfigGraph.from_config.__func__

        def counting(cls, config, num_variants):
            calls.append(config)
            return original(cls, config, num_variants)

        monkeypatch.setattr(
            ConfigGraph, "from_config", classmethod(counting)
        )
        tracker = _Tracker(
            evaluator, objective, ci=300.0, cost=OptimizationCostModel(),
            num_variants=fam.num_variants, deployed=None,
        )
        for config in walk:
            tracker.evaluate(config)
        # Per distinct config: one projection inside the evaluator (cache
        # key) plus at most one from the tracker memo.  The regression
        # (re-projecting the *previous* config every move) would add one
        # more per move and break this bound.
        distinct = len(set(walk))
        assert len(calls) <= 2 * distinct
        tracker_calls = len(calls)
        for cand in walk[:5]:
            tracker.graph(cand)  # memoized: no new projections
        assert len(calls) == tracker_calls

    def test_lru_from_config_returns_equal_graphs(self, zoo):
        fam = zoo.family("efficientnet")
        cfg = base_config(fam, 3)
        g1 = ConfigGraph.from_config(cfg, fam.num_variants)
        g2 = ConfigGraph.from_config(cfg, fam.num_variants)
        assert (g1.weights == g2.weights).all()
        assert not g1.weights.flags.writeable
