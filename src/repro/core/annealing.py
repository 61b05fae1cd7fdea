"""Simulated annealing in the configuration-graph space (Sec. 4.2).

Implements the paper's optimizer verbatim:

* energy ``h(x) = -f(x) * min(1, L_tail / L(x))`` (Eq. 6, via
  :meth:`repro.core.objective.ObjectiveSpec.score`),
* Metropolis acceptance ``P = exp(-(h' - h)/T)`` (Eq. 7),
* ``T`` starts at 1.0, cools by 0.05 per iteration down to 0.1,
* termination on a 5-minute (virtual) time budget or 5 consecutive
  evaluations without improving the best energy,
* neighbours sampled from the GED <= 4 ball around the current centre.

Because Clover optimizes *online*, every evaluated candidate is actually
deployed and measured on live traffic; the virtual
:class:`OptimizationCostModel` charges each evaluation the reconfiguration
time (MIG repartitions + model reloads proportional to how different the
candidate is) plus a measurement window.  The runner folds these costs into
the reported results, exactly as the paper does ("the overhead of running
optimization in the background is included in all our results").

:func:`random_search` is Blover's optimizer: uniform sampling in the raw
``(x_p, x_v)`` space with the same termination rule, used to isolate the
value of the graph representation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.config import ClusterConfig
from repro.core.evaluator import ConfigEvaluator, Evaluation
from repro.core.graph import ConfigGraph
from repro.core.moves import MoveGenerator
from repro.core.objective import ObjectiveSpec, ObjectiveValue
from repro.utils.rng import as_generator

__all__ = [
    "SAParams",
    "OptimizationCostModel",
    "EvaluatedCandidate",
    "OptimizationResult",
    "simulated_annealing",
    "random_search",
]

#: Improvements smaller than this do not reset the convergence counter
#: (floating-point noise must not keep the search alive).
_IMPROVEMENT_EPS = 1e-9


@dataclass(frozen=True)
class SAParams:
    """The paper's annealing schedule and termination rule.

    ``neighborhood`` widens each SA step to a batch: ``k`` neighbours are
    proposed around the centre, batch-evaluated in one call through the
    vectorized estimator, and the lowest-energy one faces the Metropolis
    test.  The default of 1 runs the paper's verbatim single-proposal
    chain (bit-for-bit the seed trajectory — proposal and acceptance
    draws interleave differently for any ``k > 1``).
    """

    t_initial: float = 1.0
    cooling: float = 0.05
    t_min: float = 0.1
    no_improve_limit: int = 5
    time_budget_s: float = 300.0
    max_evals: int = 500
    neighborhood: int = 1

    def __post_init__(self) -> None:
        if self.t_initial <= 0 or self.t_min <= 0 or self.t_min > self.t_initial:
            raise ValueError(
                f"need 0 < t_min <= t_initial, got {self.t_min}, {self.t_initial}"
            )
        if self.cooling < 0:
            raise ValueError(f"cooling must be non-negative, got {self.cooling}")
        if self.no_improve_limit < 1:
            raise ValueError(
                f"no_improve_limit must be >= 1, got {self.no_improve_limit}"
            )
        if self.time_budget_s <= 0 or self.max_evals < 1:
            raise ValueError("time budget and max_evals must be positive")
        if self.neighborhood < 1:
            raise ValueError(
                f"neighborhood must be >= 1, got {self.neighborhood}"
            )

    def temperature(self, iteration: int) -> float:
        """Annealing temperature at a 0-based iteration index."""
        return max(self.t_min, self.t_initial - self.cooling * iteration)


@dataclass(frozen=True)
class OptimizationCostModel:
    """Virtual wall-clock cost of deploying + measuring one candidate.

    ``measure_window_s`` is how long a candidate serves live traffic before
    its metrics are read; repartitions and model reloads come from how much
    the candidate differs from what is currently deployed.
    """

    measure_window_s: float = 2.0
    model_load_s: float = 2.5
    repartition_s: float = 8.0

    def __post_init__(self) -> None:
        if min(self.measure_window_s, self.model_load_s, self.repartition_s) < 0:
            raise ValueError("cost components must be non-negative")

    def reconfiguration_s(
        self, current: ClusterConfig | None, target: ClusterConfig, ged: int
    ) -> float:
        """Seconds to reconfigure from ``current`` to ``target``.

        GPUs repartition when the multiset of partition ids changes; model
        reloads are one per changed instance (GED / 2, since every
        elementary change touches two edge-weight units).
        """
        if current is None:
            # Cold start: partition everything and load every model.
            return (
                self.repartition_s
                + self.model_load_s * target.num_instances
            )
        cur_parts = Counter(current.partition_ids)
        tgt_parts = Counter(target.partition_ids)
        changed_gpus = sum((tgt_parts - cur_parts).values())
        reloads = ged / 2.0
        return self.repartition_s * (changed_gpus > 0) + self.model_load_s * reloads

    def evaluation_s(
        self, current: ClusterConfig | None, target: ClusterConfig, ged: int
    ) -> float:
        """Full cost of one online evaluation (reconfigure + measure)."""
        return self.reconfiguration_s(current, target, ged) + self.measure_window_s


@dataclass(frozen=True)
class EvaluatedCandidate:
    """One configuration the optimizer deployed and measured."""

    config: ClusterConfig
    evaluation: Evaluation
    value: ObjectiveValue
    virtual_cost_s: float

    @property
    def sa_energy(self) -> float:
        return self.value.sa_energy

    @property
    def deployable(self) -> bool:
        return self.value.deployable and self.evaluation.feasible_latency


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimization invocation."""

    best_deployable: EvaluatedCandidate | None
    best_any: EvaluatedCandidate
    evaluated: tuple[EvaluatedCandidate, ...]
    accepted: int
    elapsed_virtual_s: float
    termination: str

    @property
    def num_evaluations(self) -> int:
        return len(self.evaluated)


class _Tracker:
    """Shared bookkeeping between SA and random search."""

    def __init__(
        self,
        evaluator: ConfigEvaluator,
        objective: ObjectiveSpec,
        ci: float,
        cost: OptimizationCostModel,
        num_variants: int,
        deployed: ClusterConfig | None,
    ) -> None:
        self.evaluator = evaluator
        self.objective = objective
        self.ci = ci
        self.cost = cost
        self.num_variants = num_variants
        self.deployed = deployed
        self.evaluated: list[EvaluatedCandidate] = []
        self.elapsed_s = 0.0
        self.best: EvaluatedCandidate | None = None
        self.best_deployable: EvaluatedCandidate | None = None
        self.no_improve = 0
        self._graphs: dict[ClusterConfig, ConfigGraph] = {}

    def graph(self, config: ClusterConfig) -> ConfigGraph:
        """Memoized graph projection.

        Every SA move needs both the previous candidate's graph and the
        new one's; the previous one was always projected on the move that
        produced it, so memoizing here makes each configuration cost one
        ``from_config`` for the whole search instead of two per move.
        """
        g = self._graphs.get(config)
        if g is None:
            g = ConfigGraph.from_config(config, self.num_variants)
            self._graphs[config] = g
        return g

    def evaluate(self, config: ClusterConfig) -> EvaluatedCandidate:
        """Deploy + measure one candidate, charging virtual time."""
        ev = self.evaluator.evaluate(config)
        return self._record(config, ev)

    def evaluate_many(
        self, configs: list[ClusterConfig]
    ) -> list[EvaluatedCandidate]:
        """Deploy + measure a neighbourhood in one batched estimator call.

        Virtual-time accounting is sequential, exactly as if the
        candidates had been measured one after another on live traffic.
        """
        evs = self.evaluator.evaluate_batch(configs)
        return [self._record(c, ev) for c, ev in zip(configs, evs)]

    def _record(
        self, config: ClusterConfig, ev: Evaluation
    ) -> EvaluatedCandidate:
        prev = self.evaluated[-1].config if self.evaluated else self.deployed
        ged = (
            self.graph(prev).ged(self.graph(config)) if prev is not None else 0
        )
        cost_s = self.cost.evaluation_s(prev, config, ged)
        val = self.objective.score(
            ev.accuracy, ev.energy_per_request_j, ev.p95_ms, self.ci
        )
        cand = EvaluatedCandidate(
            config=config, evaluation=ev, value=val, virtual_cost_s=cost_s
        )
        self.evaluated.append(cand)
        self.elapsed_s += cost_s
        self._update_best(cand)
        return cand

    def _update_best(self, cand: EvaluatedCandidate) -> None:
        if self.best is None or cand.sa_energy < self.best.sa_energy - _IMPROVEMENT_EPS:
            self.best = cand
            self.no_improve = 0
        else:
            self.no_improve += 1
        if cand.deployable and (
            self.best_deployable is None
            or cand.sa_energy < self.best_deployable.sa_energy
        ):
            self.best_deployable = cand

    def result(self, accepted: int, termination: str) -> OptimizationResult:
        assert self.best is not None
        return OptimizationResult(
            best_deployable=self.best_deployable,
            best_any=self.best,
            evaluated=tuple(self.evaluated),
            accepted=accepted,
            elapsed_virtual_s=self.elapsed_s,
            termination=termination,
        )


def simulated_annealing(
    initial: ClusterConfig,
    evaluator: ConfigEvaluator,
    objective: ObjectiveSpec,
    ci: float,
    moves: MoveGenerator,
    rng: int | np.random.Generator | None = None,
    params: SAParams = SAParams(),
    cost: OptimizationCostModel = OptimizationCostModel(),
    deployed: ClusterConfig | None = None,
) -> OptimizationResult:
    """Clover's graph-space simulated annealing at carbon intensity ``ci``.

    ``deployed`` is what the cluster currently runs (for reconfiguration
    cost); ``initial`` is the search centre (warm-started from the previous
    invocation's best in the Clover scheme).
    """
    gen = as_generator(rng)
    num_variants = evaluator.zoo.family(evaluator.family).num_variants
    tracker = _Tracker(evaluator, objective, ci, cost, num_variants, deployed)

    center = tracker.evaluate(initial.canonical())
    accepted = 0
    iteration = 0
    termination = "converged"
    while True:
        if tracker.no_improve >= params.no_improve_limit:
            termination = "converged"
            break
        if tracker.elapsed_s >= params.time_budget_s:
            termination = "time_budget"
            break
        if len(tracker.evaluated) >= params.max_evals:
            termination = "max_evals"
            break
        if params.neighborhood == 1:
            # The paper's verbatim chain: one proposal, one acceptance
            # draw per step, in the seed's exact RNG order.
            neighbor = moves.propose(center.config, gen)
            if neighbor is None:
                termination = "no_neighbors"
                break
            temperature = params.temperature(iteration)
            iteration += 1
            cand = tracker.evaluate(neighbor)
        else:
            k = min(
                params.neighborhood,
                params.max_evals - len(tracker.evaluated),
            )
            neighbors = []
            for _ in range(k):
                neighbor = moves.propose(center.config, gen)
                if neighbor is None:
                    break
                neighbors.append(neighbor)
            if not neighbors:
                termination = "no_neighbors"
                break
            temperature = params.temperature(iteration)
            iteration += 1
            cands = tracker.evaluate_many(neighbors)
            cand = min(cands, key=lambda c: c.sa_energy)
        p = objective.acceptance_probability(
            center.sa_energy, cand.sa_energy, temperature
        )
        if p >= 1.0 or gen.random() < p:
            center = cand
            accepted += 1

    return tracker.result(accepted, termination)


def random_search(
    initial: ClusterConfig,
    evaluator: ConfigEvaluator,
    objective: ObjectiveSpec,
    ci: float,
    moves: MoveGenerator,
    rng: int | np.random.Generator | None = None,
    params: SAParams = SAParams(),
    cost: OptimizationCostModel = OptimizationCostModel(),
    deployed: ClusterConfig | None = None,
    per_gpu_prob: float = 0.3,
) -> OptimizationResult:
    """Blover's optimizer: random search in the raw (x_p, x_v) space.

    Hill-climbing with raw-space proposals: each step re-draws a random
    subset of GPUs uniformly (fresh partition + variants) and keeps the
    candidate if it improves the Eq. 6 energy.  Identical termination rule
    and cost accounting as :func:`simulated_annealing`; only the proposal
    distribution differs — this isolates the value of the graph
    representation.  Raw-space proposals reconfigure whole GPUs, so Blover
    pays far more reconfiguration time per sample and its candidates
    violate the SLA far more often (Fig. 12b).
    """
    gen = as_generator(rng)
    num_variants = evaluator.zoo.family(evaluator.family).num_variants
    tracker = _Tracker(evaluator, objective, ci, cost, num_variants, deployed)

    # Plain random search: every draw perturbs the *starting* configuration
    # (no hill-climbing chain — that would be an optimizer design of its
    # own, which Blover by definition lacks).
    center = tracker.evaluate(initial.canonical())
    termination = "converged"
    while True:
        if tracker.no_improve >= params.no_improve_limit:
            termination = "converged"
            break
        if tracker.elapsed_s >= params.time_budget_s:
            termination = "time_budget"
            break
        if len(tracker.evaluated) >= params.max_evals:
            termination = "max_evals"
            break
        tracker.evaluate(
            moves.perturb_config(center.config, gen, per_gpu_prob)
        )

    return tracker.result(accepted=0, termination=termination)
