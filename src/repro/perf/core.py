"""Pinned performance scenarios for the vectorized evaluation core.

Four scenarios track the optimizer/router hot path end to end:

* ``batch_eval_1k`` — 1000 SA-walk candidates through
  :meth:`ConfigEvaluator.evaluate_batch` vs the scalar
  :meth:`~ConfigEvaluator.evaluate` loop on a cold twin evaluator.  The
  candidate count is pinned at 1000 at every fidelity, so its ops/s and
  speedup mean the same thing in CI smoke runs and on developer
  machines.  Both sides share the closed-form p95 solver, so the speedup
  is only what batching saves over per-candidate Python overhead, not a
  measure of the estimator's own cost.
* ``sa_epoch`` — one full :func:`simulated_annealing` invocation with a
  batched neighbourhood vs the single-proposal chain (ops = candidate
  evaluations).
* ``routing_epoch`` — a 5-region diurnal day of demand-mode
  :func:`plan_origin_cells` calls vs the scalar cell-by-cell reference.
* ``shifting_epoch`` — a day of temporal batch planning: EDF water-fill
  :func:`plan_batch_slots` over a 48-slot forecast window vs the scalar
  lot-by-lot reference.

Every scenario is deterministic (fixed seeds, fixed walks) so run-to-run
noise is timing noise only.  Raw ops/s are machine-dependent; the
:func:`calibration_ops_per_s` kernel measures the host's numpy speed so
a committed baseline can be compared across machines via the
calibration-normalized ratio, and the scalar-vs-batched *speedups* are
dimensionless and compare directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

SCENARIO_NAMES = ("batch_eval_1k", "sa_epoch", "routing_epoch", "shifting_epoch")

#: Candidate count of the batch-evaluation scenario — pinned at every
#: fidelity, so its numbers compare across fidelities.
BATCH_EVAL_CANDIDATES = 1000


@dataclass(frozen=True)
class ScenarioResult:
    """One pinned scenario's measurement."""

    name: str
    ops_per_s: float
    speedup_vs_scalar: float
    items: int
    seconds: float
    scalar_seconds: float

    def to_json(self) -> dict:
        return {
            "ops_per_s": round(self.ops_per_s, 3),
            "speedup_vs_scalar": round(self.speedup_vs_scalar, 3),
            "items": self.items,
            "seconds": round(self.seconds, 6),
            "scalar_seconds": round(self.scalar_seconds, 6),
        }


@dataclass(frozen=True)
class SuiteResult:
    """All scenarios plus the host-speed calibration."""

    fidelity: str
    calibration_ops_per_s: float
    scenarios: tuple[ScenarioResult, ...] = field(default_factory=tuple)

    def scenario(self, name: str) -> ScenarioResult:
        for s in self.scenarios:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "fidelity": self.fidelity,
            "calibration_ops_per_s": round(self.calibration_ops_per_s, 3),
            "scenarios": {s.name: s.to_json() for s in self.scenarios},
        }


def calibration_ops_per_s(repeats: int = 5) -> float:
    """Host numpy speed on a fixed kernel, in kernel-ops per second.

    The kernel (an exp/sum mixture over a fixed 1000x32 block, the shape
    of a batched CDF pass) is what the hot path spends its time in, so
    normalizing a scenario's ops/s by this number yields a
    machine-portable ratio a committed baseline can be checked against.
    """
    x = (np.arange(32000, dtype=np.float64) % 97.0).reshape(1000, 32) / 97.0
    w = 1.0 - x[::-1]

    def kernel() -> float:
        acc = 0.0
        for k in range(1, 9):
            acc += float(np.sum(w * np.exp(-k * x), axis=1).sum())
        return acc

    kernel()  # warm
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return 1.0 / best


def _family_setup():
    from repro.models.perf import PerfModel
    from repro.models.zoo import default_zoo

    zoo = default_zoo()
    perf = PerfModel()
    return zoo, perf, zoo.family("efficientnet")


def _candidate_walk(zoo, fam, n: int, n_gpus: int, seed: int = 7):
    """A deterministic SA-style random walk of ``n`` configurations."""
    from repro.core.config import base_config
    from repro.core.moves import MoveGenerator
    from repro.utils.rng import RngMixer

    moves = MoveGenerator(zoo=zoo, family=fam.name)
    gen = RngMixer(seed=seed).fork("perf-walk", 0)
    configs = [base_config(fam, n_gpus)]
    while len(configs) < n:
        nxt = moves.propose(configs[-1], gen)
        if nxt is None:  # pragma: no cover - the move space never dries up
            break
        configs.append(nxt)
    return configs


def scenario_batch_eval_1k(fidelity: str = "default") -> ScenarioResult:
    """1000 candidates: one ``evaluate_batch`` vs the scalar loop.

    Both sides start from a cold evaluator cache (twin instances) after a
    warm-up pass that fills the process-level projection/pricing memos —
    steady-state throughput is what the trajectory tracks.
    """
    from repro.core.evaluator import ConfigEvaluator

    zoo, perf, fam = _family_setup()
    n_gpus = 8
    configs = _candidate_walk(zoo, fam, BATCH_EVAL_CANDIDATES, n_gpus)

    def fresh() -> ConfigEvaluator:
        return ConfigEvaluator(
            zoo=zoo, perf=perf, family=fam.name, rate_per_s=200.0,
            n_gpus=n_gpus, method="analytic",
        )

    fresh().evaluate_batch(configs)  # warm the process-level memos

    t0 = time.perf_counter()
    fresh().evaluate_batch(configs)
    batch_s = time.perf_counter() - t0

    evaluator = fresh()
    t0 = time.perf_counter()
    for config in configs:
        evaluator.evaluate(config)
    scalar_s = time.perf_counter() - t0

    return ScenarioResult(
        name="batch_eval_1k",
        ops_per_s=len(configs) / batch_s,
        speedup_vs_scalar=scalar_s / batch_s,
        items=len(configs),
        seconds=batch_s,
        scalar_seconds=scalar_s,
    )


def scenario_sa_epoch(fidelity: str = "default") -> ScenarioResult:
    """One annealing invocation, batched neighbourhood vs scalar chain.

    Ops are candidate evaluations; the speedup compares evaluations per
    second, not trajectories — for any neighbourhood k > 1 the proposal
    and acceptance draws interleave differently by construction.
    """
    from repro.core.annealing import SAParams, simulated_annealing
    from repro.core.config import base_config
    from repro.core.evaluator import ConfigEvaluator
    from repro.core.moves import MoveGenerator
    from repro.core.objective import ObjectiveSpec, SlaPolicy

    zoo, perf, fam = _family_setup()
    n_gpus = 6
    max_evals = 120 if fidelity == "smoke" else 400
    initial = base_config(fam, n_gpus)
    moves = MoveGenerator(zoo=zoo, family=fam.name)

    def run(neighborhood: int) -> tuple[int, float]:
        evaluator = ConfigEvaluator(
            zoo=zoo, perf=perf, family=fam.name, rate_per_s=150.0,
            n_gpus=n_gpus, method="analytic",
        )
        base_eval = evaluator.evaluate(initial)
        objective = ObjectiveSpec(
            lambda_weight=0.5,
            a_base=fam.base_accuracy,
            c_base=0.002,
            sla=SlaPolicy(p95_target_ms=base_eval.p95_ms),
        )
        params = SAParams(
            max_evals=max_evals,
            no_improve_limit=max_evals,  # time the full budget
            time_budget_s=1e9,
            neighborhood=neighborhood,
        )
        t0 = time.perf_counter()
        result = simulated_annealing(
            initial, evaluator, objective, ci=300.0, moves=moves,
            rng=11, params=params,
        )
        return result.num_evaluations, time.perf_counter() - t0

    run(8)  # warm the process-level memos
    evals, batch_s = run(8)
    scalar_evals, scalar_s = run(1)

    return ScenarioResult(
        name="sa_epoch",
        ops_per_s=evals / batch_s,
        speedup_vs_scalar=(scalar_s / scalar_evals) / (batch_s / evals),
        items=evals,
        seconds=batch_s,
        scalar_seconds=scalar_s,
    )


def scenario_routing_epoch(fidelity: str = "default") -> ScenarioResult:
    """A 5-region diurnal day of demand-mode cell planning.

    24 hourly epochs over 12 origins x 5 regions with sinusoidal origin
    demand, session retention chained through the day: the vectorized
    :func:`plan_origin_cells` vs its scalar ``place()`` reference, with
    an instant SLA-rate table so the measurement isolates the planner.
    """
    from repro.fleet.routing import (
        RoutingContext,
        _plan_origin_cells_scalar,
        plan_origin_cells,
    )

    n_r, n_o = 5, 12
    epochs = 24 if fidelity == "smoke" else 96
    base = np.linspace(20.0, 60.0, n_r)
    phase_r = np.linspace(0.0, 2.0 * np.pi, n_r, endpoint=False)
    phase_o = np.linspace(0.0, 2.0 * np.pi, n_o, endpoint=False)
    latency = 5.0 + 90.0 * (1.0 - np.cos(phase_o[:, None] - phase_r[None, :]))
    targets = np.full(n_r, 150.0)
    caps_by_budget = 0.9 * base.sum() / n_r

    def sla_rate_fn(r: int, budget_ms: float) -> float:
        return caps_by_budget * min(1.0, budget_ms / 120.0)

    def day(planner) -> float:
        prev_plan = None
        t0 = time.perf_counter()
        for e in range(epochs):
            t_h = 24.0 * e / epochs
            diurnal = 1.0 + 0.5 * np.sin(2.0 * np.pi * t_h / 24.0 + phase_o)
            origin_rates = 8.0 * diurnal
            global_rate = float(origin_rates.sum())
            ctx = RoutingContext(
                t_h=t_h,
                global_rate_per_s=global_rate,
                ci=np.linspace(50.0, 350.0, n_r),
                pue=np.full(n_r, 1.4),
                net_latency_ms=np.linspace(5.0, 45.0, n_r),
                nominal_rates=base,
                capacity_rates=1.3 * base,
                sla_cap_rates=np.full(n_r, np.inf),
                floor_rates=0.05 * base,
            )
            order = np.argsort(ctx.ci, kind="stable")
            prev_plan = planner(
                ctx, order, origin_rates, latency, targets, sla_rate_fn,
                prev_plan=prev_plan, session_keep_frac=0.6,
                resident_floor_share=0.1,
            )
        return time.perf_counter() - t0

    day(plan_origin_cells)  # warm
    batch_s = day(plan_origin_cells)
    scalar_s = day(_plan_origin_cells_scalar)

    return ScenarioResult(
        name="routing_epoch",
        ops_per_s=epochs / batch_s,
        speedup_vs_scalar=scalar_s / batch_s,
        items=epochs,
        seconds=batch_s,
        scalar_seconds=scalar_s,
    )


def scenario_shifting_epoch(fidelity: str = "default") -> ScenarioResult:
    """A day of fine-grained temporal batch planning (quarter-hour slots).

    Each epoch replans a deterministic backlog of 192 deferrable lots —
    staggered deadlines, mixed sizes — over a 288-slot (72 h x 15 min)
    forecast window whose capacity is tight enough that most lots
    genuinely water-fill across many slots: the vectorized EDF
    :func:`plan_batch_slots` vs its scalar lot-by-lot reference, in both
    preemptible and whole-lot modes.  Pure planner arithmetic, no fleet
    in the loop.
    """
    from repro.shifting import _plan_batch_slots_scalar, plan_batch_slots

    n_lots, n_slots = 192, 288
    epochs = 24 if fidelity == "smoke" else 96
    idx = np.arange(n_lots, dtype=np.float64)
    requests = 60.0 + 40.0 * np.cos(idx * 0.7) ** 2
    deadline_slots = (idx * 5.0).astype(np.intp) % n_slots
    slots = np.arange(n_slots, dtype=np.float64)
    caps_base = 40.0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * slots / n_slots))

    def day(planner) -> float:
        t0 = time.perf_counter()
        for e in range(epochs):
            phase = 2.0 * np.pi * e / epochs
            scores = 200.0 + 150.0 * np.sin(2.0 * np.pi * slots / 24.0 + phase)
            caps = caps_base * (1.0 + 0.2 * np.cos(phase))
            planner(requests, deadline_slots, caps, scores)
            planner(requests, deadline_slots, caps, scores, preemptible=False)
        return time.perf_counter() - t0

    day(plan_batch_slots)  # warm
    batch_s = day(plan_batch_slots)
    scalar_s = day(_plan_batch_slots_scalar)

    return ScenarioResult(
        name="shifting_epoch",
        ops_per_s=epochs / batch_s,
        speedup_vs_scalar=scalar_s / batch_s,
        items=epochs,
        seconds=batch_s,
        scalar_seconds=scalar_s,
    )


_SCENARIOS = {
    "batch_eval_1k": scenario_batch_eval_1k,
    "sa_epoch": scenario_sa_epoch,
    "routing_epoch": scenario_routing_epoch,
    "shifting_epoch": scenario_shifting_epoch,
}


def run_suite(fidelity: str = "default") -> SuiteResult:
    """Run every pinned scenario plus the host calibration."""
    return SuiteResult(
        fidelity=fidelity,
        calibration_ops_per_s=calibration_ops_per_s(),
        scenarios=tuple(
            _SCENARIOS[name](fidelity) for name in SCENARIO_NAMES
        ),
    )
