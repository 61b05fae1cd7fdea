"""Ablations of Clover's design choices (beyond the paper's evaluation).

The paper motivates several design constants without sweeping them; these
experiments quantify each one on the classification workload:

* **GED threshold** — the neighbourhood radius of Sec. 4.2 (paper: 4),
* **warm start** — whether an invocation's SA starts from the previous
  best configuration or from the currently deployed one,
* **cooling rate** — the SA temperature schedule (paper: 0.05/iteration),
* **re-optimization trigger** — the carbon-intensity change threshold
  (paper: 5%).

Each returns the same summary tuple so the ablation bench renders one
table: (setting, carbon saving vs BASE, accuracy loss, optimization time
fraction, evaluations).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.carbon.monitor import CarbonIntensityMonitor
from repro.carbon.traces import ciso_march_48h
from repro.core.annealing import SAParams
from repro.core.controller import RunResult
from repro.core.moves import MoveGenerator
from repro.core.service import CarbonAwareInferenceService, FidelityProfile

__all__ = [
    "AblationPoint",
    "AblationResult",
    "ablate_ged_threshold",
    "ablate_warm_start",
    "ablate_cooling",
    "ablate_trigger_threshold",
]


@dataclass(frozen=True)
class AblationPoint:
    """One setting of the ablated knob and its measured outcomes."""

    setting: str
    carbon_save_pct: float
    accuracy_loss_pct: float
    optimization_fraction: float
    evaluations: int


@dataclass(frozen=True)
class AblationResult:
    knob: str
    points: tuple[AblationPoint, ...]

    def table(self):
        headers = (self.knob, "CarbonSave%", "AccLoss%", "OptTime%", "Evals")
        rows = [
            (
                p.setting,
                f"{p.carbon_save_pct:.1f}",
                f"{p.accuracy_loss_pct:.2f}",
                f"{100 * p.optimization_fraction:.2f}",
                str(p.evaluations),
            )
            for p in self.points
        ]
        return headers, rows

    def by_setting(self, setting: str) -> AblationPoint:
        for p in self.points:
            if p.setting == setting:
                return p
        raise KeyError(setting)


def _build(application: str, seed: int, **create_kwargs):
    return CarbonAwareInferenceService.create(
        application=application,
        scheme="clover",
        fidelity=FidelityProfile.default(),
        seed=seed,
        **create_kwargs,
    )


def _run_base(application: str, seed: int) -> RunResult:
    service = CarbonAwareInferenceService.create(
        application=application, scheme="base",
        fidelity=FidelityProfile.default(), seed=seed,
    )
    return service.run()


def _point(setting: str, result: RunResult, base: RunResult) -> AblationPoint:
    return AblationPoint(
        setting=setting,
        carbon_save_pct=(1 - result.total_carbon_g / base.total_carbon_g) * 100,
        accuracy_loss_pct=result.accuracy_loss_pct,
        optimization_fraction=result.optimization_fraction,
        evaluations=result.total_evaluations,
    )


def ablate_ged_threshold(
    application: str = "classification",
    thresholds: tuple[int, ...] = (2, 4, 8, 12),
    seed: int = 0,
) -> AblationResult:
    """Vary the GED neighbourhood radius (the paper fixes it at 4).

    Radius 2 admits only single variant swaps (no repartitioning moves at
    all — most partition pairs differ by 3+), so the search cannot change
    partitions; larger radii make moves coarser and reconfigurations more
    expensive per evaluation.
    """
    base = _run_base(application, seed)
    points = []
    for threshold in thresholds:
        service = _build(application, seed)
        scheme = service.scheme
        scheme.moves = MoveGenerator(
            zoo=scheme.zoo, family=scheme.family, threshold=threshold
        )
        result = service.run()
        points.append(_point(str(threshold), result, base))
    return AblationResult(knob="GED threshold", points=tuple(points))


def ablate_warm_start(
    application: str = "classification", seed: int = 0
) -> AblationResult:
    """Warm start on/off: does starting each invocation from the previous
    best matter?  (The Fig. 13 narrative says it does.)"""
    base = _run_base(application, seed)

    warm = _build(application, seed).run()

    cold_service = _build(application, seed)
    scheme = cold_service.scheme
    original_optimize = scheme.optimize

    def cold_optimize(ci, deployed):
        # Force every invocation's SA to restart from the BASE deployment
        # (clearing _last_best alone would fall back to the currently
        # deployed config, which *is* the previous best).
        scheme._last_best = scheme.initial_config()
        return original_optimize(ci, deployed)

    scheme.optimize = cold_optimize
    cold = cold_service.run()

    return AblationResult(
        knob="Warm start",
        points=(
            _point("on (paper)", warm, base),
            _point("off", cold, base),
        ),
    )


def ablate_cooling(
    application: str = "classification",
    coolings: tuple[float, ...] = (0.0, 0.05, 0.2),
    seed: int = 0,
) -> AblationResult:
    """Vary the SA cooling rate (paper: 0.05/iteration, floor 0.1).

    ``0.0`` keeps T=1 forever (almost-random walk acceptance); large rates
    drop to the floor immediately (greedy hill climbing).
    """
    base = _run_base(application, seed)
    points = []
    for cooling in coolings:
        service = _build(application, seed)
        fidelity = FidelityProfile.default()
        service.scheme.sa_params = SAParams(
            t_initial=fidelity.sa_params.t_initial,
            cooling=cooling,
            t_min=fidelity.sa_params.t_min,
            no_improve_limit=fidelity.sa_params.no_improve_limit,
            time_budget_s=fidelity.sa_params.time_budget_s,
            max_evals=fidelity.sa_params.max_evals,
        )
        result = service.run()
        label = {0.0: "none (T=1)", 0.05: "0.05 (paper)"}.get(
            cooling, f"{cooling:g}"
        )
        points.append(_point(label, result, base))
    return AblationResult(knob="Cooling rate", points=tuple(points))


def ablate_trigger_threshold(
    application: str = "classification",
    thresholds: tuple[float, ...] = (0.01, 0.05, 0.2),
    seed: int = 0,
) -> AblationResult:
    """Vary the re-optimization trigger (paper: 5% intensity change).

    Tighter triggers re-optimize constantly (more overhead, marginally
    better tracking); looser ones leave stale configurations deployed as
    the grid shifts.
    """
    base = _run_base(application, seed)
    points = []
    for threshold in thresholds:
        service = _build(application, seed)
        service.controller.monitor = CarbonIntensityMonitor(
            trace=ciso_march_48h(), threshold=threshold
        )
        result = service.run()
        label = f"{100 * threshold:g}%" + (" (paper)" if threshold == 0.05 else "")
        points.append(_point(label, result, base))
    return AblationResult(knob="Trigger threshold", points=tuple(points))
