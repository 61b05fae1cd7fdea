"""Experiment runner: execute scheme x application x trace combinations.

One thin layer over :class:`~repro.core.service.CarbonAwareInferenceService`
(and, for geographic experiments, the :mod:`repro.scenarios` layer) that
(a) applies the paper's evaluation methodology uniformly and (b) memoizes
completed runs within the process, because several figures reuse the same
underlying runs (Figs. 9-13 all read the CISO-March matrix).

Fleet experiments are described by
:class:`~repro.scenarios.spec.ScenarioSpec` and executed through
:meth:`ExperimentRunner.run_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.carbon.intensity import CarbonIntensityTrace
from repro.carbon.traces import trace_by_name
from repro.core.controller import RunResult
from repro.core.service import (
    CarbonAwareInferenceService,
    FidelityProfile,
    PAPER_LAMBDA,
    PAPER_N_GPUS,
)
from repro.scenarios import Scenario, ScenarioSpec

__all__ = ["RunSpec", "ExperimentRunner", "APPLICATIONS_UNDER_TEST"]

#: The paper's three evaluation applications, in Table-1 order.
APPLICATIONS_UNDER_TEST = ("detection", "language", "classification")


@dataclass(frozen=True)
class RunSpec:
    """Everything that identifies one run (and keys the memo cache)."""

    application: str
    scheme: str
    trace_name: str = "ciso-march"
    fidelity: str = "default"
    seed: int = 0
    n_gpus: int = PAPER_N_GPUS
    lambda_weight: float = PAPER_LAMBDA
    duration_h: float | None = None
    accuracy_floor_pct: float | None = None
    rate_per_s: float | None = None


@dataclass
class ExperimentRunner:
    """Runs and memoizes service executions for the experiment harness."""

    _cache: dict[RunSpec, RunResult] = field(default_factory=dict)
    _scenario_cache: dict[ScenarioSpec, object] = field(default_factory=dict)
    _traces: dict[str, CarbonIntensityTrace] = field(default_factory=dict)

    def register_trace(self, name: str, trace: CarbonIntensityTrace) -> None:
        """Make a custom trace addressable by ``RunSpec.trace_name``."""
        self._traces[name] = trace

    def _resolve_trace(self, name: str) -> CarbonIntensityTrace:
        if name in self._traces:
            return self._traces[name]
        return trace_by_name(name)

    def run(self, spec: RunSpec) -> RunResult:
        """Execute (or recall) the run described by ``spec``."""
        hit = self._cache.get(spec)
        if hit is not None:
            return hit
        trace = self._resolve_trace(spec.trace_name)
        service = CarbonAwareInferenceService.create(
            application=spec.application,
            scheme=spec.scheme,
            n_gpus=spec.n_gpus,
            lambda_weight=spec.lambda_weight,
            trace=trace,
            accuracy_floor_pct=spec.accuracy_floor_pct,
            rate_per_s=spec.rate_per_s,
            fidelity=FidelityProfile.by_name(spec.fidelity),
            seed=spec.seed,
        )
        result = service.run(duration_h=spec.duration_h)
        self._cache[spec] = result
        return result

    def run_scenario(self, spec: ScenarioSpec):
        """Execute (or recall) the scenario described by ``spec``.

        The memo is keyed by the spec itself — two equal specs share one
        run, which is what lets experiments that compare overlapping
        scenario grids (fig16's base rows, the gating ladder) pay for
        each underlying simulation once.
        """
        hit = self._scenario_cache.get(spec)
        if hit is not None:
            return hit
        result = Scenario(spec).run()
        self._scenario_cache[spec] = result
        return result

    def run_matrix(
        self,
        schemes: tuple[str, ...],
        applications: tuple[str, ...] = APPLICATIONS_UNDER_TEST,
        trace_name: str = "ciso-march",
        fidelity: str = "default",
        seed: int = 0,
        **kwargs,
    ) -> dict[tuple[str, str], RunResult]:
        """Run every (application, scheme) pair; keys are those pairs."""
        out: dict[tuple[str, str], RunResult] = {}
        for app in applications:
            for scheme in schemes:
                spec = RunSpec(
                    application=app,
                    scheme=scheme,
                    trace_name=trace_name,
                    fidelity=fidelity,
                    seed=seed,
                    **kwargs,
                )
                out[(app, scheme)] = self.run(spec)
        return out

    @staticmethod
    def carbon_saving_pct(result: RunResult, base: RunResult) -> float:
        """Total carbon reduction of ``result`` relative to a BASE run."""
        if base.total_carbon_g <= 0:
            raise ValueError("BASE run accumulated no carbon")
        return (1.0 - result.total_carbon_g / base.total_carbon_g) * 100.0

    @staticmethod
    def latency_norm(result: RunResult, base: RunResult) -> float:
        """Service p95 normalized to the BASE run's p95 (Fig. 9 right)."""
        return result.p95_ms / base.p95_ms
