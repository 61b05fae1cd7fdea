"""Experiment runner: the harness's one memoized run path.

Every run the experiment harness memoizes is a
:class:`~repro.scenarios.spec.ScenarioSpec`.  The paper figures run N=1
scenarios (one region, the static router, no network), which reproduce
the single-cluster service bit for bit; the beyond-the-paper entries run
multi-region fleets.  The memo is keyed by the spec, so figures that read
the same runs (Figs. 9-14, 16 and the savings estimate share CISO-March
runs) pay for each simulation once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.controller import RunResult
from repro.scenarios import Scenario, ScenarioSpec

__all__ = ["ExperimentRunner", "APPLICATIONS_UNDER_TEST"]

#: The paper's three evaluation applications, in Table-1 order.
APPLICATIONS_UNDER_TEST = ("detection", "language", "classification")


@dataclass
class ExperimentRunner:
    """Runs and memoizes scenario executions for the experiment harness."""

    _cache: dict[ScenarioSpec, object] = field(default_factory=dict)

    def run_scenario(self, spec: ScenarioSpec):
        """Execute (or recall) the scenario described by ``spec``.

        Two equal specs share one run:

        >>> from repro.scenarios import RegionSpec, RoutingSpec
        >>> spec = ScenarioSpec(
        ...     regions=(RegionSpec(name="us-ciso"),), n_gpus=2,
        ...     fidelity="smoke", duration_h=2.0, net_latency_ms=0.0,
        ...     routing=RoutingSpec(router="static"),
        ... )
        >>> runner = ExperimentRunner()
        >>> runner.run_scenario(spec) is runner.run_scenario(spec)
        True
        """
        if spec not in self._cache:
            self._cache[spec] = Scenario(spec).run()
        return self._cache[spec]

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
