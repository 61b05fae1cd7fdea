"""Scenario: validate a ScenarioSpec, assemble the fleet, run it.

The one place spec fields turn into built objects: region registry
lookups, device pools, router construction (with the intensity-only
ablation), gating policies, batch classes and per-region schemes all
happen here, so two equal specs always build the identical coordinator.

>>> from repro.scenarios import RegionSpec, ScenarioSpec
>>> spec = ScenarioSpec(
...     regions=(RegionSpec(name="us-ciso"),), scheme="base",
...     fidelity="smoke", n_gpus=2, duration_h=2.0,
... )
>>> result = Scenario(spec).run()
>>> result.total_requests > 0 and result.total_carbon_g > 0
True
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.service import FidelityProfile
from repro.fleet import (
    FleetCoordinator,
    FleetResult,
    make_gating_policy,
    make_router,
    region_by_name,
)
from repro.scenarios.spec import ScenarioSpec
from repro.shifting import BatchJobClass

__all__ = ["Scenario", "build_coordinator", "execute_spec"]


def build_coordinator(spec: ScenarioSpec) -> FleetCoordinator:
    """Assemble the :class:`FleetCoordinator` a spec describes.

    Pure construction — no simulation runs.  Raises ``KeyError`` /
    ``ValueError`` with registry listings on anything the spec-level
    validation could not see (e.g. a device tuple whose length disagrees
    with the region's GPU count).
    """
    regions = tuple(
        region_by_name(
            r.name,
            n_gpus=r.n_gpus if r.n_gpus is not None else spec.n_gpus,
            devices=r.devices,
        )
        for r in spec.regions
    )
    if spec.net_latency_ms is not None:
        regions = tuple(
            replace(r, net_latency_ms=spec.net_latency_ms) for r in regions
        )

    gating = None
    if spec.gating.mode is not None:
        overrides = {}
        if spec.gating.wake_energy_j is not None:
            overrides["wake_energy_j"] = spec.gating.wake_energy_j
        gating = make_gating_policy(spec.gating.mode, **overrides)

    batch = None
    if spec.batch.enabled:
        overrides = {
            name: getattr(spec.batch, name)
            for name in (
                "requests_per_job",
                "deadline_h",
                "arrival",
                "preemptible",
                "accuracy_floor_pct",
                "defer",
            )
            if getattr(spec.batch, name) is not None
        }
        batch = BatchJobClass(jobs_per_h=spec.batch.jobs_per_h, **overrides)

    router = spec.routing.router
    if not spec.routing.efficiency_weighted:
        # Spec validation already restricted this to the rankings that
        # carry the energy term.
        router = make_router(router, efficiency_weighted=False)

    schemes = spec.region_schemes
    scheme = schemes[0] if len(set(schemes)) == 1 else schemes

    return FleetCoordinator.create(
        regions,
        application=spec.application,
        scheme=scheme,
        router=router,
        lambda_weight=spec.lambda_weight,
        fidelity=FidelityProfile.by_name(spec.fidelity),
        seed=spec.seed,
        demand=spec.demand.kind,
        demand_scale=spec.demand.scale,
        ramp_share_per_h=spec.demand.ramp_share_per_h,
        drain_share_per_h=spec.demand.drain_share_per_h,
        lookahead_h=spec.routing.lookahead_h,
        forecaster=spec.routing.forecaster,
        gating=gating,
        batch=batch,
        share_caches=spec.shared_cache,
    )


class Scenario:
    """One runnable experiment: a validated spec plus its executor.

    The spec is validated at construction (its dataclasses validate
    themselves); :meth:`build` assembles the coordinator, :meth:`run`
    executes it — honoring the spec's duration and parallel-region
    driver — and returns the :class:`~repro.fleet.FleetResult`.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(
                f"Scenario wants a ScenarioSpec, got {type(spec).__name__}"
            )
        self.spec = spec

    def build(self) -> FleetCoordinator:
        """The fleet coordinator this scenario describes (not yet run)."""
        return build_coordinator(self.spec)

    def run(self) -> FleetResult:
        """Build and execute the scenario, returning the fleet result.

        Deterministic given the spec: an equal spec reproduces an equal
        result bit for bit (region ``i`` derives seed ``spec.seed + i``).
        """
        return self.build().run(
            duration_h=self.spec.duration_h,
            parallel_regions=self.spec.parallel_regions,
        )

    def __repr__(self) -> str:
        return f"Scenario({self.spec.label!r})"


def execute_spec(spec: ScenarioSpec) -> FleetResult:
    """Module-level worker: run one spec (picklable for process pools)."""
    return Scenario(spec).run()
