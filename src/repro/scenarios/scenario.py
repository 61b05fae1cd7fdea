"""Scenario: validate a ScenarioSpec, assemble the fleet, run it.

:func:`build_coordinator` is the only place a fleet is assembled: region
registry lookups, device pools, the origin latency matrix, regional
services, cache pooling, the demand model, router construction (with the
intensity-only ablation), gating policies, batch classes and per-region
schemes all happen here, so two equal specs always build the identical
coordinator.

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
from repro.fleet.coordinator import (
    FleetCoordinator,
    FleetResult,
    share_evaluator_caches,
)
from repro.fleet.regional import RegionalService
from repro.fleet.regions import region_by_name
from repro.fleet.routing import make_router
from repro.models.perf import PerfModel
from repro.models.zoo import default_zoo
from repro.scenarios.spec import ScenarioSpec

__all__ = ["Scenario", "build_coordinator", "execute_spec"]


def build_coordinator(spec: ScenarioSpec) -> FleetCoordinator:
    """Assemble the :class:`FleetCoordinator` a spec describes.

    Pure construction — no simulation runs.  Region ``i`` gets root seed
    ``spec.seed + i``, so region 0 of an N=1 fleet reproduces the
    standalone service at the same seed exactly.  Raises ``KeyError`` /
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

    # A switched-off subsystem costs nothing: the demand, gating and
    # batch layers are imported only by the specs that turn them on.
    origins = latency_matrix = None
    if spec.demand.kind is not None:
        from repro.demand import (
            default_demand,
            default_latency_matrix,
            default_origins,
        )

        origins = default_origins()
        latency_matrix = default_latency_matrix(origins, regions)
        # The SLA baseline is tightened by the region's *nearest-origin*
        # hop — the resident users the datacenter is provisioned for.  The
        # extra hop of every farther origin is charged at routing time,
        # per (origin, region) cell, by plan_origin_cells' budget
        # bisections, and again when attainment is judged
        # (user_sla_attainment).
        regions = tuple(
            replace(region, net_latency_ms=float(lat))
            for region, lat in zip(
                regions, latency_matrix.nearest_origin_latency()
            )
        )

    # One zoo and one perf oracle for the whole fleet: default_zoo()
    # returns a new object per call, and share_evaluator_caches pools
    # only evaluators that price the same objects.
    zoo, perf = default_zoo(), PerfModel()
    fidelity = FidelityProfile.by_name(spec.fidelity)
    services = [
        RegionalService.create(
            region=region,
            application=spec.application,
            scheme=scheme,
            lambda_weight=spec.lambda_weight,
            fidelity=fidelity,
            seed=spec.seed + i,
            zoo=zoo,
            perf=perf,
        )
        for i, (region, scheme) in enumerate(zip(regions, spec.region_schemes))
    ]
    share_evaluator_caches(services)

    demand = None
    if spec.demand.kind is not None:
        # At scale 1.0 the mean is *exactly* the nominal global rate
        # (1.0 * x == x in IEEE): the bit-for-bit anchor.
        mean_rate = spec.demand.scale * float(
            sum(s.nominal_rate_per_s for s in services)
        )
        demand = default_demand(
            mean_rate, kind=spec.demand.kind, origins=origins
        )

    router_kwargs = {}
    if spec.routing.lookahead_h is not None:
        router_kwargs["lookahead_h"] = spec.routing.lookahead_h
    if not spec.routing.efficiency_weighted:
        # Spec validation already restricted both keywords to the
        # routers that take them.
        router_kwargs["efficiency_weighted"] = False
    router = make_router(spec.routing.router, **router_kwargs)

    gating = None
    if spec.gating.mode is not None:
        from repro.fleet.capacity import make_gating_policy

        overrides = {}
        if spec.gating.wake_energy_j is not None:
            overrides["wake_energy_j"] = spec.gating.wake_energy_j
        gating = make_gating_policy(spec.gating.mode, **overrides)

    batch = None
    if spec.batch.enabled:
        from repro.shifting import BatchJobClass

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

    return FleetCoordinator(
        services,
        router,
        demand=demand,
        latency_matrix=latency_matrix,
        ramp_share_per_h=spec.demand.ramp_share_per_h,
        drain_share_per_h=spec.demand.drain_share_per_h,
        forecaster=spec.routing.forecaster,
        gating=gating,
        batch=batch,
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
