"""repro.fleet — multi-region carbon-aware serving on top of the core loop.

The seed reproduction runs one cluster against one grid trace.  This
package makes *regions* first-class: a :class:`~repro.fleet.regions.Region`
pairs a grid profile/trace with datacenter PUE, user-facing network latency
and a GPU count; a :class:`~repro.fleet.regional.RegionalService` runs the
unmodified seed control loop for one region; a
:class:`~repro.fleet.coordinator.FleetCoordinator` splits one global
Poisson workload across N regions each epoch through a pluggable
:class:`~repro.fleet.routing.Router` (static, latency-aware, or
carbon-greedy with capacity and SLA caps) and aggregates the per-region
results into a :class:`~repro.fleet.coordinator.FleetResult`.

Idle power follows traffic when elastic capacity is enabled: a per-region
:class:`~repro.fleet.capacity.CapacityManager` sleeps whole GPUs as the
routed rate falls (hysteresis-guarded) and wakes them — reactively, paying
a wake-latency window, or proactively from the forecast-aware router's
lookahead hints — under one :class:`~repro.fleet.capacity.GatingPolicy`.

Regions may run different GPU generations
(:attr:`~repro.fleet.regions.Region.devices`, built on
:mod:`repro.gpu.profiles`): the carbon-greedy and forecast-aware routers
then rank regions on *effective gCO2/request* (grid intensity x the
deployed configuration's marginal joules/request on the region's own
silicon), and gated pools always sleep their least-efficient awake device
first.  An all-A100 fleet keeps the pre-heterogeneity path bit for bit.

A :class:`~repro.scenarios.ScenarioSpec` describes a fleet and
:func:`repro.scenarios.build_coordinator` assembles it (smoke fidelity,
2-GPU regions and a 2-hour run keep this quick):

>>> from repro.scenarios import (
...     GatingSpec, RegionSpec, RoutingSpec, Scenario, ScenarioSpec)
>>> spec = ScenarioSpec(
...     regions=(RegionSpec(name="us-ciso"), RegionSpec(name="uk-eso")),
...     n_gpus=2, fidelity="smoke", duration_h=2.0,
...     routing=RoutingSpec(router="carbon-greedy"),
...     gating=GatingSpec(mode="reactive"))
>>> report = Scenario(spec).run()
>>> report.total_carbon_g > 0 and 0.0 < report.mean_awake_fraction <= 1.0
True
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "regions": (
        "Region", "REGION_NAMES", "region_by_name", "default_fleet_regions",
    ),
    "regional": ("RegionalService", "DEFAULT_MAX_UTILIZATION"),
    "routing": (
        "Router", "RoutingContext", "StaticRouter", "LatencyAwareRouter",
        "CarbonGreedyRouter", "ForecastAwareRouter", "ROUTER_NAMES",
        "make_router",
    ),
    "coordinator": (
        "FleetCoordinator", "FleetResult", "share_evaluator_caches",
        "DEFAULT_FLOOR_SHARE", "DEFAULT_DEMAND_SCALE",
    ),
    "capacity": (
        "GatingPolicy", "CapacityManager", "CapacityDecision", "GATING_MODES",
        "make_gating_policy",
    ),
})
