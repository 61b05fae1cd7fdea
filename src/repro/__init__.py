"""repro — a from-scratch reproduction of Clover (SC '23).

Clover is a carbon-aware ML inference serving runtime that jointly chooses
mixed-quality model variants and MIG GPU partitions to trade carbon
emissions against accuracy under a p95 tail-latency SLA, re-optimizing
online as grid carbon intensity changes.

Quickstart (smoke fidelity and 2-hour runs keep these examples quick):

>>> from repro import CarbonAwareInferenceService
>>> service = CarbonAwareInferenceService.create(
...     application="classification", scheme="clover", fidelity="smoke")
>>> report = service.run(duration_h=2.0)
>>> report.total_carbon_g > 0 and len(report.epochs) == 2
True

Multi-region fleets are :class:`ScenarioSpec` descriptions run by a
:class:`Scenario`:

>>> from repro import RegionSpec, Scenario, ScenarioSpec
>>> from repro.scenarios import DemandSpec, GatingSpec, RoutingSpec
>>> regions = tuple(RegionSpec(name=n) for n in ("us-ciso", "uk-eso"))
>>> spec = ScenarioSpec(
...     regions=regions + (RegionSpec(name="nordic-hydro"),), n_gpus=2,
...     fidelity="smoke", duration_h=2.0,
...     routing=RoutingSpec(router="carbon-greedy"))
>>> round(Scenario(spec).run().sla_attainment, 9)  # every epoch in SLA
1.0

Geo-diurnal demand with forecast-driven proactive routing and elastic
GPU capacity (idle power follows traffic):

>>> spec = ScenarioSpec(
...     regions=regions + (RegionSpec(name="apac-solar"),), n_gpus=4,
...     fidelity="smoke", duration_h=2.0,
...     routing=RoutingSpec(router="forecast-aware", lookahead_h=6.0),
...     demand=DemandSpec(
...         kind="diurnal", ramp_share_per_h=0.10, drain_share_per_h=0.20),
...     gating=GatingSpec(mode="forecast"))
>>> report = Scenario(spec).run()
>>> 0.0 <= report.user_sla_attainment <= 1.0  # per origin-region pair
True
>>> 0.0 < report.mean_awake_fraction <= 1.0
True

Heterogeneous GPU generations (routing ranks on gCO2/request):

>>> spec = ScenarioSpec(
...     regions=(RegionSpec(name="us-ciso", devices="a100"),
...              RegionSpec(name="apac-solar", devices="l4")),
...     n_gpus=2, fidelity="smoke", duration_h=2.0,
...     routing=RoutingSpec(router="carbon-greedy"))
>>> sorted(Scenario(spec).run().request_shares)
['apac-solar', 'us-ciso']

Packages: :mod:`repro.gpu` (MIG substrate), :mod:`repro.models` (Table-1
model zoo), :mod:`repro.serving` (queueing + DES), :mod:`repro.carbon`
(traces + accounting + forecasting), :mod:`repro.core` (the Clover
system), :mod:`repro.fleet` (multi-region coordination and routing),
:mod:`repro.demand` (geo-diurnal demand origins and latency matrix),
:mod:`repro.scenarios` (the declarative ScenarioSpec front door: specs,
TOML/JSON round-trips, sweeps, the experiment registry), and
:mod:`repro.analysis` (paper-figure experiment harness).
"""

from repro.utils.lazy import lazy_exports

__version__ = "1.3.0"

__all__ = lazy_exports(__name__, {
    "core.service": ("CarbonAwareInferenceService", "FidelityProfile"),
    "core.controller": ("RunResult",),
    "demand": (
        "DiurnalDemandModel", "GeoOrigin", "LatencyMatrix", "default_origins",
    ),
    "fleet": (
        "FleetCoordinator", "FleetResult", "GatingPolicy", "Region",
        "default_fleet_regions", "region_by_name",
    ),
    "gpu.profiles": ("DevicePool", "DeviceProfile", "profile_by_name"),
    "models.zoo": ("default_zoo",),
    "models.perf": ("PerfModel",),
    "carbon.traces": ("evaluation_traces",),
    "scenarios": ("RegionSpec", "Scenario", "ScenarioSpec", "run_sweep"),
}) + ["__version__"]
