"""repro.scenarios — the declarative experiment front door.

One composable, serializable :class:`ScenarioSpec` describes every fleet
experiment: topology, per-region devices **and schemes**, demand, routing,
gating, fidelity, seed.  A :class:`Scenario` validates a spec, builds the
:class:`~repro.fleet.FleetCoordinator` and runs it; :func:`expand` /
:func:`run_sweep` grid over any spec field with optional process-pool
parallelism; the serializers round-trip specs to TOML/JSON exactly
(``repro run scenario.toml``, ``repro sweep``); the :func:`experiment`
registry is where named experiments live.

Quickstart::

    from repro.scenarios import RegionSpec, RoutingSpec, Scenario, ScenarioSpec

    spec = ScenarioSpec(
        regions=(
            RegionSpec(name="nordic-hydro", scheme="co2opt"),  # clean grid
            RegionSpec(name="us-ciso"),                         # dirty grid
        ),
        scheme="clover", n_gpus=2, duration_h=24.0,
        routing=RoutingSpec(router="carbon-greedy"),
    )
    result = Scenario(spec).run()
    print(result.scheme_by_region, result.total_carbon_g)
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "spec": (
        "ScenarioSpec", "RegionSpec", "DemandSpec", "RoutingSpec",
        "GatingSpec", "BatchSpec", "FIDELITY_NAMES", "DEMAND_KINDS",
    ),
    "scenario": ("Scenario", "build_coordinator", "execute_spec"),
    "sweep": ("expand", "run_sweep", "sweep"),
    "serialize": (
        "spec_to_dict", "spec_from_dict", "spec_to_toml", "spec_from_toml",
        "spec_to_json", "spec_from_json", "load_scenario_file", "SweepConfig",
    ),
    "registry": (
        "Experiment", "experiment", "experiment_registry", "get_experiment",
    ),
})
