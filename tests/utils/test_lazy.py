"""Lazy package exports: the same names and objects as eager imports."""

import importlib
import pkgutil
import sys

import pytest

#: Each package's ``__all__`` when its ``__init__`` imported eagerly,
#: less the names deleted since, which only tests used.
EAGER_EXPORTS = {
    "repro": """
        CarbonAwareInferenceService DevicePool DeviceProfile
        DiurnalDemandModel FidelityProfile FleetCoordinator
        FleetResult GatingPolicy GeoOrigin LatencyMatrix PerfModel
        Region RegionSpec RunResult Scenario ScenarioSpec
        __version__ default_fleet_regions default_origins
        default_zoo evaluation_traces profile_by_name
        region_by_name run_sweep trace_by_name
    """,
    "repro.core": """
        BaseScheme Baseline BloverScheme CandidateRecord
        CarbonAwareInferenceService CloverScheme ClusterConfig
        Co2OptScheme ConfigEvaluator ConfigGraph EpochRecord
        EvaluatedCandidate Evaluation FidelityProfile
        GED_THRESHOLD GpuAssignment InvocationOutcome
        InvocationRecord MoveGenerator
        ObjectiveSpec ObjectiveValue OptimizationCostModel
        OptimizationResult OracleScheme PAPER_LAMBDA PAPER_N_GPUS
        RunResult SAParams SCHEME_NAMES Scheme
        ServiceController base_config co2opt_config
        derive_baseline enumerate_standardized_configs
        graph_edit_distance make_scheme
        partition_neighbors random_search realize_graph
        simulated_annealing uniform_config
    """,
    "repro.gpu": """
        A100_PROFILE DEVICE_NAMES DEVICE_PROFILES
        DevicePool DeviceProfile FINEST_PARTITION_ID
        FULL_GPU_PARTITION_ID
        H100_PROFILE L4_PROFILE MIG_PARTITIONS MigPartition
        NUM_PARTITIONS PowerModel SLICE_TYPES SliceType
        decompose_histogram parse_devices
        partition_by_id partition_histogram profile_by_name
        slice_by_name
    """,
    "repro.carbon": """
        CISO_MARCH CISO_SEPTEMBER
        CarbonIntensityMonitor CarbonIntensityTrace
        DEFAULT_CHANGE_THRESHOLD DEFAULT_PUE DiurnalForecaster
        ESO_MARCH EVALUATION_SPAN_HOURS
        GridProfile PersistenceForecaster
        carbon_grams ciso_march_48h ciso_september_48h
        eso_march_48h evaluation_traces forecast_mae
        generate_trace joules_to_kwh trace_by_name
    """,
    "repro.serving": """
        DEFAULT_BASE_UTILIZATION DEFAULT_JITTER_CV
        DEFAULT_WARMUP_FRACTION LatencySummary
        PoissonWorkload QueueEstimate
        RequestBatch ServingMetrics SlaPolicy
        default_rate erlang_c estimate_fifo sample_jitter
        simulate_fifo summarize
    """,
    "repro.fleet": """
        CapacityDecision CapacityManager CarbonGreedyRouter
        DEFAULT_DEMAND_SCALE DEFAULT_FLOOR_SHARE
        DEFAULT_MAX_UTILIZATION FleetCoordinator FleetResult
        ForecastAwareRouter GATING_MODES GatingPolicy
        LatencyAwareRouter REGION_NAMES ROUTER_NAMES Region
        RegionalService Router RoutingContext StaticRouter
        default_fleet_regions make_gating_policy
        make_router region_by_name share_evaluator_caches
    """,
    "repro.scenarios": """
        BatchSpec DEMAND_KINDS DemandSpec Experiment
        FIDELITY_NAMES GatingSpec RegionSpec RoutingSpec Scenario
        ScenarioSpec SweepConfig build_coordinator execute_spec
        expand experiment experiment_registry get_experiment
        load_scenario_file run_sweep spec_from_dict spec_from_json
        spec_from_toml spec_to_dict spec_to_json spec_to_toml
        sweep
    """,
    "repro.analysis": """
        APPLICATIONS_UNDER_TEST EXPERIMENT_REGISTRY
        ExperimentRunner RunSpec ablate_cooling
        ablate_ged_threshold ablate_trigger_threshold
        ablate_warm_start fig10_scheme_comparison
        fig11_objective_timeline fig12_optimization_overhead
        fig13_invocation_trajectories fig14_lambda_and_threshold
        fig15_reduced_gpus fig16_geographic fig2_mixed_quality
        fig3_partitioning fig4_intensity_variation
        fig6_selection_example fig8_evaluation_traces
        fig9_effectiveness format_series format_table
        generate_report render run_result_to_dict savings_estimate
        table1 table_to_csv table_to_json write_json
    """,
}


def _defining_modules(package: str) -> list:
    """Every non-package module under ``package``, imported."""
    root = importlib.import_module(package)
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(root.__path__, f"{package}.")
        if not info.ispkg and not info.name.endswith("__main__")
    ]


@pytest.mark.parametrize("package", sorted(EAGER_EXPORTS))
class TestExportTables:
    def test_all_is_unchanged(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) == set(EAGER_EXPORTS[package].split())
        assert len(module.__all__) == len(set(module.__all__))

    def test_each_name_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        holders = _defining_modules(package)
        for name in set(module.__all__) - {"__version__"}:
            value = getattr(module, name)
            if hasattr(value, "__module__") and hasattr(value, "__qualname__"):
                home = sys.modules[value.__module__]
                assert vars(home)[name] is value, (package, name)
            assert any(vars(m).get(name) is value for m in holders), (
                package,
                name,
            )

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})


def test_star_import_binds_every_export():
    namespace = {}
    exec("from repro.scenarios import *", namespace)
    assert set(EAGER_EXPORTS["repro.scenarios"].split()) <= set(namespace)
    assert callable(namespace["sweep"])
