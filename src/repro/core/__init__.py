"""Clover's core: the paper's contribution (Sec. 4).

* :mod:`repro.core.config` — the ``(x_p, x_v)`` optimization variables,
* :mod:`repro.core.graph` — the configuration graph and GED (Sec. 4.2),
* :mod:`repro.core.feasibility` — graph ↔ concrete deployment bridging,
* :mod:`repro.core.objective` — Eqs. 1-3 and the SA energy (Eq. 6),
* :mod:`repro.core.evaluator` — config → (accuracy, energy, p95), cached,
* :mod:`repro.core.moves` — GED ≤ 4 neighbourhood sampling,
* :mod:`repro.core.annealing` — simulated annealing and random search,
* :mod:`repro.core.schemes` — BASE / CO2OPT / BLOVER / CLOVER / ORACLE,
* :mod:`repro.core.controller` — the monitor → optimize → deploy loop,
* :mod:`repro.core.service` — the public facade.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "config": (
        "ClusterConfig", "GpuAssignment", "uniform_config", "base_config",
        "co2opt_config",
    ),
    "graph": ("ConfigGraph", "graph_edit_distance"),
    "feasibility": ("realize_graph",),
    "objective": ("ObjectiveSpec", "ObjectiveValue"),
    "evaluator": ("ConfigEvaluator", "Evaluation"),
    "moves": ("MoveGenerator", "partition_neighbors", "GED_THRESHOLD"),
    "annealing": (
        "SAParams", "OptimizationCostModel", "EvaluatedCandidate",
        "OptimizationResult", "simulated_annealing", "random_search",
    ),
    "schemes": (
        "Scheme", "BaseScheme", "Co2OptScheme", "BloverScheme",
        "CloverScheme", "OracleScheme", "make_scheme", "SCHEME_NAMES",
        "InvocationOutcome", "enumerate_standardized_configs",
    ),
    "controller": (
        "ServiceController", "RunResult", "EpochRecord", "InvocationRecord",
        "CandidateRecord",
    ),
    "service": (
        "CarbonAwareInferenceService", "FidelityProfile", "Baseline",
        "derive_baseline", "PAPER_N_GPUS", "PAPER_LAMBDA",
    ),
})
