"""Experiment harness: reproduce every table and figure of the paper.

* :mod:`repro.analysis.runner` — memoized scheme x application x trace runs,
* :mod:`repro.analysis.experiments` — one entry point per table/figure,
* :mod:`repro.analysis.reporting` — ASCII tables and series sketches,
* :mod:`repro.analysis.ablations` — design-choice ablations beyond the paper.
"""

from repro.analysis.runner import (
    APPLICATIONS_UNDER_TEST,
    ExperimentRunner,
    RunSpec,
)
from repro.analysis.reporting import format_table, format_series, render
from repro.analysis.export import (
    table_to_csv,
    table_to_json,
    run_result_to_dict,
    write_json,
)
from repro.analysis.report import generate_report
from repro.analysis.ablations import (
    ablate_ged_threshold,
    ablate_warm_start,
    ablate_cooling,
    ablate_trigger_threshold,
)
from repro.analysis.experiments import (
    table1,
    fig2_mixed_quality,
    fig3_partitioning,
    fig4_intensity_variation,
    fig6_selection_example,
    fig8_evaluation_traces,
    fig9_effectiveness,
    fig10_scheme_comparison,
    fig11_objective_timeline,
    fig12_optimization_overhead,
    fig13_invocation_trajectories,
    fig14_lambda_and_threshold,
    fig15_reduced_gpus,
    fig16_geographic,
    savings_estimate,
    EXPERIMENT_REGISTRY,
)

__all__ = [
    "RunSpec",
    "ExperimentRunner",
    "APPLICATIONS_UNDER_TEST",
    "format_table",
    "format_series",
    "render",
    "table_to_csv",
    "table_to_json",
    "run_result_to_dict",
    "write_json",
    "generate_report",
    "ablate_ged_threshold",
    "ablate_warm_start",
    "ablate_cooling",
    "ablate_trigger_threshold",
    "table1",
    "fig2_mixed_quality",
    "fig3_partitioning",
    "fig4_intensity_variation",
    "fig6_selection_example",
    "fig8_evaluation_traces",
    "fig9_effectiveness",
    "fig10_scheme_comparison",
    "fig11_objective_timeline",
    "fig12_optimization_overhead",
    "fig13_invocation_trajectories",
    "fig14_lambda_and_threshold",
    "fig15_reduced_gpus",
    "fig16_geographic",
    "savings_estimate",
    "EXPERIMENT_REGISTRY",
]
