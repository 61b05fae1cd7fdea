"""Experiment harness: reproduce every table and figure of the paper.

* :mod:`repro.analysis.runner` — the one memoized run path (scenario specs),
* :mod:`repro.analysis.experiments` — one entry point per table/figure,
* :mod:`repro.analysis.reporting` — ASCII tables and series sketches,
* :mod:`repro.analysis.ablations` — design-choice ablations beyond the paper.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "runner": ("ExperimentRunner", "APPLICATIONS_UNDER_TEST"),
    "reporting": ("format_table", "format_series", "render"),
    "export": ("table_to_csv", "table_to_json", "run_result_to_dict", "write_json"),
    "report": ("generate_report",),
    "ablations": (
        "ablate_ged_threshold", "ablate_warm_start", "ablate_cooling",
        "ablate_trigger_threshold",
    ),
    "experiments": (
        "table1", "fig2_mixed_quality", "fig3_partitioning",
        "fig4_intensity_variation", "fig6_selection_example",
        "fig8_evaluation_traces", "fig9_effectiveness",
        "fig10_scheme_comparison", "fig11_objective_timeline",
        "fig12_optimization_overhead", "fig13_invocation_trajectories",
        "fig14_lambda_and_threshold", "fig15_reduced_gpus",
        "fig16_geographic", "savings_estimate", "EXPERIMENT_REGISTRY",
    ),
})
