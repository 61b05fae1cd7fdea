"""One-shot reproduction report: every experiment, one Markdown document.

``python -m repro report --out REPORT.md`` regenerates every
registered experiment's table in a single run, with timings and the
environment header a reader needs to re-check the numbers.
"""

from __future__ import annotations

import platform
import time
from pathlib import Path

from repro.analysis.experiments import EXPERIMENT_REGISTRY
from repro.analysis.reporting import render
from repro.analysis.runner import ExperimentRunner

__all__ = ["generate_report"]


def generate_report(
    fidelity: str = "default",
    seed: int = 0,
    experiments: tuple[str, ...] | None = None,
    out_path: str | Path | None = None,
) -> str:
    """Run the selected experiments and return the Markdown report.

    ``experiments`` defaults to every registered experiment; unknown names
    raise before anything runs (fail fast, not after an hour of sweeps).
    """
    names = (
        sorted(EXPERIMENT_REGISTRY) if experiments is None else list(experiments)
    )
    unknown = [n for n in names if n not in EXPERIMENT_REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(EXPERIMENT_REGISTRY))}"
        )

    runner = ExperimentRunner()
    lines = [
        "# Clover (SC '23) — reproduction report",
        "",
        f"- fidelity: `{fidelity}`, seed: `{seed}`",
        f"- python: {platform.python_version()} on {platform.system()}",
        "- every table below is regenerable with "
        f"`python -m repro run <experiment> --fidelity {fidelity} --seed {seed}`",
        "",
    ]
    total_s = 0.0
    for name in names:
        t0 = time.perf_counter()
        result = EXPERIMENT_REGISTRY[name](runner, fidelity, seed)
        dt = time.perf_counter() - t0
        total_s += dt
        lines.append(f"## {EXPERIMENT_REGISTRY[name].description}")
        lines.append("")
        lines.append(f"_experiment `{name}`, {dt:.1f}s_")
        lines.append("")
        lines.append("```")
        lines.append(render(result))
        lines.append("```")
        lines.append("")
    lines.append(f"_total runtime: {total_s:.1f}s_")
    text = "\n".join(lines)
    if out_path is not None:
        Path(out_path).write_text(text)
    return text
