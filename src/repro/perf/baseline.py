"""The committed perf baseline: JSON schema + regression check.

``BENCH_perf_core.json`` at the repo root is the trajectory's anchor: it
records each pinned scenario's ops/s and scalar-vs-batched speedup, plus
the recording host's :func:`repro.perf.core.calibration_ops_per_s`.  The
check compares

* **speedups** directly — dimensionless, same-machine ratios, portable
  as-is, and
* **ops/s** after normalizing both sides by their own host calibration —
  a slow CI runner is slow on the calibration kernel too, so the ratio
  cancels machine speed and leaves genuine hot-path regressions.

Both must stay within a tolerance band (default 30% below baseline) or
:func:`check_regressions` reports failures and ``repro bench --check``
(and the CI perf job) fail.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf.core import SuiteResult

#: Allowed fractional drop below the committed baseline.
DEFAULT_TOLERANCE = 0.30

#: The committed baseline's location, relative to the repo root.
BASELINE_FILENAME = "BENCH_perf_core.json"


def baseline_path() -> Path:
    """The default committed-baseline path (repo root)."""
    return Path(__file__).resolve().parents[3] / BASELINE_FILENAME


def write_baseline(result: SuiteResult, path: str | Path) -> Path:
    """Serialize a suite result as the committed-baseline JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_baseline(path: str | Path) -> dict:
    """Load and minimally validate a committed baseline."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != 1:
        raise ValueError(
            f"unsupported perf baseline schema {data.get('schema')!r}"
        )
    if "scenarios" not in data or "calibration_ops_per_s" not in data:
        raise ValueError("perf baseline is missing required keys")
    return data


def check_regressions(
    current: SuiteResult,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Compare a fresh run against the committed baseline.

    Returns a list of human-readable failures (empty = no regression).
    A baseline recorded at another fidelity is one failure: the scenarios
    size their work by fidelity, so their numbers do not compare.
    Scenarios present only on one side are skipped: adding a scenario
    must not fail the gate until its baseline is committed.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    if baseline.get("fidelity") != current.fidelity:
        return [
            f"fidelity mismatch: baseline recorded at "
            f"{baseline.get('fidelity')!r}, this run at {current.fidelity!r}"
        ]
    failures: list[str] = []
    floor = 1.0 - tolerance
    base_cal = float(baseline["calibration_ops_per_s"])
    for scenario in current.scenarios:
        base = baseline["scenarios"].get(scenario.name)
        if base is None:
            continue
        base_speedup = float(base["speedup_vs_scalar"])
        if scenario.speedup_vs_scalar < floor * base_speedup:
            failures.append(
                f"{scenario.name}: speedup {scenario.speedup_vs_scalar:.2f}x "
                f"< {floor:.2f} * baseline {base_speedup:.2f}x"
            )
        base_norm = float(base["ops_per_s"]) / base_cal
        cur_norm = scenario.ops_per_s / current.calibration_ops_per_s
        if cur_norm < floor * base_norm:
            failures.append(
                f"{scenario.name}: calibrated ops/s {cur_norm:.4f} "
                f"< {floor:.2f} * baseline {base_norm:.4f} "
                f"(raw {scenario.ops_per_s:.1f} vs {base['ops_per_s']:.1f})"
            )
    return failures
