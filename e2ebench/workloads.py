"""The benchmark's workloads and the output check shared by every run.

A workload is one committed example scenario file run at a stated
fidelity.  The benchmark seed is threaded into ``ScenarioSpec.seed``
(region ``i`` derives ``seed + i``); the program sees only the built spec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Largest relative difference to the stored seed-0 reference that still
#: counts as a correct output.
REFERENCE_RTOL = 1e-9

#: ``FleetResult`` views every workload reports.
COMMON_OUTPUTS = (
    "total_carbon_g",
    "total_requests",
    "accuracy_loss_pct",
    "sla_attainment",
    "mean_awake_fraction",
)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # relative to the checkout root
    fidelity: str
    outputs: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gating_paper",
            "examples/scenarios/diurnal_gating.toml",
            "paper",
            COMMON_OUTPUTS + ("user_sla_attainment",),
        ),
        Workload(
            "shifting_default",
            "examples/scenarios/load_shifting.toml",
            "default",
            COMMON_OUTPUTS
            + (
                "user_sla_attainment",
                "batch_deadline_attainment",
                "batch_carbon_g_per_request",
            ),
        ),
        Workload(
            "mixed_constant_paper",
            "examples/scenarios/mixed_scheme.toml",
            "paper",
            COMMON_OUTPUTS,
        ),
    )
}


def load_references(path: Path = REFERENCE_PATH) -> dict:
    """``{workload: {seed: {output: value}}}`` as committed."""
    with open(path) as f:
        return json.load(f)


def mismatches(
    outputs: dict[str, float], expected: dict[str, float], rtol: float = 0.0
) -> list[str]:
    """Names of outputs that differ from ``expected`` by more than ``rtol``.

    ``rtol=0`` demands bit-for-bit equality (the determinism and
    traced-versus-untraced checks); a missing or extra output is a
    mismatch too.
    """
    bad = sorted(set(outputs) ^ set(expected))
    for name in sorted(set(outputs) & set(expected)):
        got, want = outputs[name], expected[name]
        if rtol == 0.0:
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)
        if not ok:
            bad.append(name)
    return bad
