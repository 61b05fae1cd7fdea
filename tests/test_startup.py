"""What a run imports: set-up loads only the layers a spec switches on.

Each probe runs in a fresh interpreter, because by then the test run
has imported every module.  A switched-off subsystem must cost
nothing at import time, and a switched-on one loads while the fleet is
built, never inside ``run()``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = REPO_ROOT / "examples" / "scenarios"

#: Modules a constant-demand, ungated, batch-free fleet on implicit
#: A100s never runs: the demand, shifting and gating layers, the
#: forecasters, the device-pool feasibility bridge and its histogram
#: decomposition, and the sweep and experiment-registry modules.
SWITCHED_OFF = (
    "repro.carbon.forecast",
    "repro.demand",
    "repro.demand.diurnal",
    "repro.demand.matrix",
    "repro.demand.origins",
    "repro.shifting",
    "repro.shifting.batch",
    "repro.shifting.scheduler",
    "repro.fleet.capacity",
    "repro.core.feasibility",
    "repro.gpu.cluster",
    "repro.scenarios.sweep",
    "repro.scenarios.registry",
)

_LOADED = (
    "sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))"
)

_BUILD_AND_RUN = f"""\
import json, sys
from pathlib import Path
import repro
from repro.scenarios import Scenario, spec_from_toml
spec = spec_from_toml(Path(sys.argv[1]).read_text()).with_fidelity("smoke")
fleet = Scenario(spec).build()
built = {_LOADED}
fleet.run(duration_h=2.0)
print(json.dumps({{"built": built, "ran": {_LOADED}}}))
"""


def _python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _build_and_run(scenario: str) -> dict[str, list[str]]:
    out = _python(_BUILD_AND_RUN, str(SCENARIOS / scenario))
    return json.loads(out.splitlines()[-1])


def test_import_repro_loads_no_layer():
    loaded = json.loads(
        _python(f"import json, sys, repro\nprint(json.dumps({_LOADED}))")
    )
    assert loaded and all(
        m == "repro" or m.startswith("repro.utils") for m in loaded
    ), loaded


def test_constant_fleet_never_loads_switched_off_layers():
    loaded = set(SWITCHED_OFF) & set(_build_and_run("mixed_scheme.toml")["ran"])
    assert not loaded, sorted(loaded)


@pytest.mark.parametrize(
    "scenario", ["load_shifting.toml", "diurnal_gating.toml"]
)
def test_switched_on_layers_load_at_build(scenario):
    modules = _build_and_run(scenario)
    assert modules["ran"] == modules["built"]
    # The probe is not vacuous: these specs do switch layers on.
    assert "repro.fleet.capacity" in modules["built"]
    assert "repro.demand.diurnal" in modules["built"]


def test_scenario_file_run_skips_the_experiment_harness():
    code = f"""\
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["run", sys.argv[1], "--fidelity", "smoke"])
print(json.dumps({{"code": code, "loaded": {_LOADED}}}))
"""
    out = json.loads(
        _python(code, str(SCENARIOS / "mixed_scheme.toml")).splitlines()[-1]
    )
    assert out["code"] == 0
    assert "repro.analysis.experiments" not in out["loaded"]


@pytest.mark.parametrize(
    "first",
    [
        "import repro.scenarios.sweep",
        "from repro.scenarios.sweep import expand",
        "from repro.scenarios import run_sweep",
        "import repro; repro.run_sweep",
        "from repro.scenarios import *",
        "pass",
    ],
)
def test_sweep_is_the_function_in_every_import_order(first):
    """``sweep`` names a submodule and the function it defines."""
    out = _python(
        f"{first}\nfrom repro.scenarios import sweep\n"
        "import repro.scenarios\n"
        "print(sweep.__module__, callable(sweep),"
        " repro.scenarios.sweep is sweep)"
    )
    assert out.split() == ["repro.scenarios.sweep", "True", "True"]
