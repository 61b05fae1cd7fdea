"""Run-level planning tables: the SLA budget tables and what a run imports.

``FleetCoordinator._sla_budget_tables`` dedups each region's budgets with
a sorted set instead of ``np.unique``, whose first call imports
``numpy.ma``; the tables must still equal ``np.unique``'s bit for bit,
and a whole shifting run must never load ``numpy.ma``.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.fleet import FleetCoordinator

ROOT = Path(__file__).resolve().parents[2]


def budget_tables(latency, targets):
    stub = SimpleNamespace(
        latency_matrix=SimpleNamespace(latency_ms=latency),
        services=[None] * latency.shape[1],
    )
    return FleetCoordinator._sla_budget_tables(stub, targets)


@st.composite
def budget_problems(draw):
    n_o = draw(st.integers(min_value=1, max_value=8))
    n_r = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    latency = rng.uniform(0.0, 200.0, (n_o, n_r))
    if draw(st.booleans()):
        latency = latency.round(-1)  # duplicate budgets
    targets = rng.uniform(0.0, 200.0, n_r)
    if draw(st.booleans()):
        targets = targets.round(-1)
    # Zero budgets: a hop that uses up the whole target.
    for o, r in zip(rng.integers(0, n_o, 3), rng.integers(0, n_r, 3)):
        if rng.random() < 0.5:
            latency[o, r] = targets[r]
    return latency, targets


class TestSlaBudgetTables:
    @given(problem=budget_problems())
    @settings(max_examples=120, deadline=None)
    def test_equal_np_unique_positive_budgets(self, problem):
        latency, targets = problem
        tables = budget_tables(latency, targets)
        assert len(tables) == latency.shape[1]
        for r, table in enumerate(tables):
            budgets = np.unique(targets[r] - latency[:, r])
            expected = budgets[budgets > 0.0]
            assert table.dtype == expected.dtype == np.float64
            assert table.shape == expected.shape
            assert table.tobytes() == expected.tobytes()

    def test_duplicate_zero_and_negative_budgets(self):
        latency = np.array([[10.0, 5.0], [10.0, 80.0], [40.0, 60.0], [100.0, 5.0]])
        targets = np.array([100.0, 60.0])
        tables = budget_tables(latency, targets)
        assert [t.tolist() for t in tables] == [[60.0, 90.0], [55.0]]


_RUN_PROBE = """
import sys
from pathlib import Path

from repro.scenarios import Scenario, spec_from_toml

spec = spec_from_toml(Path(sys.argv[1]).read_text()).with_fidelity("smoke")
Scenario(spec).build().run(duration_h=2.0)
print("numpy.ma" in sys.modules)
"""


def _python(code, *args):
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1]


def test_a_shifting_run_never_imports_numpy_ma():
    """Importing ``numpy.ma`` costs about 13 ms; no layer of a run needs it."""
    if _python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy loads numpy.ma at import")
    scenario = ROOT / "examples" / "scenarios" / "load_shifting.toml"
    assert _python(_RUN_PROBE, str(scenario)) == "False"
