"""The perf trajectory's pinned scenarios + committed-baseline gate.

Unlike the figure benches, these runs are *measurements with teeth*: the
scenario results are compared against the committed
``BENCH_perf_core.json`` (30% tolerance, calibration-normalized — see
:mod:`repro.perf.baseline`), and at strict fidelity every batched path
must beat its scalar reference.  The baseline check only compares runs
at the baseline's own fidelity (smoke, as the CI perf job runs).
Regenerate the baseline after an intentional perf change with::

    clover-repro bench --fidelity smoke --out BENCH_perf_core.json
"""

import pytest

from conftest import FIDELITY, once, strict
from repro.perf import (
    DEFAULT_TOLERANCE,
    baseline_path,
    check_regressions,
    load_baseline,
    run_suite,
    scenario_batch_eval_1k,
    scenario_routing_epoch,
    scenario_sa_epoch,
    scenario_shifting_epoch,
)


def test_batch_eval_1k(benchmark):
    """1000 SA-walk candidates: evaluate_batch vs the scalar loop."""
    result = once(benchmark, scenario_batch_eval_1k, FIDELITY)
    print(
        f"\nbatch_eval_1k: {result.ops_per_s:,.0f} evals/s, "
        f"{result.speedup_vs_scalar:.1f}x vs scalar"
    )
    assert result.items == 1000
    if strict():
        assert result.speedup_vs_scalar > 1.0


def test_sa_epoch(benchmark):
    """One annealing invocation, batched neighbourhood vs scalar chain."""
    result = once(benchmark, scenario_sa_epoch, FIDELITY)
    print(
        f"\nsa_epoch: {result.ops_per_s:,.0f} evals/s, "
        f"{result.speedup_vs_scalar:.1f}x vs scalar"
    )
    if strict():
        assert result.speedup_vs_scalar > 1.0


def test_routing_epoch(benchmark):
    """A 5-region diurnal day of cell planning vs the scalar reference."""
    result = once(benchmark, scenario_routing_epoch, FIDELITY)
    print(
        f"\nrouting_epoch: {result.ops_per_s:,.0f} epochs/s, "
        f"{result.speedup_vs_scalar:.1f}x vs scalar"
    )
    if strict():
        assert result.speedup_vs_scalar > 1.0


def test_shifting_epoch(benchmark):
    """A day of fine-grained batch-slot planning vs the scalar reference."""
    result = once(benchmark, scenario_shifting_epoch, FIDELITY)
    print(
        f"\nshifting_epoch: {result.ops_per_s:,.0f} epochs/s, "
        f"{result.speedup_vs_scalar:.1f}x vs scalar"
    )
    if strict():
        assert result.speedup_vs_scalar > 1.0


def test_no_regression_vs_committed_baseline(benchmark):
    """The CI gate: a fresh suite must stay within the tolerance band."""
    path = baseline_path()
    if not path.exists():  # pragma: no cover - the baseline is committed
        pytest.fail(f"committed perf baseline missing: {path}")
    baseline = load_baseline(path)
    if baseline.get("fidelity") != FIDELITY:
        pytest.skip(
            f"committed baseline is {baseline.get('fidelity')!r} fidelity; "
            f"CLOVER_BENCH_FIDELITY={FIDELITY!r} numbers do not compare"
        )
    suite = once(benchmark, run_suite, FIDELITY)
    failures = check_regressions(suite, baseline, DEFAULT_TOLERANCE)
    assert not failures, "perf regression vs committed baseline:\n" + "\n".join(
        failures
    )
