"""The perf trajectory's committed-baseline schema and regression check."""

import json

import pytest

from repro.perf import (
    DEFAULT_TOLERANCE,
    ScenarioResult,
    SuiteResult,
    baseline_path,
    calibration_ops_per_s,
    check_regressions,
    load_baseline,
    write_baseline,
)


def suite(
    ops=1000.0, speedup=10.0, cal=100.0, name="batch_eval_1k", fidelity="smoke"
):
    return SuiteResult(
        fidelity=fidelity,
        calibration_ops_per_s=cal,
        scenarios=(
            ScenarioResult(
                name=name, ops_per_s=ops, speedup_vs_scalar=speedup,
                items=1000, seconds=1.0, scalar_seconds=speedup,
            ),
        ),
    )


class TestSchema:
    def test_roundtrip(self, tmp_path):
        path = write_baseline(suite(), tmp_path / "b.json")
        data = load_baseline(path)
        assert data["schema"] == 1
        assert data["calibration_ops_per_s"] == 100.0
        assert data["scenarios"]["batch_eval_1k"]["speedup_vs_scalar"] == 10.0

    def test_rejects_unknown_schema(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 99, "scenarios": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(p)

    def test_rejects_missing_keys(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 1, "scenarios": {}}))
        with pytest.raises(ValueError, match="missing"):
            load_baseline(p)

    def test_scenario_lookup(self):
        s = suite()
        assert s.scenario("batch_eval_1k").items == 1000
        with pytest.raises(KeyError):
            s.scenario("nope")

    def test_committed_baseline_is_valid_and_meets_the_bar(self):
        """The repo's own BENCH_perf_core.json: loadable, and its
        1k-candidate batch evaluation beats the scalar loop."""
        data = load_baseline(baseline_path())
        headline = data["scenarios"]["batch_eval_1k"]
        assert headline["items"] == 1000
        assert headline["speedup_vs_scalar"] > 1.0


class TestCheckRegressions:
    def test_identical_run_passes(self, tmp_path):
        base = load_baseline(write_baseline(suite(), tmp_path / "b.json"))
        assert check_regressions(suite(), base) == []

    def test_within_tolerance_passes(self, tmp_path):
        base = load_baseline(write_baseline(suite(), tmp_path / "b.json"))
        ok = suite(ops=750.0, speedup=7.5)  # 25% drop < 30% tolerance
        assert check_regressions(ok, base) == []

    def test_speedup_regression_fails(self, tmp_path):
        base = load_baseline(write_baseline(suite(), tmp_path / "b.json"))
        bad = suite(speedup=6.0)  # 40% drop
        failures = check_regressions(bad, base)
        assert len(failures) == 1
        assert "speedup" in failures[0]

    def test_opsps_regression_fails(self, tmp_path):
        base = load_baseline(write_baseline(suite(), tmp_path / "b.json"))
        bad = suite(ops=500.0)  # 50% ops/s drop, same calibration
        failures = check_regressions(bad, base)
        assert len(failures) == 1
        assert "ops/s" in failures[0]

    def test_calibration_cancels_machine_speed(self, tmp_path):
        """Half-speed host: ops/s halves but so does the calibration —
        the normalized ratio is unchanged and the check passes."""
        base = load_baseline(write_baseline(suite(), tmp_path / "b.json"))
        slow_host = suite(ops=500.0, cal=50.0)
        assert check_regressions(slow_host, base) == []

    def test_new_scenario_skipped(self, tmp_path):
        base = load_baseline(write_baseline(suite(), tmp_path / "b.json"))
        added = suite(name="brand_new", ops=1.0, speedup=0.01)
        assert check_regressions(added, base) == []

    def test_fidelity_mismatch_fails(self, tmp_path):
        """A default-fidelity run against a smoke baseline is one failure,
        even when every number would pass."""
        base = load_baseline(write_baseline(suite(), tmp_path / "b.json"))
        failures = check_regressions(suite(fidelity="default"), base)
        assert len(failures) == 1
        assert "fidelity mismatch" in failures[0]
        assert "'smoke'" in failures[0] and "'default'" in failures[0]

    def test_tolerance_validation(self, tmp_path):
        base = load_baseline(write_baseline(suite(), tmp_path / "b.json"))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="tolerance"):
                check_regressions(suite(), base, tolerance=bad)


class TestCalibration:
    def test_positive_and_repeatable_order_of_magnitude(self):
        a = calibration_ops_per_s(repeats=2)
        b = calibration_ops_per_s(repeats=2)
        assert a > 0 and b > 0
        # min-of-N timing on a fixed kernel: same order of magnitude.
        assert 0.2 < a / b < 5.0
