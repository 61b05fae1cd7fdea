"""Self-tests of the end-to-end benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q e2ebench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run
from spans import Span, SpanRecorder, load_spans, self_times, subtree
from workloads import WORKLOADS, load_references, mismatches

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Boundaries no example scenario crosses: SA proposes one neighbour per
#: step by default, so ``evaluate_batch`` only runs for ``neighborhood > 1``.
OFF_SCENARIO_PATH = {"core.evaluator.evaluate_batch"}


# ------------------------------------------------------------------ #
# span arithmetic
# ------------------------------------------------------------------ #


def test_self_time_on_a_nested_span_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.child", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 9.0),
        Span(4, 0, "c", 8.0, 9.5),  # overlaps b: covered once
        Span(5, 3, "b.child", 8.5, 12.0),  # clipped to b's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(4.0 - 0.5)
    assert selfs[4] == pytest.approx(1.5)
    assert {s.id for s in subtree(spans, 1)} == {1, 2}


def test_properly_nested_self_times_add_up_to_the_root():
    spans = [
        Span(0, None, layers.RUN_SPAN, 0.0, 1.0),
        Span(1, 0, "fleet.regional.step", 0.1, 0.4),
        Span(2, 1, "core.schemes.optimize", 0.15, 0.3),
        Span(3, 0, "fleet.regional.step", 0.5, 0.9),
    ]
    _, stats = layers.run_layers(spans)
    assert sum(st.self_s for st in stats.values()) == pytest.approx(1.0)
    assert stats["fleet.regional.step"].calls == 2
    assert stats["fleet.regional.step"].self_s == pytest.approx(0.55)


def test_same_name_reentry_records_one_span():
    rec = SpanRecorder("t")
    inner = rec.wrap("x", lambda: 1)
    outer = rec.wrap("x", lambda: inner() + 1)
    other = rec.wrap("y", lambda: outer())
    assert other() == 2
    assert [s[2] for s in rec.spans] == ["x", "y"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert layers.tail_percentile(1728) == 99.0
    assert layers.tail_percentile(864) == 98.0
    assert layers.tail_percentile(5) is None
    values = list(range(1, 101))
    assert layers.nearest_rank(values, 90.0) == 90


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:       400 |        400 |       scipy._lib",
            "import time:       500 |        900 |     scipy",
            "import time:       600 |       1500 |   scipy.stats",
            "import time:        50 |       1850 | repro",
        ]
    )
    repro_s, scipy_s = run.parse_importtime(stderr)
    assert repro_s == pytest.approx(1850e-6)
    assert scipy_s == pytest.approx(1500e-6)  # scipy nests inside scipy.stats


# ------------------------------------------------------------------ #
# names, units and the interaction table
# ------------------------------------------------------------------ #


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units():
    for name, unit in {**run.E2E_UNITS, **layers.METRIC_UNITS}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.METRIC_UNITS
    gated = [w["name"] for w in bench["workloads"]]
    assert set(gated) <= set(WORKLOADS)
    table = json.loads((BENCH_DIR / "interactions.json").read_text())
    assert gated == [
        name for name, w in table["workloads"].items() if w["in_benchmark_json"]
    ]


def test_interaction_table_covers_every_metric():
    table = json.loads((BENCH_DIR / "interactions.json").read_text())
    bench = _benchmark_json()
    assert set(table["workloads"]) == set(WORKLOADS)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert set(table["metrics"]) == set(better)
    for name, entry in table["metrics"].items():
        assert entry["better"] == better[name], name
        for target in entry.get("moves", []):
            assert target["metric"] in run.E2E_UNITS, name
            assert set(target["workloads"]) <= set(WORKLOADS), name
    assert table["held_out_seed"] != 0


def test_reference_outputs_match_workload_definitions():
    refs = load_references()
    for name, workload in WORKLOADS.items():
        assert set(refs[name]["0"]) == set(workload.outputs)


# ------------------------------------------------------------------ #
# wrapping and restoring
# ------------------------------------------------------------------ #


def _bindings() -> dict[tuple, object]:
    """Every attribute a boundary could patch, by (owner, attr)."""
    import importlib

    from spans import class_tree

    out = {}
    for b in layers.BOUNDARIES:
        module = importlib.import_module(b.module)
        if "." in b.target:
            cls_name, attr = b.target.split(".")
            for cls in class_tree(getattr(module, cls_name)):
                if attr in cls.__dict__:
                    out[(cls, attr)] = cls.__dict__[attr]
        else:
            fn = getattr(module, b.target)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and mod is not None:
                    for attr, value in vars(mod).items():
                        if value is fn:
                            out[(mod, attr)] = value
    return out


def test_call_site_bindings_are_patched_and_restored():
    import repro.core.evaluator as evaluator_mod
    import repro.fleet.coordinator as coordinator_mod
    from repro.core.schemes import CloverScheme
    from repro.scenarios import Scenario, spec_from_toml

    before = _bindings()
    assert (evaluator_mod, "simulate_fifo") in before
    assert (coordinator_mod, "plan_origin_cells") in before
    assert (CloverScheme, "optimize") in before

    rec = SpanRecorder("t")
    patcher = layers.install(rec)
    try:
        assert evaluator_mod.simulate_fifo is not before[(evaluator_mod, "simulate_fifo")]
        assert CloverScheme.__dict__["optimize"] is not before[(CloverScheme, "optimize")]
        spec = spec_from_toml(
            (ROOT / WORKLOADS["gating_paper"].scenario).read_text()
        ).with_fidelity("smoke")
        coordinator = Scenario(spec).build()
        coordinator.run(duration_h=4.0)
        # The batched evaluator entry point is off the scenario path;
        # drive it directly so its wrapper is shown to record.
        scheme = coordinator.services[0].service.scheme
        scheme.evaluator.evaluate_batch([scheme.initial_config()])
    finally:
        patcher.restore()
    assert patcher.active == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[2] for s in rec.spans}
    assert "core.evaluator.evaluate_batch" in names
    assert "serving.des.simulate_fifo" in names
    assert "fleet.routing.plan_origin_cells" in names


def _launch(args: list[str], cwd: Path, timeout: float = 120.0):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={"PYTHONPATH": str(cwd / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def traced_spans(tmp_path_factory) -> dict[str, list[Span]]:
    """Each workload's spans from one traced worker run (the real path)."""
    out = {}
    tmp = tmp_path_factory.mktemp("spans")
    for name in WORKLOADS:
        path = tmp / f"{name}.jsonl"
        proc = _launch(
            [
                str(BENCH_DIR / "worker.py"),
                "--workload",
                name,
                "--seed",
                "0",
                "--launch",
                repr(time.monotonic()),
                "--spans",
                str(path),
            ],
            ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["patches_left"] == 0
        assert not mismatches(report["outputs"], load_references()[name]["0"], 1e-9)
        out[name] = load_spans(path)[1]
    return out


def test_every_boundary_records_a_call_on_some_workload(traced_spans):
    seen = set()
    for spans in traced_spans.values():
        seen |= {s.name for s in spans}
    expected = {b.span for b in layers.BOUNDARIES} - OFF_SCENARIO_PATH
    assert expected <= seen, expected - seen


def test_traced_self_times_account_for_the_run(traced_spans):
    for name, spans in traced_spans.items():
        root, stats = layers.run_layers(spans)
        total = sum(st.self_s for st in stats.values())
        assert total == pytest.approx(root.duration, rel=1e-9), name
        metrics = layers.span_metrics(spans)
        assert set(metrics) <= set(layers.METRIC_UNITS)


def test_bypass_workload_skips_the_cell_planner(traced_spans):
    metrics = layers.span_metrics(traced_spans["mixed_constant_paper"])
    assert metrics["fleet.routing.plan_origin_cells.calls"] == 0
    assert metrics["shifting.plan_epoch.calls"] == 0
    metrics = layers.span_metrics(traced_spans["shifting_default"])
    assert metrics["shifting.plan_epoch.calls"] > 0


# ------------------------------------------------------------------ #
# failure accounting
# ------------------------------------------------------------------ #


def _fake_checkout(tmp_path: Path, scenario_text: str) -> Path:
    root = tmp_path / "checkout"
    (root / "examples" / "scenarios").mkdir(parents=True)
    (root / "src").symlink_to(ROOT / "src")
    (root / WORKLOADS["mixed_constant_paper"].scenario).write_text(scenario_text)
    return root


def test_a_raising_run_counts_as_failed(tmp_path):
    root = _fake_checkout(tmp_path, "this is = not [valid toml\n")
    bench = run.Bench(root, "mixed_constant_paper", 0)
    assert bench.repetition() is None
    assert bench.attempted == 1
    assert len(bench.failures) == 1 and "exit" in bench.failures[0]


def test_a_mismatching_run_counts_as_failed(tmp_path):
    text = (ROOT / WORKLOADS["mixed_constant_paper"].scenario).read_text()
    shorter = text.replace("duration_h = 24.0", "duration_h = 2.0")
    assert shorter != text
    root = _fake_checkout(tmp_path, shorter)
    bench = run.Bench(root, "mixed_constant_paper", 0)
    assert bench.repetition() is None
    assert bench.attempted == 1
    assert "reference.json" in bench.failures[0]


def test_output_check_catches_nondeterminism():
    bench = run.Bench(ROOT, "mixed_constant_paper", 12345)  # no reference
    outputs = {"total_carbon_g": 1.0}
    assert bench.check({"outputs": outputs, "warm_outputs": outputs}) is None
    assert "first repetition" in bench.check({"outputs": {"total_carbon_g": 1.0 + 1e-15}})
    assert "warm run" in bench.check(
        {"outputs": outputs, "warm_outputs": {"total_carbon_g": 2.0}}
    )
    assert "not restored" in bench.check({"outputs": outputs, "patches_left": 1})


def test_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _launch(
        [
            str(tmp_path / BENCH_DIR.name / "run.py"),
            "--workload",
            "gating_paper",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
