"""End-to-end scenario benchmark with per-layer attribution.

Run from the root of a source checkout::

    python3 e2ebench/run.py --workload gating_paper --seed 0 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seconds 20   # every workload, both modes

Each repetition is a fresh ``python`` process (``worker.py``) running one
committed example scenario through the public front door
(``spec_from_toml`` -> ``Scenario(spec).build()`` -> ``.run()``), one at a
time.  Repetitions continue until ``--seconds`` is spent (at least
``MIN_REPS``).

``--trace 0`` reports the end-to-end metrics (median over repetitions):
``setup_s`` (process launch to coordinator built), ``run_s`` (first run
in the process), ``warm_run_s`` (an equal spec run again in the same
process) and ``peak_rss_mb``.  The three timings are wall-clock scaled to
host speed: each is multiplied by ``KERNEL_REF_S`` over the time a fixed
calibration kernel took right next to it in the same process, so a host
that runs everything slower for a minute does not read as a slower
program.  The unscaled wall-clock medians are printed alongside.

``--trace 1`` reports the per-layer metrics: ``python -X importtime``
probes, then untraced and traced repetitions alternately; the traced ones
wrap every layer boundary (``layers.py``) and write their spans to
``.bench_out/`` at exit.

Every repetition's outputs are checked: against ``reference.json`` (seed
0, <= 1e-9 relative), against the first repetition of the invocation (bit
for bit: traced equals untraced, warm equals cold) and warm against cold.
A repetition that raises, times out or mismatches counts as failed.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from spans import load_spans  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_RTOL,
    WORKLOADS,
    load_references,
    mismatches,
)

#: Fewest repetitions an end-to-end run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: A repetition still running after this long counts as failed.
REP_TIMEOUT_S = 100.0
#: ``python -X importtime`` probes per traced invocation.
IMPORT_PROBES = 3

#: Calibration-kernel seconds that timings are scaled to: the kernel's
#: typical time on the 2-vCPU Xeon VM the benchmark was defined on.  It
#: only sets the scale; comparisons are between runs on one host.
KERNEL_REF_S = 0.08

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "warm_run_s": "s",
    "peak_rss_mb": "MB",
}

OUT_DIR = ".bench_out"


class Bench:
    """One benchmark invocation for one workload, seed and mode."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = (
            src + os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH")
            else src
        )
        self.reference = load_references().get(workload, {}).get(str(seed))
        self.first_outputs: dict | None = None
        #: The first traced run's (root span, per-layer totals).
        self.layer_table = None
        self.attempted = 0
        self.failures: list[str] = []

    # -------------------------------------------------------------- #
    # repetitions
    # -------------------------------------------------------------- #

    def repetition(self, spans_path: Path | None = None) -> dict | None:
        """Run one worker process; the parsed report, or ``None`` on failure."""
        self.attempted += 1
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload",
            self.workload.name,
            "--seed",
            str(self.seed),
        ]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        launch = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--launch", repr(launch)],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=REP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"timed out after {REP_TIMEOUT_S:.0f} s")
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            return self._fail(f"exit {proc.returncode}: {tail}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return self._fail("printed no report")
        report = json.loads(lines[-1])
        problem = self.check(report)
        if problem:
            return self._fail(problem)
        return report

    def _fail(self, why: str) -> None:
        self.failures.append(f"repetition {self.attempted}: {why}")
        return None

    def check(self, report: dict) -> str | None:
        """Why ``report``'s outputs are wrong, or ``None`` when they are right."""
        outputs = report["outputs"]
        if "warm_outputs" in report:
            bad = mismatches(report["warm_outputs"], outputs)
            if bad:
                return f"warm run differs from cold run on {bad}"
        if report.get("patches_left"):
            return f"{report['patches_left']} patched attributes not restored"
        if self.reference is not None:
            bad = mismatches(outputs, self.reference, rtol=REFERENCE_RTOL)
            if bad:
                return f"differs from reference.json on {bad}"
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            bad = mismatches(outputs, self.first_outputs)
            if bad:
                return f"differs from the first repetition on {bad}"
        return None

    # -------------------------------------------------------------- #
    # modes
    # -------------------------------------------------------------- #

    def end_to_end(self, seconds: float) -> dict[str, list[float]]:
        start = time.monotonic()
        # Untimed: leaves bytecode caches written and module files in the
        # page cache, as every user run after the first finds them.
        self.import_probe()
        samples: dict[str, list[float]] = {
            k: [] for k in (*E2E_UNITS, "wall_setup_s", "wall_run_s", "wall_warm_run_s")
        }
        durations: list[float] = []
        while len(durations) < MIN_REPS or (
            time.monotonic() - start + statistics.median(durations) <= seconds
        ):
            t = time.monotonic()
            report = self.repetition()
            durations.append(time.monotonic() - t)
            if report is not None:
                for k, v in host_scaled(report).items():
                    samples[k].append(v)
                for k in ("setup_s", "run_s", "warm_run_s"):
                    samples[f"wall_{k}"].append(report[k])
        return samples

    def per_layer(self, seconds: float) -> dict[str, float]:
        start = time.monotonic()
        imports = [self.import_probe() for _ in range(IMPORT_PROBES)]
        out_dir = self.root / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        untraced: list[float] = []
        traced: list[dict[str, float]] = []
        durations: list[float] = []
        while len(durations) < 2 or (
            time.monotonic() - start + statistics.median(durations) <= seconds
        ):
            t = time.monotonic()
            if len(durations) % 2 == 0:
                report = self.repetition()
                if report is not None:
                    untraced.append(report["run_s"])
            else:
                path = out_dir / f"spans-{self.workload.name}-seed{self.seed}-{len(traced)}.jsonl"
                report = self.repetition(spans_path=path)
                if report is not None:
                    traced.append(self.traced_metrics(report, path))
            durations.append(time.monotonic() - t)
        if not (untraced and traced):
            return {}
        # Work counts are deterministic: every traced run must agree.
        counts = {
            k: v for k, v in traced[0].items() if layers.METRIC_UNITS[k] == "count"
        }
        for m in traced[1:]:
            drift = [k for k in counts if m[k] != counts[k]]
            if drift:
                self.failures.append(f"traced work counts differ between runs: {drift}")
        metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        metrics.update(counts)
        metrics["startup.import_s"] = statistics.median(i[0] for i in imports)
        metrics["startup.scipy_import_s"] = statistics.median(i[1] for i in imports)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(untraced)
        return metrics

    def traced_metrics(self, report: dict, path: Path) -> dict[str, float]:
        _, spans = load_spans(path)
        if self.layer_table is None:
            self.layer_table = layers.run_layers(spans)
        metrics = layers.span_metrics(spans)
        metrics.update(layers.counter_metrics(report["counters"]))
        return metrics

    def import_probe(self) -> tuple[float, float]:
        """``(import repro, scipy share)`` seconds from ``-X importtime``."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
            check=True,
        )
        return parse_importtime(proc.stderr)


def host_scaled(report: dict) -> dict[str, float]:
    """A repetition's end-to-end metrics, timings scaled to host speed.

    Set-up is scaled by the kernel timed right after it, each run by the
    mean of the kernels timed just before and just after it.
    """
    after_setup, after_run, after_warm = report["kernel_s"]
    return {
        "setup_s": report["setup_s"] * KERNEL_REF_S / after_setup,
        "run_s": report["run_s"] * KERNEL_REF_S / ((after_setup + after_run) / 2),
        "warm_run_s": report["warm_run_s"]
        * KERNEL_REF_S
        / ((after_run + after_warm) / 2),
        "peak_rss_mb": report["peak_rss_mb"],
    }


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Cumulative seconds of ``repro`` and of scipy within it.

    The scipy figure sums the cumulative time of every ``scipy*`` entry
    not nested inside another ``scipy*`` entry.  ``-X importtime`` prints
    children before their parent, one extra indent per level.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    repro_s = next(cum for _, name, cum in entries if name == "repro")
    scipy_s = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cum in reversed(entries):  # parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name.split(".")[0] == "scipy" and not any(
            a.split(".")[0] == "scipy" for _, a in ancestors
        ):
            scipy_s += cum
        ancestors.append((depth, name))
    return repro_s, scipy_s


# ------------------------------------------------------------------ #
# reporting
# ------------------------------------------------------------------ #


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (
        f"q1={q1:.4g} q3={q3:.4g} iqr/median={(q3 - q1) / med:.3%} n={len(values)}"
    )


def print_layer_table(root, stats) -> None:
    """Where the traced run's time went: self time per span name."""
    print(f"# self time by layer, traced run_s = {root.duration:.4f} s")
    total = 0.0
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        total += st.self_s
        share = st.self_s / root.duration
        print(f"#   {name:40s} {st.calls:8d} calls {st.self_s:9.4f} s {share:7.2%}")
    print(f"#   {'sum':40s} {'':14s} {total:9.4f} s {total / root.duration:7.2%}")


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int):
    bench = Bench(root, workload, seed)
    print(f"# {workload} seed={seed} trace={trace}")
    if trace:
        values = bench.per_layer(seconds)
        metrics = {
            k: {"value": values[k], "unit": u}
            for k, u in layers.METRIC_UNITS.items()
            if k in values
        }
        for k, m in metrics.items():
            print(f"{k:48s} {m['value']:.6g} {m['unit']}")
        if bench.layer_table is not None:
            print_layer_table(*bench.layer_table)
        missing = [k for k in layers.METRIC_UNITS if k not in values]
    else:
        samples = bench.end_to_end(seconds)
        metrics = {
            k: {"value": statistics.median(samples[k]), "unit": u}
            for k, u in E2E_UNITS.items()
            if samples[k]
        }
        for k, v in samples.items():
            if v:
                unit = E2E_UNITS.get(k, "s")
                print(f"{k:16s} {statistics.median(v):.6g} {unit:3s} {spread(v)}")
                print(f"#   samples: {' '.join(f'{x:.4f}' for x in v)}")
        missing = [k for k in E2E_UNITS if k not in metrics]
    failed = len(bench.failures)
    print(f"runs_attempted {bench.attempted}")
    print(f"runs_failed {failed}")
    for f in bench.failures:
        print(f"FAILED {f}")
    if missing:
        print(f"no value for {missing}", file=sys.stderr)
    return bench.attempted, failed, metrics, not missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    needed = [root / "src" / "repro" / "__init__.py"] + [
        root / WORKLOADS[n].scenario for n in names
    ]
    absent = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if absent:
        print(f"not a source checkout: missing {absent}", file=sys.stderr)
        return 2

    modes = (0, 1) if args.workload == "all" else (args.trace,)
    attempted = failed = 0
    complete = True
    metrics: dict[str, dict] = {}
    for name in names:
        for trace in modes:
            a, f, m, ok = run_one(root, name, args.seed, args.seconds, trace)
            attempted += a
            failed += f
            complete &= ok
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    if not metrics:
        print("every repetition failed", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": failed == 0 and complete,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
