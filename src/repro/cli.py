"""Command-line interface: ``clover-repro`` / ``python -m repro``.

Subcommands
-----------
``list``
    Show the available experiments (tables/figures of the paper).
``run``
    Run experiments **or scenario files** and print their ASCII tables.
    An argument naming a registry experiment (``fig9``, ``fleet``, ...)
    runs that experiment; an argument ending in ``.toml``/``.json`` is
    loaded as a declarative :class:`~repro.scenarios.spec.ScenarioSpec`
    (see ``examples/scenarios/``) and executed — ``--fidelity`` and
    ``--seed`` override the file's values when given, so one checked-in
    scenario serves smoke CI and full-fidelity studies alike.
``sweep``
    Grid-expand a scenario file over ``--axis`` fields (or its ``[sweep]``
    section) and run the grid, optionally on a process pool
    (``--workers``), printing one comparison row per scenario.
``export``
    Run experiments and write their tables to CSV/JSON files.
``report``
    Run every experiment and write one Markdown reproduction report.
``demo``
    A short end-to-end Clover run with a summary report.
``bench``
    Run the pinned perf scenarios and check them against a baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.analysis.experiments import EXPERIMENT_REGISTRY
from repro.analysis.runner import ExperimentRunner
from repro.analysis.reporting import render

__all__ = ["main", "build_parser"]

#: Suffixes `run`/`sweep` treat as scenario files rather than experiments.
SCENARIO_SUFFIXES = (".toml", ".json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clover-repro",
        description=(
            "Reproduction of Clover (SC '23): carbon-aware ML inference "
            "serving with mixed-quality models and MIG GPU partitioning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser(
        "run", help="run experiments or scenario files and print tables"
    )
    run.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT|SCENARIO.toml",
        help=(
            f"one of: {', '.join(sorted(EXPERIMENT_REGISTRY))}, 'all', or "
            "a path to a .toml/.json scenario file"
        ),
    )
    run.add_argument(
        "--fidelity",
        default=None,
        choices=("smoke", "default", "paper"),
        help=(
            "simulation fidelity (default: 'default' for experiments; a "
            "scenario file's own fidelity unless overridden here)"
        ),
    )
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "root RNG seed (default: 0 for experiments; a scenario "
            "file's own seed unless overridden here)"
        ),
    )

    swp = sub.add_parser(
        "sweep", help="grid-expand a scenario file and run the grid"
    )
    swp.add_argument("scenario", metavar="SCENARIO.toml")
    swp.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="PATH=V1,V2",
        help=(
            "sweep axis: a dotted spec path and comma-separated values "
            "(e.g. --axis routing.router=static,carbon-greedy --axis "
            "seed=0,1); merges with (and wins over) the file's "
            "[sweep.axes] section"
        ),
    )
    swp.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process-pool width for parallel scenario execution "
            "(default: the file's [sweep] workers, else serial)"
        ),
    )
    swp.add_argument(
        "--fidelity", default=None, choices=("smoke", "default", "paper")
    )
    swp.add_argument("--seed", type=int, default=None)

    export = sub.add_parser(
        "export", help="run experiments and write CSV/JSON tables"
    )
    export.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    export.add_argument("--out", default=".", help="output directory")
    export.add_argument(
        "--format", default="csv", choices=("csv", "json"), dest="fmt"
    )
    export.add_argument(
        "--fidelity", default="default", choices=("smoke", "default", "paper")
    )
    export.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report", help="write a full Markdown reproduction report"
    )
    report.add_argument("--out", default="REPORT.md")
    report.add_argument(
        "--fidelity", default="default", choices=("smoke", "default", "paper")
    )
    report.add_argument("--seed", type=int, default=0)

    demo = sub.add_parser("demo", help="short end-to-end Clover run")
    demo.add_argument("--application", default="classification")
    demo.add_argument("--scheme", default="clover")
    demo.add_argument("--hours", type=float, default=12.0)
    demo.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench", help="run the pinned perf scenarios / check the baseline"
    )
    bench.add_argument(
        "--fidelity", default="default", choices=("smoke", "default")
    )
    bench.add_argument(
        "--out",
        default=None,
        help="write the suite result as a baseline JSON (BENCH_perf_core "
        "schema) to this path",
    )
    bench.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a committed baseline JSON and exit 1 on any "
        "regression beyond --tolerance",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional ops/s or speedup drop for --check "
        "(default: 0.30)",
    )
    return parser


def _cmd_list() -> int:
    for name in sorted(EXPERIMENT_REGISTRY):
        print(name)
    return 0


def _is_scenario_path(name: str) -> bool:
    return name.lower().endswith(SCENARIO_SUFFIXES)


def _print_fleet_result(report, title: str) -> None:
    """The fleet report block ``run <scenario>`` prints."""
    from repro.analysis.reporting import format_table

    headers, rows = report.table()
    print(format_table(headers, rows, title=title))
    print()
    if any(r.devices is not None for r in report.regions):
        mixes = ", ".join(
            f"{r.name}={r.device_pool().describe()}" for r in report.regions
        )
        print(f"  devices:         {mixes}")
    if len(set(report.scheme_by_region.values())) > 1:
        schemes = ", ".join(
            f"{region}={scheme}"
            for region, scheme in report.scheme_by_region.items()
        )
        print(f"  schemes:         {schemes}")
    print(f"  duration:        {report.duration_h:.1f} h")
    print(f"  global rate:     {report.global_rate_per_s:.1f} req/s")
    print(f"  requests served: {report.total_requests:,.0f}")
    print(f"  energy:          {report.total_energy_j / 3.6e6:.2f} kWh")
    print(f"  carbon:          {report.total_carbon_g:,.0f} gCO2")
    print(f"  accuracy loss:   {report.accuracy_loss_pct:.2f}%")
    print(f"  SLA attainment:  {100 * report.sla_attainment:.1f}% (incl. network)")
    cache = report.cache_stats
    print(
        f"  evaluator cache: {cache.hits:,} hits / {cache.misses:,} misses "
        f"({100 * cache.hit_rate:.1f}% hit rate, "
        f"{cache.batched:,} batch-evaluated)"
    )
    if report.has_gating:
        print(
            f"  gating:          {report.gating_name} "
            f"({100 * report.mean_awake_fraction:.1f}% of GPUs awake on average)"
        )
    if report.has_demand:
        print(
            f"  user SLA:        {100 * report.user_sla_attainment:.1f}% "
            "(charged per origin-region pair)"
        )
        print(f"  mean net hop:    {report.mean_net_latency_ms:.1f} ms")
        print()
        headers, rows = report.origin_table()
        print(format_table(headers, rows, title="-- demand origins --"))
    if report.has_batch:
        attainment = report.batch_deadline_attainment
        shift = report.mean_shift_h
        print(
            f"  batch deadlines: "
            + (f"{100 * attainment:.1f}% on time"
               if attainment == attainment else "-")
            + f" ({report.batch_completed_requests:,.0f} served, "
            f"{report.batch_pending_requests:,.0f} queued)"
        )
        print(
            "  batch shift:     "
            + (f"{shift:.2f} h mean" if shift == shift else "-")
        )
        print()
        headers, rows = report.batch_table()
        print(format_table(headers, rows, title="-- batch workload --"))


def _load_spec_for_cli(path: str, fidelity: str | None, seed: int | None):
    """Load a scenario file and thread the CLI overrides into the spec.

    One ``--seed`` flows into the spec itself (region ``i`` derives
    ``seed + i`` from it), so repeated invocations of the same file with
    the same flags are bit-for-bit reproducible end to end.
    """
    from repro.scenarios import load_scenario_file

    spec, sweep_cfg = load_scenario_file(path)
    if fidelity is not None:
        spec = spec.with_fidelity(fidelity)
    if seed is not None:
        spec = spec.with_seed(seed)
    return spec, sweep_cfg


def _run_scenario_file(path: str, fidelity: str | None, seed: int | None) -> int:
    from repro.scenarios import Scenario

    try:
        spec, _ = _load_spec_for_cli(path, fidelity, seed)
        report = Scenario(spec).run()
    except FileNotFoundError:
        print(f"no such scenario file: {path}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"{path}: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    # Deliberately no wall-time in the title: two runs of one spec must
    # print byte-identical reports (the reproducibility contract; specs
    # opting into parallel_regions may see cache *diagnostics* attribute
    # warm-up work differently — simulation numbers never move).
    _print_fleet_result(
        report,
        title=(
            f"== scenario: {spec.label} ({spec.fidelity}, seed {spec.seed}) =="
        ),
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(args.experiments)
    if names == ["all"]:
        names = sorted(EXPERIMENT_REGISTRY)
    scenario_paths = [n for n in names if _is_scenario_path(n)]
    experiment_names = [n for n in names if not _is_scenario_path(n)]
    unknown = [n for n in experiment_names if n not in EXPERIMENT_REGISTRY]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(EXPERIMENT_REGISTRY))}, "
            "or a .toml/.json scenario file path",
            file=sys.stderr,
        )
        return 2
    fidelity = args.fidelity or "default"
    seed = args.seed if args.seed is not None else 0
    runner = ExperimentRunner()
    for name in experiment_names:
        t0 = time.perf_counter()
        result = EXPERIMENT_REGISTRY[name](runner, fidelity, seed)
        dt = time.perf_counter() - t0
        print(render(result, title=f"== {name} ({fidelity}, {dt:.1f}s) =="))
        print()
    for path in scenario_paths:
        code = _run_scenario_file(path, args.fidelity, args.seed)
        if code != 0:
            return code
        print()
    return 0


def _parse_axis_value(token: str):
    """One sweep-axis value: int, float, bool or bare string."""
    lowered = token.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token.strip()


def _parse_axes(tokens: list[str]) -> dict[str, list]:
    axes: dict[str, list] = {}
    for token in tokens:
        path, sep, values = token.partition("=")
        if not sep or not path.strip() or not values.strip():
            raise ValueError(
                f"bad --axis {token!r} (want PATH=V1,V2,...)"
            )
        axes[path.strip()] = [
            _parse_axis_value(v) for v in values.split(",") if v.strip()
        ]
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.scenarios import expand, run_sweep

    try:
        spec, sweep_cfg = _load_spec_for_cli(
            args.scenario, args.fidelity, args.seed
        )
        axes = dict(sweep_cfg.axes) if sweep_cfg is not None else {}
        axes.update(_parse_axes(args.axis))
        if not axes:
            raise ValueError(
                "nothing to sweep: give --axis PATH=V1,V2 or add a "
                "[sweep.axes] section to the scenario file"
            )
        workers = args.workers
        if workers is None and sweep_cfg is not None:
            workers = sweep_cfg.workers
        grid = expand(spec, axes)
        t0 = time.perf_counter()
        results = run_sweep(grid, workers=workers)
        dt = time.perf_counter() - t0
    except FileNotFoundError:
        print(f"no such scenario file: {args.scenario}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(
            f"{args.scenario}: {exc.args[0] if exc.args else exc}",
            file=sys.stderr,
        )
        return 2
    paths = list(axes)
    headers = (*paths, "Carbon(g)", "Energy(kWh)", "AccLoss%", "SLA%")
    rows = []
    for swept, result in zip(grid, results):
        cells = [str(swept.get(path)) for path in paths]
        sla = (
            result.user_sla_attainment
            if result.has_demand
            else result.sla_attainment
        )
        rows.append(
            (
                *cells,
                f"{result.total_carbon_g:,.0f}",
                f"{result.total_energy_j / 3.6e6:.2f}",
                f"{result.accuracy_loss_pct:.2f}",
                f"{100 * sla:.1f}",
            )
        )
    mode = f"{workers} workers" if workers and workers > 1 else "serial"
    print(
        format_table(
            headers,
            rows,
            title=(
                f"== sweep: {len(grid)} scenarios over "
                f"{', '.join(paths)} ({spec.fidelity}, {mode}, {dt:.1f}s) =="
            ),
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.export import table_to_csv, table_to_json

    names = list(args.experiments)
    if names == ["all"]:
        names = sorted(EXPERIMENT_REGISTRY)
    unknown = [n for n in names if n not in EXPERIMENT_REGISTRY]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(EXPERIMENT_REGISTRY))}",
            file=sys.stderr,
        )
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = ExperimentRunner()
    writer = table_to_csv if args.fmt == "csv" else table_to_json
    for name in names:
        result = EXPERIMENT_REGISTRY[name](runner, args.fidelity, args.seed)
        path = out_dir / f"{name}.{args.fmt}"
        writer(result, path)
        print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    generate_report(fidelity=args.fidelity, seed=args.seed, out_path=args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.service import CarbonAwareInferenceService

    service = CarbonAwareInferenceService.create(
        application=args.application,
        scheme=args.scheme,
        fidelity="smoke",
        seed=args.seed,
    )
    report = service.run(duration_h=args.hours)
    print(f"scheme={report.scheme_name} application={report.application}")
    print(f"  duration:          {report.duration_h:.1f} h")
    print(f"  requests served:   {report.total_requests:,.0f}")
    print(f"  energy:            {report.total_energy_j / 3.6e6:.2f} kWh")
    print(f"  carbon:            {report.total_carbon_g:,.0f} gCO2")
    print(f"  mean accuracy:     {report.mean_accuracy:.2f} "
          f"(loss {report.accuracy_loss_pct:.2f}%)")
    print(f"  p95 latency:       {report.p95_ms:.1f} ms "
          f"(SLA {report.sla_target_ms:.1f} ms)")
    print(f"  optimization time: {100 * report.optimization_fraction:.2f}% "
          f"({len(report.invocations)} invocations, "
          f"{report.total_evaluations} evaluations)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        DEFAULT_TOLERANCE,
        check_regressions,
        load_baseline,
        run_suite,
        write_baseline,
    )

    baseline = None
    if args.check:
        try:
            baseline = load_baseline(args.check)
        except OSError:
            print(f"no such perf baseline: {args.check}", file=sys.stderr)
            return 2
        except (ValueError, json.JSONDecodeError) as exc:
            print(
                f"invalid perf baseline {args.check}: {exc}", file=sys.stderr
            )
            return 2
    suite = run_suite(args.fidelity)
    print(f"perf suite ({suite.fidelity} fidelity, calibration "
          f"{suite.calibration_ops_per_s:,.1f} kernel-ops/s)")
    header = f"  {'scenario':<16} {'ops/s':>12} {'vs scalar':>10}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for s in suite.scenarios:
        print(f"  {s.name:<16} {s.ops_per_s:>12,.1f} "
              f"{s.speedup_vs_scalar:>9.2f}x")
    if args.out:
        path = write_baseline(suite, args.out)
        print(f"wrote baseline to {path}")
    if baseline is not None:
        tolerance = (
            DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
        )
        failures = check_regressions(suite, baseline, tolerance)
        if failures:
            print(f"perf regressions vs {args.check}:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"no regression vs {args.check} "
              f"(tolerance {100 * tolerance:.0f}%)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
