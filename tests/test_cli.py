"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

#: A small two-region fleet; tests append keys to its ``[routing]`` table
#: or add sections after it.
SCENARIO_TOML = """\
name = "cli-test"
scheme = "base"
fidelity = "smoke"
n_gpus = 2
duration_h = 2.0

[[regions]]
name = "us-ciso"

[[regions]]
name = "nordic-hydro"
scheme = "co2opt"

[routing]
router = "carbon-greedy"
"""


def write_scenario(tmp_path, text=SCENARIO_TOML, name="scn.toml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig6"])
        assert args.command == "run"
        # None = "default" for experiments, the file's own fidelity for
        # scenario paths (the CLI flag only overrides when given).
        assert args.fidelity is None
        assert args.seed is None
        assert args.experiments == ["fig6"]

    def test_bad_fidelity_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6", "--fidelity", "warp"])


class TestListCommand:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig9" in out and "table1" in out and "savings" in out


class TestRunCommand:
    def test_runs_cheap_experiment(self, capsys):
        assert main(["run", "fig6", "--fidelity", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "4.4" in out  # the worked example's objective

    def test_unknown_experiment_fails_with_listing(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "valid" in err

    def test_multiple_experiments(self, capsys):
        assert main(["run", "table1", "fig3", "--fidelity", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig3" in out


class TestExportCommand:
    def test_export_csv(self, tmp_path, capsys):
        assert main(
            ["export", "table1", "--out", str(tmp_path), "--format", "csv"]
        ) == 0
        text = (tmp_path / "table1.csv").read_text()
        assert text.startswith("Application")

    def test_export_json(self, tmp_path):
        assert main(
            ["export", "fig6", "--out", str(tmp_path), "--format", "json"]
        ) == 0
        records = json.loads((tmp_path / "fig6.json").read_text())
        assert records[0]["Config"] == "A"

    def test_export_unknown_experiment(self, tmp_path, capsys):
        assert main(["export", "nope", "--out", str(tmp_path)]) == 2


class TestDemoCommand:
    def test_demo_runs_and_summarizes(self, capsys):
        assert main(["demo", "--hours", "2", "--scheme", "co2opt"]) == 0
        out = capsys.readouterr().out
        assert "scheme=co2opt" in out
        assert "carbon:" in out
        assert "p95 latency:" in out


class TestFleetCommand:
    """Fleet runs go through scenario files; ``fleet`` is not a command."""

    def test_retired_fleet_subcommand_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet"])
        assert exc.value.code == 2
        assert "invalid choice: 'fleet'" in capsys.readouterr().err

    def test_bad_router_rejected(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, SCENARIO_TOML.replace("carbon-greedy", "carrier-pigeon")
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "carrier-pigeon" in err and "valid" in err

    def test_fleet_runs_and_reports(self, tmp_path, capsys):
        assert main(["run", write_scenario(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario: cli-test" in out
        assert "us-ciso" in out and "nordic-hydro" in out
        assert "SLA attainment" in out
        assert "evaluator cache" in out

    def test_unknown_region_fails_with_listing(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, SCENARIO_TOML.replace("us-ciso", "atlantis")
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "atlantis" in err and "valid" in err

    def test_fleet_listed_as_experiment(self, capsys):
        assert main(["list"]) == 0
        assert "fleet" in capsys.readouterr().out.split()


class TestDemandFlags:
    """Demand scenarios on the CLI (the ``[demand]`` section)."""

    DEMAND_TOML = """\
n_gpus = 2
duration_h = 3.0
fidelity = "smoke"

[[regions]]
name = "us-ciso"

[[regions]]
name = "uk-eso"

[[regions]]
name = "apac-solar"

[routing]
router = "forecast-aware"
lookahead_h = 4.0

[demand]
kind = "diurnal"
ramp_share_per_h = 0.1
drain_share_per_h = 0.2
"""

    def test_bad_demand_kind_rejected(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, self.DEMAND_TOML.replace('"diurnal"', '"chaotic"')
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "chaotic" in err and "valid" in err

    def test_demand_fleet_prints_origin_table(self, tmp_path, capsys):
        assert main(["run", write_scenario(tmp_path, self.DEMAND_TOML)]) == 0
        out = capsys.readouterr().out
        assert "demand origins" in out
        assert "asia-pacific" in out
        assert "user SLA" in out

    def test_demand_listed_as_experiment(self, capsys):
        assert main(["list"]) == 0
        assert "demand" in capsys.readouterr().out.split()


class TestScenarioRun:
    """`repro run <scenario.toml>`: the declarative front door."""

    def test_runs_scenario_file(self, tmp_path, capsys):
        assert main(["run", write_scenario(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario: cli-test" in out
        assert "us-ciso" in out and "nordic-hydro" in out
        # The per-region scheme mix is surfaced.
        assert "nordic-hydro=co2opt" in out

    def test_repeat_runs_print_identical_tables(self, tmp_path, capsys):
        """Satellite bugfix: one --seed threads through scenario
        construction, so reruns of the same spec are reproducible end to
        end — byte-identical reports."""
        path = write_scenario(tmp_path)
        assert main(["run", path, "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["run", path, "--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "seed 3" in first

    def test_cli_fidelity_and_seed_override_the_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["run", path, "--fidelity", "smoke", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "(smoke, seed 9)" in out

    def test_unknown_key_fails_actionably(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, SCENARIO_TOML + "\nbananas = 3\n", "bad.toml"
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "bananas" in err and "valid" in err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.toml")]) == 2
        assert "no such scenario file" in capsys.readouterr().err

    def test_experiments_and_scenarios_mix_in_one_invocation(
        self, tmp_path, capsys
    ):
        assert main(["run", "fig6", write_scenario(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "scenario: cli-test" in out


class TestSweepCommand:

    def test_axis_flag_sweeps(self, tmp_path, capsys):
        assert main(
            [
                "sweep", write_scenario(tmp_path),
                "--axis", "routing.router=static,carbon-greedy",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 scenarios" in out
        assert "static" in out and "carbon-greedy" in out

    def test_file_sweep_section_with_workers(self, tmp_path, capsys):
        extra = (
            "\n[sweep]\nworkers = 2\n[sweep.axes]\nseed = [0, 1]\n"
        )
        path = write_scenario(tmp_path, SCENARIO_TOML + extra)
        assert main(["sweep", path]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 scenarios" in out
        assert "2 workers" in out

    def test_no_axes_fails_actionably(self, tmp_path, capsys):
        assert main(["sweep", write_scenario(tmp_path)]) == 2
        assert "nothing to sweep" in capsys.readouterr().err

    def test_bad_axis_fails(self, tmp_path, capsys):
        assert main(
            ["sweep", write_scenario(tmp_path), "--axis", "seed"]
        ) == 2
        assert "PATH=V1,V2" in capsys.readouterr().err


class TestBatchFlags:
    """Batch scenarios on the CLI (the ``[batch]`` section)."""

    BATCH_TOML = SCENARIO_TOML + """
[batch]
jobs_per_h = 60.0
requests_per_job = 30.0
"""

    def test_bad_arrival_profile_rejected(self, tmp_path, capsys):
        text = self.BATCH_TOML + 'arrival = "bursty"\n'
        path = write_scenario(tmp_path, text)
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "bursty" in err and "valid" in err

    def test_fleet_prints_batch_tables(self, tmp_path, capsys):
        assert main(["run", write_scenario(tmp_path, self.BATCH_TOML)]) == 0
        out = capsys.readouterr().out
        assert "batch workload" in out
        assert "batch deadlines:" in out
        assert "batch shift:" in out

    def test_zero_batch_output_has_no_batch_lines(self, tmp_path, capsys):
        assert main(["run", write_scenario(tmp_path)]) == 0
        out = capsys.readouterr().out
        # The evaluator cache's "Batch%" column is unrelated; none of the
        # batch-workload lines may appear.
        assert "batch workload" not in out
        assert "batch deadlines:" not in out
        assert "batch shift:" not in out


class TestLookaheadValidation:
    """Regression: a negative lookahead dies at the boundary with a clear
    message, not deep inside a router."""

    def test_negative_lookahead_exits_with_clear_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SCENARIO_TOML + "lookahead_h = -1.0\n")
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "lookahead must be non-negative" in err
        assert "-1" in err

    def test_negative_lookahead_rejected_in_scenario_files(self, tmp_path):
        from repro.scenarios import load_scenario_file

        path = tmp_path / "bad.toml"
        path.write_text(
            'n_gpus = 2\n[[regions]]\nname = "us-ciso"\n'
            "[routing]\nlookahead_h = -2.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="lookahead must be non-negative"):
            load_scenario_file(path)


class TestBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.fidelity == "default"
        assert args.out is None and args.check is None

    def test_runs_and_checks_committed_baseline(self, capsys, tmp_path):
        """The ``--out``/``--check`` wiring against the committed
        baseline's scenarios and fidelity, with its numbers lowered to a
        floor any host clears: no wall-clock is asserted here (the CI
        perf job owns that)."""
        from repro.perf import baseline_path, load_baseline

        floor = load_baseline(baseline_path())
        for scenario in floor["scenarios"].values():
            scenario.update(ops_per_s=1e-9, speedup_vs_scalar=0.0)
        floor_path = tmp_path / "floor.json"
        floor_path.write_text(json.dumps(floor))
        out = tmp_path / "baseline.json"
        assert main([
            "bench", "--fidelity", "smoke",
            "--out", str(out),
            "--check", str(floor_path),
        ]) == 0
        printed = capsys.readouterr().out
        assert "batch_eval_1k" in printed
        assert "no regression" in printed
        written = json.loads(out.read_text())
        assert written["schema"] == 1
        assert set(written["scenarios"]) == {
            "batch_eval_1k", "sa_epoch", "routing_epoch", "shifting_epoch"
        }

    def test_check_fails_on_regression(self, capsys, tmp_path):
        # A fabricated baseline nothing real can match.
        impossible = tmp_path / "impossible.json"
        impossible.write_text(json.dumps({
            "schema": 1,
            "fidelity": "smoke",
            "calibration_ops_per_s": 1.0,
            "scenarios": {
                "batch_eval_1k": {
                    "ops_per_s": 1e15, "speedup_vs_scalar": 1e6,
                    "items": 1000, "seconds": 1.0, "scalar_seconds": 1.0,
                },
            },
        }))
        assert main([
            "bench", "--fidelity", "smoke", "--check", str(impossible)
        ]) == 1
        assert "regressions" in capsys.readouterr().out

    def test_missing_baseline_one_line_error(self, capsys):
        assert main(["bench", "--check", "/nope/missing.json"]) == 2
        err = capsys.readouterr().err
        assert "no such perf baseline" in err
        assert "Traceback" not in err

    def test_invalid_baseline_one_line_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 7}')
        assert main(["bench", "--check", str(bad)]) == 2
        assert "invalid perf baseline" in capsys.readouterr().err
