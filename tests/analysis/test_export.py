"""CSV/JSON export of experiment results and runs."""

import csv
import io
import json

import pytest

from repro.analysis.experiments import fig6_selection_example, table1
from repro.analysis.export import (
    run_result_to_dict,
    table_to_csv,
    table_to_json,
    write_json,
)
from repro.analysis.runner import ExperimentRunner
from repro.scenarios import RegionSpec, RoutingSpec, ScenarioSpec


@pytest.fixture(scope="module")
def run_result():
    """One paper-figure run: the region of an N=1 scenario."""
    spec = ScenarioSpec(
        regions=(RegionSpec(name="us-ciso"),),
        application="classification", scheme="clover", fidelity="smoke",
        seed=0, n_gpus=2, duration_h=6.0, net_latency_ms=0.0,
        routing=RoutingSpec(router="static"),
    )
    return ExperimentRunner().run_scenario(spec).results[0]


class TestTableExport:
    def test_csv_round_trips(self):
        text = table_to_csv(table1())
        rows = list(csv.reader(io.StringIO(text)))
        headers, data = rows[0], rows[1:]
        assert headers[0] == "Application"
        assert len(data) == 11

    def test_csv_writes_file(self, tmp_path):
        path = tmp_path / "t1.csv"
        table_to_csv(table1(), path)
        assert path.read_text().startswith("Application")

    def test_json_records(self):
        records = json.loads(table_to_json(fig6_selection_example()))
        assert len(records) == 4
        assert records[0]["Config"] == "A"
        assert {"ci", "Objective"} <= set(records[0])

    def test_json_writes_file(self, tmp_path):
        path = tmp_path / "fig6.json"
        table_to_json(fig6_selection_example(), path)
        assert json.loads(path.read_text())


class TestRunResultExport:
    def test_summary_fields(self, run_result):
        d = run_result_to_dict(run_result, include_epochs=False)
        assert d["scheme"] == "clover"
        assert d["totals"]["requests"] > 0
        assert "epochs" not in d

    def test_epoch_records(self, run_result):
        d = run_result_to_dict(run_result)
        assert len(d["epochs"]) == len(run_result.epochs)
        epoch = d["epochs"][0]
        assert {"t_h", "ci", "carbon_g", "p95_ms", "f", "config"} <= set(epoch)

    def test_json_serializable_end_to_end(self, run_result, tmp_path):
        d = run_result_to_dict(run_result)
        path = tmp_path / "run.json"
        write_json(d, path)
        loaded = json.loads(path.read_text())
        assert loaded["totals"]["carbon_g"] == pytest.approx(
            run_result.total_carbon_g
        )

    def test_infinite_latency_becomes_null(self):
        """Overloaded configs report infinite p95; JSON gets null."""
        from repro.core.service import Baseline, CarbonAwareInferenceService
        from repro.serving.sla import SlaPolicy

        baseline = Baseline(
            a_base=84.3, e_base_j_per_request=10.0,
            c_base_g_per_request=0.002, sla=SlaPolicy(p95_target_ms=40.0),
            ci_base=200.0,
        )
        service = CarbonAwareInferenceService.create(
            application="classification", scheme="base", n_gpus=1,
            rate_per_s=1000.0,  # far beyond one GPU's capacity
            baseline=baseline, fidelity="smoke", seed=0,
        )
        result = service.run(duration_h=2.0)
        d = run_result_to_dict(result)
        assert d["totals"]["p95_ms"] is None
        assert json.dumps(d)  # must not raise
