"""Golden tests: pinned outputs and pinned specs of the scenario layer.

Two layers of protection against drift:

* **Example-scenario goldens** — every checked-in
  ``examples/scenarios/*.toml`` runs at smoke fidelity and must reproduce
  its recorded headline metrics to 1e-9 relative.  A new scenario file
  needs a recorded golden before it can land; a golden whose file is gone
  fails too.
* **Spec mapping** — the experiment entries must run exactly the
  literal ``ScenarioSpec`` values below (the paper figures' N=1 specs
  are recorded as they run; the ladders are read through
  ``Ladder.specs``, with no run), so a registry entry can never silently
  change what it runs.
"""

from pathlib import Path

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.scenarios import (
    BatchSpec,
    DemandSpec,
    GatingSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
    load_scenario_file,
)

EXAMPLE_SCENARIOS = (
    Path(__file__).resolve().parents[2] / "examples" / "scenarios"
)

#: Smoke-fidelity results of each example scenario file, keyed by stem.
#: Regenerate only for an intentional physics change, and say why in the
#: change log.
EXAMPLE_GOLDENS = {
    "diurnal_gating": {
        "total_requests": 15283542.857142853,
        "total_energy_j": 36980412.98527627,
        "total_carbon_g": 3860.2419911824973,
        "accuracy_loss_pct": 3.7959047973736717,
        "sla_attainment": 1.000000000000002,
        "user_sla_attainment": 1.0,
        "mean_awake_fraction": 0.8506944444444444,
    },
    "hetero_fleet": {
        "total_requests": 10698480.000000004,
        "total_energy_j": 29437286.874382894,
        "total_carbon_g": 2767.407036306623,
        "accuracy_loss_pct": 4.037760500363179,
        "sla_attainment": 0.999999999999999,
        "user_sla_attainment": 1.0,
        "mean_awake_fraction": 0.8611111111111112,
    },
    "load_shifting": {
        "total_requests": 12104741.583542574,
        "total_energy_j": 28699481.026067585,
        "total_carbon_g": 1444.3459528426429,
        "accuracy_loss_pct": 3.5218699049526765,
        "sla_attainment": 1.0000000000000002,
        "user_sla_attainment": 1.0,
        "mean_awake_fraction": 1.0,
        "batch_deadline_attainment": 1.0,
        "batch_carbon_g_per_request": 0.00018518195798098097,
    },
    "mixed_scheme": {
        "total_requests": 9625339.999999996,
        "total_energy_j": 20991453.672605928,
        "total_carbon_g": 1202.4185792853832,
        "accuracy_loss_pct": 4.712533876975986,
        "sla_attainment": 1.0000000000000016,
    },
    "router_sweep": {
        "total_requests": 9627428.571428573,
        "total_energy_j": 22267492.305584583,
        "total_carbon_g": 1201.747439827575,
        "accuracy_loss_pct": 3.834273344834913,
        "sla_attainment": 0.999999999999999,
    },
}


def _golden_metrics(result) -> dict[str, float]:
    """The pinned metrics of one run; optional subsystems add theirs."""
    names = [
        "total_requests",
        "total_energy_j",
        "total_carbon_g",
        "accuracy_loss_pct",
        "sla_attainment",
    ]
    if result.has_demand:
        names.append("user_sla_attainment")
    if result.has_gating:
        names.append("mean_awake_fraction")
    if result.has_batch:
        names += ["batch_deadline_attainment", "batch_carbon_g_per_request"]
    return {name: float(getattr(result, name)) for name in names}


#: Every scenario file and every recorded golden, so that either one
#: missing its counterpart fails.
EXAMPLE_STEMS = sorted(
    {p.stem for p in EXAMPLE_SCENARIOS.glob("*.toml")} | set(EXAMPLE_GOLDENS)
)


@pytest.mark.parametrize("stem", EXAMPLE_STEMS)
def test_example_scenario_matches_golden(stem):
    path = EXAMPLE_SCENARIOS / f"{stem}.toml"
    assert path.exists(), f"golden recorded for missing scenario file {path}"
    assert stem in EXAMPLE_GOLDENS, f"no golden recorded for {path}"
    spec, _ = load_scenario_file(path)
    result = Scenario(spec.with_fidelity("smoke")).run()
    expected = EXAMPLE_GOLDENS[stem]
    assert _golden_metrics(result) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "stem", sorted(p.stem for p in EXAMPLE_SCENARIOS.glob("*.toml"))
)
def test_second_run_of_a_built_coordinator_replays_the_first(stem):
    """A fresh run inherits no state from the last one, so running one
    built coordinator twice gives the same result bit for bit."""
    spec, _ = load_scenario_file(EXAMPLE_SCENARIOS / f"{stem}.toml")
    spec = spec.with_fidelity("smoke")
    coordinator = Scenario(spec).build()
    first, second = (
        coordinator.run(
            duration_h=spec.duration_h,
            parallel_regions=spec.parallel_regions,
        )
        for _ in range(2)
    )
    assert _golden_metrics(second) == _golden_metrics(first)
    for a, b in zip(first.results, second.results):
        assert b.epochs == a.epochs


class RecordingRunner(ExperimentRunner):
    """Captures every spec an experiment executes (then runs it)."""

    def __init__(self):
        super().__init__()
        self.specs: list[ScenarioSpec] = []

    def run_scenario(self, spec):
        self.specs.append(spec)
        return super().run_scenario(spec)


def paper_spec(application, scheme, region="us-ciso", duration_h=None):
    """The N=1 spec a paper figure runs at smoke fidelity, seed 0."""
    return ScenarioSpec(
        regions=(RegionSpec(name=region),),
        application=application,
        scheme=scheme,
        fidelity="smoke",
        seed=0,
        duration_h=duration_h,
        net_latency_ms=0.0,
        routing=RoutingSpec(router="static"),
    )


#: The paper's three evaluation applications, in Table-1 order.
APPS = ("detection", "language", "classification")


class TestPaperFiguresRunN1Specs:
    """Each paper figure asks the runner for exactly these N=1 specs, in
    order (memo hits included)."""

    def _record(self, entry, **kwargs):
        runner = RecordingRunner()
        entry(runner, fidelity="smoke", seed=0, **kwargs)
        return runner.specs

    def test_fig9(self):
        from repro.analysis.experiments import fig9_effectiveness

        specs = self._record(fig9_effectiveness, applications=("classification",))
        assert specs == [
            paper_spec("classification", s) for s in ("base", "clover")
        ]

    def test_fig10(self):
        from repro.analysis.experiments import fig10_scheme_comparison

        specs = self._record(
            fig10_scheme_comparison, applications=("classification",)
        )
        assert specs == [
            paper_spec("classification", s)
            for s in ("base", "co2opt", "blover", "clover", "oracle")
        ]

    def test_fig11(self):
        from repro.analysis.experiments import fig11_objective_timeline

        specs = self._record(
            fig11_objective_timeline, applications=("classification",)
        )
        assert specs == [
            paper_spec("classification", s)
            for s in ("co2opt", "blover", "clover", "oracle")
        ]

    def test_fig12(self):
        from repro.analysis.experiments import fig12_optimization_overhead

        assert self._record(fig12_optimization_overhead) == [
            paper_spec("classification", s) for s in ("blover", "clover")
        ]

    def test_fig13(self):
        from repro.analysis.experiments import fig13_invocation_trajectories

        assert self._record(fig13_invocation_trajectories) == [
            paper_spec("classification", "clover")
        ]

    def test_fig14(self):
        """Only the CISO-March BASE is a spec; the lambda sweep's trace
        and the accuracy floors are no spec field."""
        from repro.analysis.experiments import fig14_lambda_and_threshold

        assert self._record(fig14_lambda_and_threshold) == [
            paper_spec("classification", "base")
        ]

    def test_fig15(self):
        """One 12-hour 10-GPU BASE per application; the fewer-GPU runs
        under its pinned baseline are no spec."""
        from repro.analysis.experiments import fig15_reduced_gpus

        assert self._record(fig15_reduced_gpus) == [
            paper_spec(app, "base", duration_h=12.0) for app in APPS
        ]

    def test_savings(self):
        from repro.analysis.experiments import savings_estimate

        assert self._record(savings_estimate) == [
            paper_spec(app, s) for app in APPS for s in ("base", "clover")
        ]


#: The demand/gating/hetero/shifting experiments' shared workload.
DIURNAL = DemandSpec(
    kind="diurnal", ramp_share_per_h=0.10, drain_share_per_h=0.20
)


class TestExperimentsBuildTheShimSpecs:
    """Each fleet experiment runs exactly the literal specs pinned here."""

    def test_fig16(self):
        from repro.analysis.experiments import fig16_geographic

        runner = RecordingRunner()
        fig16_geographic(
            runner,
            fidelity="smoke",
            seed=0,
            applications=("classification",),
            trace_names=("ciso-march",),
        )
        expected = [
            ScenarioSpec(
                regions=(RegionSpec(name="us-ciso"),),
                application="classification",
                scheme=scheme,
                fidelity="smoke",
                seed=0,
                net_latency_ms=0.0,
                routing=RoutingSpec(router="static"),
            )
            for scheme in ("base", "clover")
        ]
        assert runner.specs == expected

    def test_fleet(self):
        from repro.analysis.experiments import fleet_load_shifting

        expected = [
            ScenarioSpec(
                regions=(
                    RegionSpec(name="us-ciso"),
                    RegionSpec(name="uk-eso"),
                    RegionSpec(name="nordic-hydro"),
                ),
                fidelity="smoke",
                routing=RoutingSpec(router=r),
            )
            for r in ("static", "latency", "carbon-greedy")
        ]
        assert list(fleet_load_shifting.specs("smoke", 0)) == expected

    def test_demand(self):
        from repro.analysis.experiments import demand_routing

        regions = (
            RegionSpec(name="us-ciso"),
            RegionSpec(name="uk-eso"),
            RegionSpec(name="apac-solar"),
        )
        expected = [
            ScenarioSpec(
                regions=regions,
                fidelity="smoke",
                n_gpus=2,
                duration_h=48.0,
                routing=routing,
                demand=DIURNAL,
            )
            for routing in (
                RoutingSpec(router="static"),
                RoutingSpec(router="carbon-greedy"),
                RoutingSpec(router="forecast-aware", lookahead_h=6.0),
            )
        ]
        assert list(demand_routing.specs("smoke", 0)) == expected

    def test_gating(self):
        from repro.analysis.experiments import gating_elasticity

        regions = (
            RegionSpec(name="us-ciso"),
            RegionSpec(name="uk-eso"),
            RegionSpec(name="apac-solar"),
        )
        rows = (
            ("static", None, None),
            ("carbon-greedy", None, None),
            ("static", None, "reactive"),
            ("carbon-greedy", None, "reactive"),
            ("forecast-aware", 6.0, "reactive"),
            ("forecast-aware", 6.0, "forecast"),
        )
        expected = [
            ScenarioSpec(
                regions=regions,
                fidelity="smoke",
                n_gpus=2,
                duration_h=48.0,
                routing=RoutingSpec(router=router, lookahead_h=lookahead_h),
                demand=DIURNAL,
                gating=GatingSpec(mode=mode),
            )
            for router, lookahead_h, mode in rows
        ]
        assert list(gating_elasticity.specs("smoke", 0)) == expected

    def test_hetero(self):
        from repro.analysis.experiments import hetero_fleet

        rows = (
            ("static", True, None),
            ("carbon-greedy", False, None),
            ("carbon-greedy", True, None),
            ("forecast-aware", True, 6.0),
        )
        expected = [
            ScenarioSpec(
                regions=(
                    RegionSpec(name="us-ciso", devices="a100"),
                    RegionSpec(name="uk-eso", devices="a100"),
                    RegionSpec(name="apac-solar", devices="l4"),
                ),
                fidelity="smoke",
                n_gpus=2,
                duration_h=48.0,
                routing=RoutingSpec(
                    router=router,
                    lookahead_h=lookahead_h,
                    efficiency_weighted=efficiency,
                ),
                demand=DIURNAL,
                gating=GatingSpec(mode="reactive", wake_energy_j=1000.0),
            )
            for router, efficiency, lookahead_h in rows
        ]
        assert list(hetero_fleet.specs("smoke", 0)) == expected

    def test_shifting(self):
        from repro.analysis.experiments import temporal_shifting

        lots = BatchSpec(
            jobs_per_h=432.0, requests_per_job=100.0, deadline_h=8.0
        )
        rows = (
            ("carbon-greedy", BatchSpec(), None),
            (
                "carbon-greedy",
                BatchSpec(
                    jobs_per_h=432.0,
                    requests_per_job=100.0,
                    deadline_h=8.0,
                    defer=False,
                ),
                None,
            ),
            ("static", lots, None),
            ("carbon-greedy", lots, None),
            ("carbon-greedy", BatchSpec(), "reactive"),
            ("carbon-greedy", lots, "reactive"),
        )
        expected = [
            ScenarioSpec(
                regions=(
                    RegionSpec(name="nordic-hydro"),
                    RegionSpec(name="us-ciso"),
                ),
                fidelity="smoke",
                seed=7,
                n_gpus=2,
                duration_h=48.0,
                routing=RoutingSpec(router=router),
                demand=DIURNAL,
                gating=GatingSpec(mode=mode),
                batch=batch,
            )
            for router, batch, mode in rows
        ]
        assert list(temporal_shifting.specs("smoke", 7)) == expected

    def test_a_ladder_runs_its_specs_in_row_order(self):
        from dataclasses import replace

        from repro.analysis.experiments import fleet_load_shifting

        ladder = replace(
            fleet_load_shifting,
            base=replace(fleet_load_shifting.base, n_gpus=2, duration_h=3.0),
            rows={
                k: fleet_load_shifting.rows[k]
                for k in ("carbon-greedy", "static")
            },
        )
        runner = RecordingRunner()
        result = ladder(runner, "smoke", 0)
        assert runner.specs == list(ladder.specs("smoke", 0))
        assert list(result.results) == ["carbon-greedy", "static"]


class TestMixedSchemeScenario:
    """The tentpole's new capability: per-region scheme assignment."""

    def _run(self, schemes):
        spec = ScenarioSpec(
            regions=(
                RegionSpec(name="nordic-hydro", scheme=schemes[0]),
                RegionSpec(name="us-ciso", scheme=schemes[1]),
            ),
            fidelity="smoke",
            n_gpus=2,
            duration_h=6.0,
            routing=RoutingSpec(router="carbon-greedy"),
        )
        return ExperimentRunner().run_scenario(spec)

    def test_mixed_scheme_runs_end_to_end(self):
        result = self._run(("co2opt", "clover"))
        assert result.scheme_name == "co2opt+clover"
        assert result.scheme_by_region == {
            "nordic-hydro": "co2opt",
            "us-ciso": "clover",
        }
        assert result.total_requests > 0
        assert result.total_carbon_g > 0

    def test_mixed_scheme_differs_from_uniform(self):
        mixed = self._run(("co2opt", "clover"))
        uniform = self._run(("clover", "clover"))
        assert uniform.scheme_name == "clover"
        assert mixed.total_carbon_g != uniform.total_carbon_g

    def test_uniform_per_region_equals_plain_scheme(self):
        """Explicit per-region schemes that all agree build the same
        coordinator as the plain scheme string — bit for bit."""
        explicit = self._run(("clover", "clover"))
        plain = ExperimentRunner().run_scenario(
            ScenarioSpec(
                regions=(
                    RegionSpec(name="nordic-hydro"),
                    RegionSpec(name="us-ciso"),
                ),
                scheme="clover",
                fidelity="smoke",
                n_gpus=2,
                duration_h=6.0,
                routing=RoutingSpec(router="carbon-greedy"),
            )
        )
        assert explicit.total_carbon_g == plain.total_carbon_g
        assert explicit.total_energy_j == plain.total_energy_j
