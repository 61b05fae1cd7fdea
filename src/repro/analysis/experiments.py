"""One entry point per table and figure of the Clover paper's evaluation.

Every function returns a small result dataclass whose ``table()`` method
yields ``(headers, rows)`` for ASCII rendering (see
:mod:`repro.analysis.reporting`), and whose fields carry the raw series for
tests and benchmarks.  The mapping to the paper:

==========  ===========================================================
table1      the three applications and their model variants
fig2        mixed-quality mixtures: carbon reduction vs accuracy
fig3        MIG partitioning C1/C2/C3: carbon down, latency up
fig4        14-day carbon-intensity variation across regions/seasons
fig6        the worked objective-selection example
fig8        the three 48-hour evaluation traces
fig9        Clover vs BASE: accuracy / carbon / SLA latency
fig10       scheme comparison scatter (CO2OPT/BLOVER/CLOVER/ORACLE)
fig11       objective timelines over 48 hours
fig12       optimization overhead and candidate SLA compliance
fig13       per-invocation exploration trajectories
fig14       lambda sweep and accuracy-threshold mode
fig15       provisioning fewer GPUs under the 10-GPU SLA
fig16       geographic/seasonal robustness
savings     the back-of-the-envelope daily savings estimate (Sec. 5.2.1)
fleet       multi-region load shifting (beyond the paper: Sec. 6 futures)
demand      geo-diurnal demand + forecast-driven proactive routing
gating      elastic GPU capacity: always-on vs reactive vs forecast-pre-wake
hetero      heterogeneous GPU fleets: efficiency-aware vs intensity routing
shifting    temporal load shifting: deferrable batch into clean epochs
==========  ===========================================================

``fig16``, ``fleet``, ``demand``, ``gating`` and ``hetero`` run through
the :mod:`repro.scenarios` layer: each builds declarative
:class:`~repro.scenarios.spec.ScenarioSpec` values — fig16 as N=1
single-region scenarios (behavior-identical to the seed path), the rest
as multi-region comparison grids — and executes them via
:meth:`~repro.analysis.runner.ExperimentRunner.run_scenario` (memoized by
spec).  Every entry registers itself with the
:func:`~repro.scenarios.registry.experiment` decorator; the CLI and docs
index render from that registry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.carbon.accounting import DEFAULT_PUE, carbon_grams
from repro.carbon.generator import (
    CISO_MARCH,
    CISO_SEPTEMBER,
    ESO_MARCH,
    ESO_SEPTEMBER,
    generate_trace,
)
from repro.carbon.intensity import CarbonIntensityTrace
from repro.carbon.traces import evaluation_traces
from repro.core.config import ClusterConfig, GpuAssignment, uniform_config
from repro.core.evaluator import ConfigEvaluator
from repro.core.objective import ObjectiveSpec
from repro.core.service import PAPER_N_GPUS
from repro.gpu.partitions import partition_by_id
from repro.models.perf import PerfModel
from repro.models.zoo import ModelZoo, default_zoo
from repro.serving.sla import SlaPolicy
from repro.serving.workload import default_rate
from repro.scenarios import (
    BatchSpec,
    DemandSpec,
    GatingSpec,
    RegionSpec,
    RoutingSpec,
    ScenarioSpec,
    experiment,
    experiment_registry,
)
from repro.analysis.runner import (
    APPLICATIONS_UNDER_TEST,
    ExperimentRunner,
    RunSpec,
)

__all__ = [
    "table1",
    "fig2_mixed_quality",
    "fig3_partitioning",
    "fig4_intensity_variation",
    "fig6_selection_example",
    "fig8_evaluation_traces",
    "fig9_effectiveness",
    "fig10_scheme_comparison",
    "fig11_objective_timeline",
    "fig12_optimization_overhead",
    "fig13_invocation_trajectories",
    "fig14_lambda_and_threshold",
    "fig15_reduced_gpus",
    "fig16_geographic",
    "fleet_load_shifting",
    "demand_routing",
    "gating_elasticity",
    "hetero_fleet",
    "temporal_shifting",
    "savings_estimate",
    "EXPERIMENT_REGISTRY",
]


# --------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Table1Result:
    rows_: tuple[tuple[str, ...], ...]

    def table(self):
        headers = (
            "Application", "Dataset", "Architecture", "Variant",
            "Params(M)", "GFLOPs", "Accuracy", "Mem(GB)",
        )
        return headers, self.rows_


@experiment("table1", "Table 1: applications, datasets, architectures, variants", takes_runner=False)
def table1(zoo: ModelZoo | None = None) -> Table1Result:
    """Table 1: the applications, datasets, architectures and variants."""
    zoo = zoo or default_zoo()
    rows = []
    for fam in zoo.families:
        for v in fam.variants:
            rows.append(
                (
                    fam.application, fam.dataset, fam.architecture, v.name,
                    f"{v.params_millions:g}", f"{v.gflops:g}",
                    f"{v.accuracy:g} {fam.metric}", f"{v.memory_gb:g}",
                )
            )
    return Table1Result(rows_=tuple(rows))


# --------------------------------------------------------------------- #
# Fig. 2 — mixed-quality opportunity
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig2Result:
    """Each point: one variant mixture on unpartitioned GPUs."""

    application: str
    n_gpus: int
    mixtures: tuple[tuple[int, ...], ...]
    carbon_reduction_pct: np.ndarray
    accuracy_norm: np.ndarray

    def pareto_points(self) -> list[tuple[float, float]]:
        """The non-dominated (carbon saving, accuracy) frontier."""
        pts = sorted(
            zip(self.carbon_reduction_pct, self.accuracy_norm), reverse=True
        )
        frontier, best_acc = [], -np.inf
        for c, a in pts:
            if a > best_acc:
                frontier.append((c, a))
                best_acc = a
        return frontier[::-1]

    def best_saving_within_loss(self, max_loss_pct: float) -> float:
        """Max carbon saving among mixtures losing <= ``max_loss_pct``."""
        ok = self.accuracy_norm >= 1.0 - max_loss_pct / 100.0
        if not ok.any():
            return 0.0
        return float(self.carbon_reduction_pct[ok].max())

    def table(self):
        headers = ("Mixture (ordinals)", "CarbonSave%", "Accuracy(norm)")
        rows = [
            (str(m), f"{c:.1f}", f"{a:.4f}")
            for m, c, a in zip(
                self.mixtures, self.carbon_reduction_pct, self.accuracy_norm
            )
        ]
        return headers, rows


@experiment("fig2", "mixed-quality variant mixtures: carbon saving vs accuracy", takes_runner=False)
def fig2_mixed_quality(
    application: str = "classification",
    n_gpus: int = 4,
    zoo: ModelZoo | None = None,
    perf: PerfModel | None = None,
) -> Fig2Result:
    """Fig. 2: every variant mixture on a 4-GPU system, no partitioning.

    Carbon intensity is held constant (the figure's methodology), so the
    carbon reduction equals the energy-per-request reduction vs hosting the
    highest-quality variant everywhere.
    """
    zoo = zoo or default_zoo()
    perf = perf or PerfModel()
    fam = zoo.for_application(application)
    rate = default_rate(fam, perf, n_gpus)
    evaluator = ConfigEvaluator(
        zoo=zoo, perf=perf, family=fam.name, rate_per_s=rate, n_gpus=n_gpus,
        method="analytic",
    )

    def eval_mixture(ordinals: tuple[int, ...]):
        assignments = tuple(
            GpuAssignment(partition_id=1, variant_ordinals=(o,))
            for o in ordinals
        )
        cfg = ClusterConfig(family=fam.name, assignments=assignments)
        return evaluator.evaluate(cfg)

    base = eval_mixture((fam.largest.ordinal,) * n_gpus)
    mixtures, savings, accs = [], [], []
    for combo in itertools.combinations_with_replacement(
        range(1, fam.num_variants + 1), n_gpus
    ):
        ev = eval_mixture(combo)
        mixtures.append(combo)
        savings.append(
            (1.0 - ev.energy_per_request_j / base.energy_per_request_j) * 100.0
        )
        accs.append(ev.accuracy / base.accuracy)
    return Fig2Result(
        application=application,
        n_gpus=n_gpus,
        mixtures=tuple(mixtures),
        carbon_reduction_pct=np.asarray(savings),
        accuracy_norm=np.asarray(accs),
    )


# --------------------------------------------------------------------- #
# Fig. 3 — partitioning opportunity
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig3Result:
    application: str
    variant_name: str
    labels: tuple[str, ...]
    partition_ids: tuple[int, ...]
    carbon_norm: np.ndarray
    latency_norm: np.ndarray

    def table(self):
        headers = ("Config", "Partition", "Carbon (norm C1)", "Latency (norm C1)")
        rows = [
            (lab, str(partition_by_id(pid)), f"{c:.3f}", f"{l:.3f}")
            for lab, pid, c, l in zip(
                self.labels, self.partition_ids, self.carbon_norm, self.latency_norm
            )
        ]
        return headers, rows


@experiment("fig3", "MIG partitioning C1/C2/C3: carbon down, latency up", takes_runner=False)
def fig3_partitioning(
    application: str = "classification",
    variant_ordinal: int | None = None,
    zoo: ModelZoo | None = None,
    perf: PerfModel | None = None,
    utilization: float = 0.65,
) -> Fig3Result:
    """Fig. 3: one GPU at C1 (#1), C2 (#3), C3 (#19), same variant everywhere.

    The default variant is the second-largest that fits a 1g slice — large
    enough to feel the smaller slices (the paper's latency degradation),
    small enough that C3 is hostable at all.

    The latency metric is the *mean service latency* of a request: the
    paper's Fig. 3 isolates the per-request slowdown of GPU sharing, while
    queueing-tail effects (which can favour many slow servers over one fast
    one) are the business of the full-system SLA evaluation.
    """
    zoo = zoo or default_zoo()
    perf = perf or PerfModel()
    fam = zoo.for_application(application)
    if variant_ordinal is None:
        one_g_ok = zoo.feasible_variants(fam.name, 0)
        variant_ordinal = (
            one_g_ok[-2] if len(one_g_ok) >= 2 else one_g_ok[-1]
        )
    variant = fam.variant(variant_ordinal)

    from repro.gpu.slices import slice_by_name

    rate = utilization * perf.service_rate(variant, slice_by_name("7g"))
    evaluator = ConfigEvaluator(
        zoo=zoo, perf=perf, family=fam.name, rate_per_s=rate, n_gpus=1,
        method="analytic",
    )
    labels = ("C1", "C2", "C3")
    pids = (1, 3, 19)
    energy, latency = [], []
    for pid in pids:
        partition = partition_by_id(pid)
        ev = evaluator.evaluate(uniform_config(fam, 1, pid, variant_ordinal))
        energy.append(ev.energy_per_request_j)
        # Mean service latency across the partition's slices, weighted by
        # the share of requests each slice serves (throughput-proportional).
        taus = np.array(
            [perf.latency_ms(variant, s) for s in partition.slices]
        )
        shares = (1.0 / taus) / (1.0 / taus).sum()
        latency.append(float(np.dot(shares, taus)))
    energy = np.asarray(energy)
    latency = np.asarray(latency)
    return Fig3Result(
        application=application,
        variant_name=variant.name,
        labels=labels,
        partition_ids=pids,
        carbon_norm=energy / energy[0],
        latency_norm=latency / latency[0],
    )


# --------------------------------------------------------------------- #
# Fig. 4 and Fig. 8 — carbon-intensity traces
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TraceStats:
    name: str
    min_ci: float
    max_ci: float
    mean_ci: float
    std_ci: float
    max_half_day_swing: float

    @classmethod
    def of(cls, trace: CarbonIntensityTrace) -> "TraceStats":
        v = trace.values
        # Largest change within any 12-hour window (the paper highlights
        # swings of > 200 gCO2/kWh within half a day).
        t = trace.times_h
        swing = 0.0
        for i in range(t.size):
            inside = (t >= t[i]) & (t <= t[i] + 12.0)
            if inside.sum() >= 2:
                w = v[inside]
                swing = max(swing, float(w.max() - w.min()))
        return cls(
            name=trace.name,
            min_ci=float(v.min()),
            max_ci=float(v.max()),
            mean_ci=float(v.mean()),
            std_ci=float(v.std()),
            max_half_day_swing=swing,
        )

    def row(self) -> tuple[str, ...]:
        return (
            self.name, f"{self.min_ci:.0f}", f"{self.max_ci:.0f}",
            f"{self.mean_ci:.0f}", f"{self.std_ci:.0f}",
            f"{self.max_half_day_swing:.0f}",
        )


@dataclass(frozen=True)
class TraceFigureResult:
    stats: tuple[TraceStats, ...]
    traces: tuple[CarbonIntensityTrace, ...]

    def table(self):
        headers = ("Trace", "Min", "Max", "Mean", "Std", "Max 12h swing")
        return headers, tuple(s.row() for s in self.stats)


@experiment("fig4", "14-day carbon-intensity variation across regions/seasons", takes_runner=False)
def fig4_intensity_variation(days: float = 14.0, seed: int = 2021) -> TraceFigureResult:
    """Fig. 4: 14-day spans for CISO/ESO in March and September."""
    profiles = (CISO_MARCH, CISO_SEPTEMBER, ESO_MARCH, ESO_SEPTEMBER)
    traces = tuple(
        generate_trace(p, days=days, step_h=1.0, rng=seed + i)
        for i, p in enumerate(profiles)
    )
    return TraceFigureResult(
        stats=tuple(TraceStats.of(t) for t in traces), traces=traces
    )


@experiment("fig8", "the three embedded 48-hour evaluation traces", takes_runner=False)
def fig8_evaluation_traces() -> TraceFigureResult:
    """Fig. 8: the three embedded 48-hour evaluation traces."""
    traces = tuple(evaluation_traces().values())
    return TraceFigureResult(
        stats=tuple(TraceStats.of(t) for t in traces), traces=traces
    )


# --------------------------------------------------------------------- #
# Fig. 6 — worked selection example
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig6Result:
    rows_: tuple[tuple[str, ...], ...]
    preferred: dict[float, str]

    def table(self):
        headers = (
            "ci", "Config", "E(x)*ci", "dCarbon%", "dAccuracy%",
            "Objective", "Preferred",
        )
        return headers, self.rows_


@experiment("fig6", "the worked objective-selection example", takes_runner=False)
def fig6_selection_example(
    lambda_weight: float = 0.1, c_base: float = 1000.0
) -> Fig6Result:
    """Fig. 6: configs A (E=0.4, dAcc=-4%) and B (E=1.2, dAcc=-2%).

    Uses the full :class:`ObjectiveSpec` machinery with PUE 1 and abstract
    energy units (E in kWh-equivalents so that ``E * ci`` reads directly in
    the figure's units).  Reproduces the computed objective values; the
    paper's printed 3.2 for config B at ci=500 is inconsistent with its own
    Eq. 3 (which gives 2.2) and is documented in DESIGN.md.
    """
    joules_per_unit = 3.6e6  # 1 abstract E unit == 1 kWh of IT energy
    sla = SlaPolicy(p95_target_ms=1.0)  # SLA not exercised in this example
    # a_base chosen so that accuracies 96 and 98 give exactly -4% and -2%.
    spec = ObjectiveSpec(
        lambda_weight=lambda_weight, a_base=100.0, c_base=c_base, sla=sla, pue=1.0
    )
    configs = {"A": (0.4, 96.0), "B": (1.2, 98.0)}
    rows, preferred = [], {}
    for ci in (500.0, 100.0):
        best_name, best_f = None, -np.inf
        for name, (e_units, acc) in configs.items():
            e_j = e_units * joules_per_unit
            d_c = spec.delta_carbon(e_j, ci)
            d_a = spec.delta_accuracy(acc)
            f = spec.f(acc, e_j, ci)
            rows.append(
                (
                    f"{ci:.0f}", name, f"{e_units * ci:.0f}", f"{d_c:.0f}",
                    f"{d_a:.1f}", f"{f:.1f}", "",
                )
            )
            if f > best_f:
                best_name, best_f = name, f
        preferred[ci] = best_name
        rows[-1] = rows[-1][:-1] + (f"-> {best_name}",)
    return Fig6Result(rows_=tuple(rows), preferred=preferred)


# --------------------------------------------------------------------- #
# Fig. 9 — Clover vs BASE
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig9Result:
    applications: tuple[str, ...]
    accuracy_loss_pct: dict[str, float]
    carbon_reduction_pct: dict[str, float]
    sla_latency_norm: dict[str, float]

    @property
    def overall_accuracy_loss_pct(self) -> float:
        return float(np.mean(list(self.accuracy_loss_pct.values())))

    @property
    def overall_carbon_reduction_pct(self) -> float:
        return float(np.mean(list(self.carbon_reduction_pct.values())))

    def table(self):
        headers = ("Application", "AccLoss%", "CarbonSave%", "SLA p95 (norm BASE)")
        rows = [
            (
                app,
                f"{self.accuracy_loss_pct[app]:.2f}",
                f"{self.carbon_reduction_pct[app]:.1f}",
                f"{self.sla_latency_norm[app]:.2f}",
            )
            for app in self.applications
        ]
        rows.append(
            (
                "overall",
                f"{self.overall_accuracy_loss_pct:.2f}",
                f"{self.overall_carbon_reduction_pct:.1f}",
                f"{np.mean(list(self.sla_latency_norm.values())):.2f}",
            )
        )
        return headers, rows


@experiment("fig9", "Clover vs BASE: accuracy / carbon / SLA latency")
def fig9_effectiveness(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    applications: tuple[str, ...] = APPLICATIONS_UNDER_TEST,
) -> Fig9Result:
    """Fig. 9: Clover vs BASE over 48 h of US CISO March."""
    runner = runner or ExperimentRunner()
    matrix = runner.run_matrix(
        ("base", "clover"), applications, fidelity=fidelity, seed=seed
    )
    acc, carbon, sla = {}, {}, {}
    for app in applications:
        base, clover = matrix[(app, "base")], matrix[(app, "clover")]
        acc[app] = clover.accuracy_loss_pct
        carbon[app] = runner.carbon_saving_pct(clover, base)
        sla[app] = runner.latency_norm(clover, base)
    return Fig9Result(
        applications=applications,
        accuracy_loss_pct=acc,
        carbon_reduction_pct=carbon,
        sla_latency_norm=sla,
    )


# --------------------------------------------------------------------- #
# Fig. 10 — scheme comparison
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig10Result:
    applications: tuple[str, ...]
    schemes: tuple[str, ...]
    carbon_save_pct: dict[tuple[str, str], float]
    accuracy_gain_pct: dict[tuple[str, str], float]

    def closest_to_oracle(self, app: str) -> str:
        """Which non-oracle scheme lands closest to ORACLE's point."""
        ox = self.carbon_save_pct[(app, "oracle")]
        oy = self.accuracy_gain_pct[(app, "oracle")]
        best, best_d = None, np.inf
        for s in self.schemes:
            if s in ("oracle", "base"):
                continue
            d = np.hypot(
                self.carbon_save_pct[(app, s)] - ox,
                self.accuracy_gain_pct[(app, s)] - oy,
            )
            if d < best_d:
                best, best_d = s, d
        return best

    def table(self):
        headers = ("Application", "Scheme", "CarbonSave%", "AccGain%")
        rows = [
            (
                app, s,
                f"{self.carbon_save_pct[(app, s)]:.1f}",
                f"{self.accuracy_gain_pct[(app, s)]:.2f}",
            )
            for app in self.applications
            for s in self.schemes
        ]
        return headers, rows


@experiment("fig10", "scheme comparison scatter (CO2OPT/BLOVER/CLOVER/ORACLE)")
def fig10_scheme_comparison(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    applications: tuple[str, ...] = APPLICATIONS_UNDER_TEST,
) -> Fig10Result:
    """Fig. 10: all schemes' (carbon save, accuracy gain) vs BASE."""
    runner = runner or ExperimentRunner()
    schemes = ("co2opt", "blover", "clover", "oracle")
    matrix = runner.run_matrix(
        ("base",) + schemes, applications, fidelity=fidelity, seed=seed
    )
    save, gain = {}, {}
    for app in applications:
        base = matrix[(app, "base")]
        for s in schemes:
            r = matrix[(app, s)]
            save[(app, s)] = runner.carbon_saving_pct(r, base)
            gain[(app, s)] = -r.accuracy_loss_pct
    return Fig10Result(
        applications=applications,
        schemes=schemes,
        carbon_save_pct=save,
        accuracy_gain_pct=gain,
    )


# --------------------------------------------------------------------- #
# Fig. 11 — objective timelines
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig11Result:
    applications: tuple[str, ...]
    schemes: tuple[str, ...]
    series: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]

    def mean_objective(self, app: str, scheme: str) -> float:
        return float(self.series[(app, scheme)][1].mean())

    def table(self):
        headers = ("Application", "Scheme", "mean f", "min f", "max f")
        rows = []
        for app in self.applications:
            for s in self.schemes:
                f = self.series[(app, s)][1]
                rows.append(
                    (app, s, f"{f.mean():.1f}", f"{f.min():.1f}", f"{f.max():.1f}")
                )
        return headers, rows


@experiment("fig11", "objective timelines over 48 hours")
def fig11_objective_timeline(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    applications: tuple[str, ...] = APPLICATIONS_UNDER_TEST,
) -> Fig11Result:
    """Fig. 11: the Eq. 3 objective of the deployed config over 48 h."""
    runner = runner or ExperimentRunner()
    schemes = ("co2opt", "blover", "clover", "oracle")
    matrix = runner.run_matrix(schemes, applications, fidelity=fidelity, seed=seed)
    series = {
        (app, s): matrix[(app, s)].objective_series()
        for app in applications
        for s in schemes
    }
    return Fig11Result(applications=applications, schemes=schemes, series=series)


# --------------------------------------------------------------------- #
# Fig. 12 — optimization overhead
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig12Result:
    application: str
    opt_fraction: dict[str, float]
    opt_fraction_by_window: dict[str, list[float]]
    evaluations: dict[str, int]
    evals_sla_met: dict[str, int]
    evals_sla_violated: dict[str, int]

    def table(self):
        headers = ("Scheme", "Opt time %", "Evals", "SLA met", "SLA violated")
        rows = [
            (
                s,
                f"{100 * self.opt_fraction[s]:.2f}",
                str(self.evaluations[s]),
                str(self.evals_sla_met[s]),
                str(self.evals_sla_violated[s]),
            )
            for s in ("blover", "clover")
        ]
        return headers, rows


@experiment("fig12", "optimization overhead and candidate SLA compliance")
def fig12_optimization_overhead(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    application: str = "classification",
) -> Fig12Result:
    """Fig. 12: time spent optimizing and SLA compliance of candidates."""
    runner = runner or ExperimentRunner()
    out_frac, out_win, out_n, out_met, out_bad = {}, {}, {}, {}, {}
    for scheme in ("blover", "clover"):
        r = runner.run(
            RunSpec(
                application=application, scheme=scheme, fidelity=fidelity, seed=seed
            )
        )
        out_frac[scheme] = r.optimization_fraction
        out_win[scheme] = r.optimization_fraction_by_window(8.0)
        out_n[scheme] = r.total_evaluations
        out_met[scheme] = r.evaluations_sla_met
        out_bad[scheme] = r.evaluations_sla_violated
    return Fig12Result(
        application=application,
        opt_fraction=out_frac,
        opt_fraction_by_window=out_win,
        evaluations=out_n,
        evals_sla_met=out_met,
        evals_sla_violated=out_bad,
    )


# --------------------------------------------------------------------- #
# Fig. 13 — invocation trajectories
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig13Result:
    application: str
    invocation_labels: tuple[str, ...]
    trajectories: dict[str, tuple[tuple[int, float, float, bool], ...]]
    evaluations_per_invocation: tuple[int, ...]

    def table(self):
        headers = ("Invocation", "Eval#", "CarbonSave%", "AccGain%", "SLA")
        rows = []
        for label in self.invocation_labels:
            for order, d_carbon, d_acc, sla in self.trajectories[label]:
                rows.append(
                    (
                        label, str(order), f"{d_carbon:.1f}", f"{d_acc:.2f}",
                        "met" if sla else "VIOLATED",
                    )
                )
        return headers, rows


@experiment("fig13", "per-invocation exploration trajectories")
def fig13_invocation_trajectories(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    application: str = "classification",
) -> Fig13Result:
    """Fig. 13: configurations explored at invocations I, II and the last."""
    runner = runner or ExperimentRunner()
    r = runner.run(
        RunSpec(application=application, scheme="clover", fidelity=fidelity, seed=seed)
    )
    if not r.invocations:
        raise RuntimeError("the Clover run recorded no optimization invocations")
    picks = {
        "I (first)": r.invocations[0],
        "II (second)": r.invocations[min(1, len(r.invocations) - 1)],
        "last": r.invocations[-1],
    }
    trajectories = {
        label: tuple(
            (c.order, c.delta_carbon_pct, c.delta_accuracy_pct, c.sla_met)
            for c in inv.candidates
        )
        for label, inv in picks.items()
    }
    return Fig13Result(
        application=application,
        invocation_labels=tuple(picks),
        trajectories=trajectories,
        evaluations_per_invocation=tuple(
            inv.num_evaluations for inv in r.invocations
        ),
    )


# --------------------------------------------------------------------- #
# Fig. 14 — lambda sweep and accuracy-threshold mode
# --------------------------------------------------------------------- #


def _near_constant_trace(ci: float, span_h: float = 48.0) -> CarbonIntensityTrace:
    """A trace hovering at ``ci`` with a +/-7% wiggle.

    Fig. 14a studies lambda "at 100 gCO2/kWh"; a perfectly flat trace would
    fire the 5% re-optimization trigger exactly once, leaving Clover with a
    single warm-up invocation.  The small periodic wiggle keeps the mean at
    ``ci`` while letting the controller re-invoke as it would in production.
    """
    t = np.arange(0.0, span_h + 0.5, 0.5)
    values = ci * (1.0 + 0.07 * np.sin(2.0 * np.pi * t / 6.0))
    return CarbonIntensityTrace(
        times_h=t, values=values, name=f"constant-{ci:g}"
    )


@dataclass(frozen=True)
class Fig14Result:
    lambdas: tuple[float, ...]
    lambda_carbon_save_pct: dict[float, float]
    lambda_accuracy_gain_pct: dict[float, float]
    floors: tuple[float, ...]
    floor_carbon_save_pct: dict[float, float]
    floor_accuracy_loss_pct: dict[float, float]

    def table(self):
        headers = ("Mode", "Setting", "CarbonSave%", "AccGain%")
        rows = [
            (
                "lambda", f"{l:g}",
                f"{self.lambda_carbon_save_pct[l]:.1f}",
                f"{self.lambda_accuracy_gain_pct[l]:.2f}",
            )
            for l in self.lambdas
        ]
        rows += [
            (
                "floor", f"{fl:g}%",
                f"{self.floor_carbon_save_pct[fl]:.1f}",
                f"{-self.floor_accuracy_loss_pct[fl]:.2f}",
            )
            for fl in self.floors
        ]
        return headers, rows


@experiment("fig14", "lambda sweep and accuracy-threshold mode")
def fig14_lambda_and_threshold(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    application: str = "classification",
    lambdas: tuple[float, ...] = (0.1, 0.5, 0.9),
    floors: tuple[float, ...] = (0.2, 0.4, 0.8, 1.6, 3.2),
    lambda_ci: float = 100.0,
) -> Fig14Result:
    """Fig. 14: (a) lambda sweep at 100 gCO2/kWh; (b) accuracy floors."""
    runner = runner or ExperimentRunner()
    runner.register_trace(
        f"constant-{lambda_ci:g}", _near_constant_trace(lambda_ci)
    )

    l_save, l_gain = {}, {}
    base_flat = runner.run(
        RunSpec(
            application=application, scheme="base",
            trace_name=f"constant-{lambda_ci:g}", fidelity=fidelity, seed=seed,
        )
    )
    for lam in lambdas:
        r = runner.run(
            RunSpec(
                application=application, scheme="clover",
                trace_name=f"constant-{lambda_ci:g}", fidelity=fidelity,
                seed=seed, lambda_weight=lam,
            )
        )
        l_save[lam] = runner.carbon_saving_pct(r, base_flat)
        l_gain[lam] = -r.accuracy_loss_pct

    f_save, f_loss = {}, {}
    base = runner.run(
        RunSpec(application=application, scheme="base", fidelity=fidelity, seed=seed)
    )
    for floor in floors:
        r = runner.run(
            RunSpec(
                application=application, scheme="clover", fidelity=fidelity,
                seed=seed, accuracy_floor_pct=floor,
            )
        )
        f_save[floor] = runner.carbon_saving_pct(r, base)
        f_loss[floor] = r.accuracy_loss_pct
    return Fig14Result(
        lambdas=lambdas,
        lambda_carbon_save_pct=l_save,
        lambda_accuracy_gain_pct=l_gain,
        floors=floors,
        floor_carbon_save_pct=f_save,
        floor_accuracy_loss_pct=f_loss,
    )


# --------------------------------------------------------------------- #
# Fig. 15 — provisioning fewer GPUs
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig15Result:
    applications: tuple[str, ...]
    gpu_counts: tuple[int, ...]
    latency_norm: dict[tuple[str, str, int], float]

    def table(self):
        headers = ("Application", "Scheme", "GPUs", "p95 (norm BASE@10)")
        rows = []
        for app in self.applications:
            for scheme in ("base", "clover"):
                for n in self.gpu_counts:
                    v = self.latency_norm[(app, scheme, n)]
                    rows.append(
                        (app, scheme, str(n), ">3" if v > 3 else f"{v:.2f}")
                    )
        return headers, rows


@experiment("fig15", "provisioning fewer GPUs under the 10-GPU SLA")
def fig15_reduced_gpus(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    applications: tuple[str, ...] = APPLICATIONS_UNDER_TEST,
    gpu_counts: tuple[int, ...] = (10, 4, 2),
    duration_h: float = 12.0,
) -> Fig15Result:
    """Fig. 15: serve the 10-GPU workload with 10, 4 and 2 GPUs.

    The workload rate and the SLA stay pinned to the 10-GPU BASE sizing; a
    normalized p95 above 1 violates the SLA and above 3 is reported as the
    paper's "> 3" overload marker.
    """
    from repro.core.service import derive_baseline
    from repro.models.perf import PerfModel
    from repro.models.zoo import default_zoo

    runner = runner or ExperimentRunner()
    zoo, perf = default_zoo(), PerfModel()
    norm: dict[tuple[str, str, int], float] = {}
    for app in applications:
        fam = zoo.for_application(app)
        rate10 = default_rate(fam, perf, PAPER_N_GPUS)
        spec10 = RunSpec(
            application=app, scheme="base", fidelity=fidelity, seed=seed,
            duration_h=duration_h,
        )
        base10 = runner.run(spec10)
        baseline = derive_baseline(
            zoo=zoo, perf=perf, family=fam.name, n_gpus=PAPER_N_GPUS,
            rate_per_s=rate10, ci_base=220.0, des_requests=12000, seed=seed,
        )
        for scheme in ("base", "clover"):
            for n in gpu_counts:
                if scheme == "base" and n == PAPER_N_GPUS:
                    norm[(app, scheme, n)] = 1.0
                    continue
                from repro.core.service import CarbonAwareInferenceService

                service = CarbonAwareInferenceService.create(
                    application=app, scheme=scheme, n_gpus=n,
                    rate_per_s=rate10, fidelity=fidelity, seed=seed,
                    baseline=baseline,
                )
                r = service.run(duration_h=duration_h)
                p95 = r.p95_ms
                norm[(app, scheme, n)] = (
                    float("inf") if not np.isfinite(p95) else p95 / base10.p95_ms
                )
    return Fig15Result(
        applications=applications, gpu_counts=gpu_counts, latency_norm=norm
    )


# --------------------------------------------------------------------- #
# Fig. 16 — geographic/seasonal robustness
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig16Result:
    applications: tuple[str, ...]
    trace_names: tuple[str, ...]
    accuracy_loss_pct: dict[tuple[str, str], float]
    carbon_save_pct: dict[tuple[str, str], float]

    def table(self):
        headers = ("Trace", "Application", "AccLoss%", "CarbonSave%")
        rows = [
            (
                tr, app,
                f"{self.accuracy_loss_pct[(tr, app)]:.2f}",
                f"{self.carbon_save_pct[(tr, app)]:.1f}",
            )
            for tr in self.trace_names
            for app in self.applications
        ]
        return headers, rows


#: Fig. 16 trace names mapped onto the fleet region registry.
_FIG16_REGIONS = {
    "ciso-march": "us-ciso",
    "ciso-september": "us-ciso-sept",
    "eso-march": "uk-eso",
}


@experiment("fig16", "geographic/seasonal robustness (N=1 scenarios)")
def fig16_geographic(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    applications: tuple[str, ...] = APPLICATIONS_UNDER_TEST,
    trace_names: tuple[str, ...] = ("ciso-march", "ciso-september", "eso-march"),
) -> Fig16Result:
    """Fig. 16: Clover vs BASE on all three regional/seasonal traces.

    The three paper traces run through the scenario layer as N=1
    single-region scenarios with the static router — behavior-identical
    to the seed single-cluster service (verified bit-for-bit in the fleet
    tests), but exercising the same coordinator the multi-region
    experiments use; the cost is that these runs are memoized per
    ScenarioSpec, not shared with the Figs. 9-13 matrix.  Relative
    metrics (carbon saving %, accuracy loss) are invariant to the
    registry regions' PUE, which cancels between Clover and BASE.  Custom
    traces registered on the runner fall back to the single-cluster path
    (they have no fleet region).
    """
    runner = runner or ExperimentRunner()
    acc, save = {}, {}
    for tr in trace_names:
        region = _FIG16_REGIONS.get(tr)
        for app in applications:
            if region is not None:
                base, clover = (
                    runner.run_scenario(
                        ScenarioSpec(
                            regions=(RegionSpec(name=region),),
                            application=app,
                            scheme=scheme,
                            fidelity=fidelity,
                            seed=seed,
                            net_latency_ms=0.0,  # the paper has no network
                            routing=RoutingSpec(router="static"),
                        )
                    )
                    for scheme in ("base", "clover")
                )
            else:
                matrix = runner.run_matrix(
                    ("base", "clover"), (app,), trace_name=tr,
                    fidelity=fidelity, seed=seed,
                )
                base, clover = matrix[(app, "base")], matrix[(app, "clover")]
            acc[(tr, app)] = clover.accuracy_loss_pct
            save[(tr, app)] = runner.carbon_saving_pct(clover, base)
    return Fig16Result(
        applications=applications,
        trace_names=trace_names,
        accuracy_loss_pct=acc,
        carbon_save_pct=save,
    )


# --------------------------------------------------------------------- #
# Fleet — multi-region load shifting (beyond the paper)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FleetLoadShiftingResult:
    """Routing-policy comparison on one multi-region fleet."""

    application: str
    region_names: tuple[str, ...]
    routers: tuple[str, ...]
    total_carbon_g: dict[str, float]
    carbon_save_vs_static_pct: dict[str, float]
    accuracy_loss_pct: dict[str, float]
    sla_attainment: dict[str, float]
    request_shares: dict[str, dict[str, float]]
    cache_hit_rate: dict[str, float]

    def table(self):
        headers = (
            "Router", "Carbon(g)", "SaveVsStatic%", "AccLoss%", "SLA%",
            "CacheHit%", "Busiest region",
        )
        rows = []
        for r in self.routers:
            shares = self.request_shares[r]
            busiest = max(shares, key=shares.get)
            rows.append(
                (
                    r,
                    f"{self.total_carbon_g[r]:,.0f}",
                    f"{self.carbon_save_vs_static_pct[r]:.2f}",
                    f"{self.accuracy_loss_pct[r]:.2f}",
                    f"{100 * self.sla_attainment[r]:.1f}",
                    f"{100 * self.cache_hit_rate[r]:.1f}",
                    f"{busiest} ({100 * shares[busiest]:.1f}%)",
                )
            )
        return headers, rows


@experiment("fleet", "multi-region load shifting: routing-policy comparison")
def fleet_load_shifting(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    application: str = "classification",
    region_names: tuple[str, ...] = ("us-ciso", "uk-eso", "nordic-hydro"),
    routers: tuple[str, ...] = ("static", "latency", "carbon-greedy"),
    scheme: str = "clover",
    n_gpus: int = PAPER_N_GPUS,
    duration_h: float | None = None,
) -> FleetLoadShiftingResult:
    """Route one global workload across three grids, one row per policy.

    The headline: carbon-greedy routing beats the static split on total
    carbon (it shifts share toward the currently-cleanest grid) without
    giving up global SLA attainment, because its shift is bounded by each
    region's capacity and network-latency-aware SLA cap.
    """
    runner = runner or ExperimentRunner()
    if "static" not in routers:
        raise ValueError("the router set must include 'static' (the baseline)")
    results = {
        r: runner.run_scenario(
            ScenarioSpec(
                regions=tuple(RegionSpec(name=n) for n in region_names),
                application=application,
                scheme=scheme,
                fidelity=fidelity,
                seed=seed,
                n_gpus=n_gpus,
                duration_h=duration_h,
                routing=RoutingSpec(router=r),
            )
        )
        for r in routers
    }
    static_carbon = results["static"].total_carbon_g
    return FleetLoadShiftingResult(
        application=application,
        region_names=region_names,
        routers=routers,
        total_carbon_g={r: res.total_carbon_g for r, res in results.items()},
        carbon_save_vs_static_pct={
            r: (1.0 - res.total_carbon_g / static_carbon) * 100.0
            for r, res in results.items()
        },
        accuracy_loss_pct={
            r: res.accuracy_loss_pct for r, res in results.items()
        },
        sla_attainment={r: res.sla_attainment for r, res in results.items()},
        request_shares={r: res.request_shares for r, res in results.items()},
        cache_hit_rate={
            r: res.cache_stats.hit_rate for r, res in results.items()
        },
    )


# --------------------------------------------------------------------- #
# Demand — geo-diurnal demand + forecast-driven routing (beyond the paper)
# --------------------------------------------------------------------- #

#: Demand-experiment defaults: how fast a region may gain share (admission
#: warm-up) and how fast resident sessions can be drained away, per hour.
DEMAND_RAMP_SHARE_PER_H = 0.10
DEMAND_DRAIN_SHARE_PER_H = 0.20
DEMAND_LOOKAHEAD_H = 6.0


@dataclass(frozen=True)
class DemandRoutingResult:
    """Routing-policy comparison under geo-diurnal demand.

    ``user_sla_attainment`` charges the network hop per (origin,
    serving-region) pair against the raw end-to-end target — the
    demand-layer metric a geo-DNS operator actually answers for.
    """

    application: str
    region_names: tuple[str, ...]
    origin_names: tuple[str, ...]
    routers: tuple[str, ...]
    total_carbon_g: dict[str, float]
    carbon_save_vs_static_pct: dict[str, float]
    accuracy_loss_pct: dict[str, float]
    user_sla_attainment: dict[str, float]
    mean_net_latency_ms: dict[str, float]
    request_shares: dict[str, dict[str, float]]
    origin_shares: dict[str, float]

    def table(self):
        headers = (
            "Router", "Carbon(g)", "SaveVsStatic%", "AccLoss%",
            "UserSLA%", "Net(ms)", "Busiest region",
        )
        rows = []
        for r in self.routers:
            shares = self.request_shares[r]
            busiest = max(shares, key=shares.get)
            rows.append(
                (
                    r,
                    f"{self.total_carbon_g[r]:,.0f}",
                    f"{self.carbon_save_vs_static_pct[r]:.2f}",
                    f"{self.accuracy_loss_pct[r]:.2f}",
                    f"{100 * self.user_sla_attainment[r]:.2f}",
                    f"{self.mean_net_latency_ms[r]:.1f}",
                    f"{busiest} ({100 * shares[busiest]:.1f}%)",
                )
            )
        return headers, rows


@experiment("demand", "geo-diurnal demand + forecast-driven proactive routing")
def demand_routing(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    application: str = "classification",
    region_names: tuple[str, ...] = ("us-ciso", "uk-eso", "apac-solar"),
    routers: tuple[str, ...] = ("static", "carbon-greedy", "forecast-aware"),
    scheme: str = "clover",
    n_gpus: int = 2,
    duration_h: float = 48.0,
    lookahead_h: float = DEMAND_LOOKAHEAD_H,
) -> DemandRoutingResult:
    """The geo-diurnal demand experiment: who should serve whom, and when.

    The default is *small* regional clusters (2 GPUs) on purpose: the SLA
    target is BASE's measured p95, which shrinks with cluster size, and
    the experiment's regime needs an end-to-end budget (~90 ms here) in
    which intercontinental hops (35-65 ms one-way-equivalent) are feasible
    but expensive.  At the paper's 10-GPU scale the budget (~35 ms) makes
    every cross-zone pair SLA-infeasible and the routers are pinned to
    serving origins at home — a real effect, but not the one under study.

    One nonstationary global workload — three population-weighted origins
    whose day curves sweep the planet — is routed over three grids whose
    solar troughs are phase-shifted by geography (the APAC trough leads
    the fleet clock by 8 hours).  Session-drain inertia and admission
    ramps make traffic placement a *commitment*, and the SLA is charged
    per (origin, serving-region) network hop.

    The expected shape: carbon-greedy beats the static geo-DNS split on
    carbon while its pair-aware cell planner (unlike the pair-blind static
    baseline) keeps user SLA attainment at or above the static baseline;
    the forecast-aware router matches or beats carbon-greedy on carbon by
    pre-positioning load ahead of predicted trough edges instead of
    discovering them after the drain-speed limit makes exits expensive.
    The forecast margin over myopic greedy is structurally modest with a
    fixed always-on GPU fleet (idle power dominates and does not follow
    traffic) — GPU power-gating is the ROADMAP follow-up that widens it.
    """
    runner = runner or ExperimentRunner()
    if "static" not in routers:
        raise ValueError("the router set must include 'static' (the baseline)")
    results = {
        r: runner.run_scenario(
            ScenarioSpec(
                regions=tuple(RegionSpec(name=n) for n in region_names),
                application=application,
                scheme=scheme,
                fidelity=fidelity,
                seed=seed,
                n_gpus=n_gpus,
                duration_h=duration_h,
                routing=RoutingSpec(
                    router=r,
                    lookahead_h=(
                        lookahead_h if r == "forecast-aware" else None
                    ),
                ),
                demand=DemandSpec(
                    kind="diurnal",
                    ramp_share_per_h=DEMAND_RAMP_SHARE_PER_H,
                    drain_share_per_h=DEMAND_DRAIN_SHARE_PER_H,
                ),
            )
        )
        for r in routers
    }
    static_carbon = results["static"].total_carbon_g
    return DemandRoutingResult(
        application=application,
        region_names=region_names,
        origin_names=results["static"].origin_names,
        routers=routers,
        total_carbon_g={r: res.total_carbon_g for r, res in results.items()},
        carbon_save_vs_static_pct={
            r: (1.0 - res.total_carbon_g / static_carbon) * 100.0
            for r, res in results.items()
        },
        accuracy_loss_pct={
            r: res.accuracy_loss_pct for r, res in results.items()
        },
        user_sla_attainment={
            r: res.user_sla_attainment for r, res in results.items()
        },
        mean_net_latency_ms={
            r: res.mean_net_latency_ms for r, res in results.items()
        },
        request_shares={r: res.request_shares for r, res in results.items()},
        origin_shares=results["static"].origin_request_shares,
    )


# --------------------------------------------------------------------- #
# Gating — elastic GPU capacity (beyond the paper)
# --------------------------------------------------------------------- #

#: The gating experiment's comparison rows: label -> (router, gating mode,
#: lookahead).  Reactive gating pairs with the myopic carbon-greedy router
#: (wake after the shortfall is observed); forecast-pre-wake pairs with the
#: forecast-aware router whose lookahead window files the pre-wakes.
GATING_ROWS: tuple[tuple[str, str, str | None, bool], ...] = (
    ("always-on/static", "static", None, False),
    ("always-on/greedy", "carbon-greedy", None, False),
    ("reactive/static", "static", "reactive", False),
    ("reactive/greedy", "carbon-greedy", "reactive", False),
    ("reactive/forecast", "forecast-aware", "reactive", True),
    ("prewake/forecast", "forecast-aware", "forecast", True),
)


@dataclass(frozen=True)
class GatingResult:
    """Elastic-capacity comparison under geo-diurnal demand.

    Each row is one (router, gating mode) pair; the headline properties
    compare the carbon-greedy-vs-static gap with and without gating (the
    gap is the shiftable margin — always-on fleets only shift dynamic
    power, gated fleets shift the idle draw too) and reactive gating
    against forecast-driven pre-waking.
    """

    application: str
    region_names: tuple[str, ...]
    labels: tuple[str, ...]
    total_carbon_g: dict[str, float]
    total_energy_j: dict[str, float]
    user_sla_attainment: dict[str, float]
    accuracy_loss_pct: dict[str, float]
    mean_awake_fraction: dict[str, float]

    @property
    def always_on_gap_pct(self) -> float:
        """Carbon-greedy's saving over static, both always-on (PR-2's gap)."""
        static = self.total_carbon_g["always-on/static"]
        greedy = self.total_carbon_g["always-on/greedy"]
        return (1.0 - greedy / static) * 100.0

    @property
    def gated_gap_pct(self) -> float:
        """The same gap with reactive gating enabled for both policies."""
        static = self.total_carbon_g["reactive/static"]
        greedy = self.total_carbon_g["reactive/greedy"]
        return (1.0 - greedy / static) * 100.0

    @property
    def gap_growth(self) -> float:
        """How many times gating multiplies the routing gap."""
        base = self.always_on_gap_pct
        return self.gated_gap_pct / base if base > 0 else float("inf")

    def table(self):
        headers = (
            "Mode/Router", "Carbon(g)", "Energy(kWh)", "AwakeGPU%",
            "UserSLA%", "AccLoss%",
        )
        rows = [
            (
                label,
                f"{self.total_carbon_g[label]:,.0f}",
                f"{self.total_energy_j[label] / 3.6e6:.2f}",
                f"{100 * self.mean_awake_fraction[label]:.1f}",
                f"{100 * self.user_sla_attainment[label]:.2f}",
                f"{self.accuracy_loss_pct[label]:.2f}",
            )
            for label in self.labels
        ]
        rows.append(
            (
                "gap on/gated",
                f"{self.always_on_gap_pct:.2f}% vs {self.gated_gap_pct:.2f}%",
                "-", "-", "-", "-",
            )
        )
        return headers, rows


@experiment("gating", "elastic GPU capacity: always-on vs reactive vs pre-wake")
def gating_elasticity(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    application: str = "classification",
    region_names: tuple[str, ...] = ("us-ciso", "uk-eso", "apac-solar"),
    scheme: str = "clover",
    n_gpus: int = 2,
    duration_h: float = 48.0,
    lookahead_h: float = DEMAND_LOOKAHEAD_H,
) -> GatingResult:
    """Elastic GPU capacity: always-on vs reactive vs forecast-pre-wake.

    The setup is the ``demand`` experiment's (same regions, diurnal
    demand, ramp/drain inertia, per-pair SLA charging); what varies is
    whether idle power follows traffic.  The expected shape:

    * The **static** split never drops a region low enough to gate — its
      reactive row reproduces its always-on row.  Gating without
      carbon-aware drain is worthless; the two levers compound.
    * The **carbon-greedy-vs-static gap** grows several-fold under
      gating: draining the dirty region now turns its idle draw off
      instead of leaving it burning coal, so routing finally moves the
      static margin, not just the dynamic one.
    * **Reactive gating** pays for its savings in SLA: wakes happen after
      the demand arrived, and the wake window serves at yesterday's
      capacity.  **Forecast pre-waking** files the wake one epoch early
      from the router's lookahead window — equal-or-lower carbon (its
      policy can afford deeper sleeps) at reactive-free SLA.
    """
    runner = runner or ExperimentRunner()
    results = {}
    for label, router, gating, needs_lookahead in GATING_ROWS:
        results[label] = runner.run_scenario(
            ScenarioSpec(
                regions=tuple(RegionSpec(name=n) for n in region_names),
                application=application,
                scheme=scheme,
                fidelity=fidelity,
                seed=seed,
                n_gpus=n_gpus,
                duration_h=duration_h,
                routing=RoutingSpec(
                    router=router,
                    lookahead_h=(lookahead_h if needs_lookahead else None),
                ),
                demand=DemandSpec(
                    kind="diurnal",
                    ramp_share_per_h=DEMAND_RAMP_SHARE_PER_H,
                    drain_share_per_h=DEMAND_DRAIN_SHARE_PER_H,
                ),
                gating=GatingSpec(mode=gating),
            )
        )
    labels = tuple(label for label, *_ in GATING_ROWS)
    return GatingResult(
        application=application,
        region_names=region_names,
        labels=labels,
        total_carbon_g={k: r.total_carbon_g for k, r in results.items()},
        total_energy_j={k: r.total_energy_j for k, r in results.items()},
        user_sla_attainment={
            k: r.user_sla_attainment for k, r in results.items()
        },
        accuracy_loss_pct={k: r.accuracy_loss_pct for k, r in results.items()},
        mean_awake_fraction={
            k: r.mean_awake_fraction for k, r in results.items()
        },
    )


# --------------------------------------------------------------------- #
# Hetero — heterogeneous GPU fleets (beyond the paper)
# --------------------------------------------------------------------- #

#: The hetero experiment's default fleet: the demand/gating regions, with
#: the dirty phase-shifted APAC grid provisioned with low-power L4
#: inference cards while the A100 regions keep MIG.  (EcoServe-style mixed
#: provisioning: cheap efficient silicon where the grid is worst.)
HETERO_DEVICES: tuple[str, ...] = ("a100", "a100", "l4")

#: Per-wake transition energy for gated hetero fleets.  Per-profile wake
#: energies (``DeviceProfile.wake_energy_j``) now make an override
#: unnecessary, but this experiment keeps its historical fleet-wide 1 kJ
#: scalar — which fits every registered device — so its calibrated
#: benchmark bands stay comparable across PRs.
HETERO_WAKE_ENERGY_J = 1000.0

#: Comparison rows: label -> (router, efficiency_weighted, needs lookahead).
HETERO_ROWS: tuple[tuple[str, str, bool, bool], ...] = (
    ("static", "static", True, False),
    ("greedy/intensity", "carbon-greedy", False, False),
    ("greedy/efficiency", "carbon-greedy", True, False),
    ("forecast/efficiency", "forecast-aware", True, True),
)


@dataclass(frozen=True)
class HeteroResult:
    """Efficiency-aware vs intensity-only routing on mixed silicon.

    The headline property is :attr:`efficiency_saving_pct`: how much fleet
    carbon efficiency-aware carbon-greedy saves over the intensity-only
    ranking on the *same* fleet — the value of pricing silicon, not just
    grids, into the routing decision.
    """

    application: str
    region_names: tuple[str, ...]
    region_devices: tuple[str, ...]
    labels: tuple[str, ...]
    total_carbon_g: dict[str, float]
    total_energy_j: dict[str, float]
    user_sla_attainment: dict[str, float]
    accuracy_loss_pct: dict[str, float]
    mean_awake_fraction: dict[str, float]
    request_shares: dict[str, dict[str, float]]

    @property
    def efficiency_saving_pct(self) -> float:
        """Carbon saved by pricing silicon into the greedy ranking."""
        intensity = self.total_carbon_g["greedy/intensity"]
        efficiency = self.total_carbon_g["greedy/efficiency"]
        return (1.0 - efficiency / intensity) * 100.0

    def table(self):
        headers = (
            "Router", "Carbon(g)", "Energy(kWh)", "AwakeGPU%",
            "UserSLA%", "AccLoss%", "Busiest region",
        )
        rows = []
        for label in self.labels:
            shares = self.request_shares[label]
            busiest = max(shares, key=shares.get)
            rows.append(
                (
                    label,
                    f"{self.total_carbon_g[label]:,.0f}",
                    f"{self.total_energy_j[label] / 3.6e6:.2f}",
                    f"{100 * self.mean_awake_fraction[label]:.1f}",
                    f"{100 * self.user_sla_attainment[label]:.2f}",
                    f"{self.accuracy_loss_pct[label]:.2f}",
                    f"{busiest} ({100 * shares[busiest]:.1f}%)",
                )
            )
        rows.append(
            (
                "efficiency gain",
                f"{self.efficiency_saving_pct:.2f}% vs intensity-only",
                "-", "-", "-", "-", "-",
            )
        )
        return headers, rows


@experiment("hetero", "heterogeneous GPU fleets: efficiency-aware vs intensity routing")
def hetero_fleet(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    application: str = "classification",
    region_names: tuple[str, ...] = ("us-ciso", "uk-eso", "apac-solar"),
    devices: tuple[str, ...] = HETERO_DEVICES,
    scheme: str = "clover",
    n_gpus: int = 2,
    duration_h: float = 48.0,
    lookahead_h: float = DEMAND_LOOKAHEAD_H,
) -> HeteroResult:
    """Heterogeneous silicon: route by gCO2/request, not gCO2/kWh.

    The setup composes the ``demand`` and ``gating`` experiments (diurnal
    geo-origin demand, ramp/drain inertia, per-pair SLA charging, reactive
    power-gating) on a fleet whose regions run *different GPU
    generations*: the APAC region — the dirtiest grid — is provisioned
    with low-power L4 inference cards, the others with MIG-capable A100s.

    Carbon per request is grid intensity *times* joules per request, and
    the joules now differ per region: an L4 request is dynamically cheap
    but its unpartitionable GPU amortizes static draw poorly, while a
    MIG-partitioned A100 serving small variants is leaner than its BASE
    spec sheet suggests.  The intensity-only ranking (the pre-PR-4
    carbon-greedy, ``greedy/intensity``) sees none of this; the
    efficiency-aware ranking multiplies each region's intensity by its
    deployed configuration's marginal joules/request (static amortization
    included once gating makes idle power follow traffic).

    Expected shape: ``greedy/efficiency`` achieves strictly lower fleet
    carbon than ``greedy/intensity`` at equal-or-better user SLA — the
    benchmark's acceptance bar — and the forecast-aware row composes the
    efficiency ranking with lookahead pre-positioning.
    """
    from repro.gpu.profiles import parse_region_devices

    runner = runner or ExperimentRunner()
    if len(devices) != len(region_names):
        raise ValueError(
            f"{len(devices)} device specs for {len(region_names)} regions"
        )
    regions = tuple(
        RegionSpec(name=n, devices=parse_region_devices(d))
        for n, d in zip(region_names, devices)
    )
    results = {}
    for label, router, efficiency, needs_lookahead in HETERO_ROWS:
        results[label] = runner.run_scenario(
            ScenarioSpec(
                regions=regions,
                application=application,
                scheme=scheme,
                fidelity=fidelity,
                seed=seed,
                n_gpus=n_gpus,
                duration_h=duration_h,
                routing=RoutingSpec(
                    router=router,
                    lookahead_h=(lookahead_h if needs_lookahead else None),
                    efficiency_weighted=efficiency,
                ),
                demand=DemandSpec(
                    kind="diurnal",
                    ramp_share_per_h=DEMAND_RAMP_SHARE_PER_H,
                    drain_share_per_h=DEMAND_DRAIN_SHARE_PER_H,
                ),
                gating=GatingSpec(
                    mode="reactive", wake_energy_j=HETERO_WAKE_ENERGY_J
                ),
            )
        )
    labels = tuple(label for label, *_ in HETERO_ROWS)
    return HeteroResult(
        application=application,
        region_names=region_names,
        region_devices=devices,
        labels=labels,
        total_carbon_g={k: r.total_carbon_g for k, r in results.items()},
        total_energy_j={k: r.total_energy_j for k, r in results.items()},
        user_sla_attainment={
            k: r.user_sla_attainment for k, r in results.items()
        },
        accuracy_loss_pct={k: r.accuracy_loss_pct for k, r in results.items()},
        mean_awake_fraction={
            k: r.mean_awake_fraction for k, r in results.items()
        },
        request_shares={k: r.request_shares for k, r in results.items()},
    )


# --------------------------------------------------------------------- #
# Sec. 5.2.1 — physical-significance estimate
# --------------------------------------------------------------------- #

#: EPA greenhouse-gas equivalencies (the paper's reference [63]).
KG_CO2_PER_CAR_KM = 0.25
KG_CO2_PER_KG_COAL = 2.0


@dataclass(frozen=True)
class SavingsEstimate:
    saving_g_per_request: float
    requests_per_day: float
    kg_co2_per_day: float
    car_km_equivalent: float
    coal_kg_equivalent: float

    def table(self):
        headers = ("Quantity", "Value")
        rows = (
            ("saving per request", f"{self.saving_g_per_request:.2e} gCO2"),
            ("requests per day", f"{self.requests_per_day:.0f}"),
            ("daily saving", f"{self.kg_co2_per_day:.1f} kg CO2"),
            ("gasoline-car equivalent", f"{self.car_km_equivalent:.0f} km"),
            ("coal equivalent", f"{self.coal_kg_equivalent:.1f} kg"),
        )
        return headers, rows


@experiment("savings", "the Sec. 5.2.1 back-of-the-envelope daily-savings estimate")
def savings_estimate(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    requests_per_day: float = 25e6,
    us_avg_ci: float = 380.0,
    pue: float = DEFAULT_PUE,
) -> SavingsEstimate:
    """Sec. 5.2.1's back-of-the-envelope: daily savings at US scale.

    Takes the measured per-request energy saving of Clover vs BASE
    (averaged across the three applications), converts at the US-average
    carbon intensity and the paper's PUE, and expresses the result in the
    paper's physical equivalents.
    """
    runner = runner or ExperimentRunner()
    matrix = runner.run_matrix(
        ("base", "clover"), fidelity=fidelity, seed=seed
    )
    savings_j = []
    for app in APPLICATIONS_UNDER_TEST:
        base, clover = matrix[(app, "base")], matrix[(app, "clover")]
        e_base = base.total_energy_j / base.total_requests
        e_clover = clover.total_energy_j / clover.total_requests
        savings_j.append(e_base - e_clover)
    saving_g = carbon_grams(float(np.mean(savings_j)), us_avg_ci, pue)
    kg_day = saving_g * requests_per_day / 1e3
    return SavingsEstimate(
        saving_g_per_request=saving_g,
        requests_per_day=requests_per_day,
        kg_co2_per_day=kg_day,
        car_km_equivalent=kg_day / KG_CO2_PER_CAR_KM,
        coal_kg_equivalent=kg_day / KG_CO2_PER_KG_COAL,
    )


# --------------------------------------------------------------------- #
# Shifting — temporal load shifting (beyond the paper)
# --------------------------------------------------------------------- #

#: The shifting experiment's deferrable workload: ~16% of the default
#: two-region fleet's nominal rate (about half its leftover capacity
#: envelope, so deadlines stay feasible), each job a hundred-request
#: rescoring lot due within eight hours of arriving.
SHIFTING_JOBS_PER_H = 432.0
SHIFTING_REQUESTS_PER_JOB = 100.0
SHIFTING_DEADLINE_H = 8.0

#: Comparison rows: label -> (router, batch?, defer?, gating mode).
#: ``spatial-only`` admits every lot the epoch it arrives (the carbon
#: lever is *where*); ``temporal-only`` keeps the static split (the lever
#: is *when*); ``joint`` runs both.  The gated pair is the headline
#: interplay: ``gated no-batch`` sleeps GPUs through demand valleys,
#: ``joint+gating`` shows batch holds keeping them awake — but *clean*.
SHIFTING_ROWS: tuple[tuple[str, str, bool, bool, str | None], ...] = (
    ("no-batch", "carbon-greedy", False, True, None),
    ("spatial-only", "carbon-greedy", True, False, None),
    ("temporal-only", "static", True, True, None),
    ("joint", "carbon-greedy", True, True, None),
    ("gated no-batch", "carbon-greedy", False, True, "reactive"),
    ("joint+gating", "carbon-greedy", True, True, "reactive"),
)


@dataclass(frozen=True)
class ShiftingResult:
    """Spatial-only vs temporal-only vs joint shifting of batch work.

    The headline property is :attr:`joint_saving_vs_spatial_pct` — the
    fleet carbon the temporal scheduler saves over admitting the *same*
    batch workload the epoch it arrives — plus the guarantee columns:
    batch deadline attainment and interactive SLA, neither of which joint
    shifting may degrade.
    """

    application: str
    region_names: tuple[str, ...]
    labels: tuple[str, ...]
    total_carbon_g: dict[str, float]
    sla_attainment: dict[str, float]
    accuracy_loss_pct: dict[str, float]
    batch_attainment: dict[str, float]
    batch_completed: dict[str, float]
    batch_carbon_g_per_request: dict[str, float]
    mean_shift_h: dict[str, float]
    mean_awake_fraction: dict[str, float]

    @property
    def joint_saving_vs_spatial_pct(self) -> float:
        """Fleet carbon saved by shifting *when*, on top of *where*."""
        spatial = self.total_carbon_g["spatial-only"]
        joint = self.total_carbon_g["joint"]
        return (1.0 - joint / spatial) * 100.0

    @property
    def min_batch_attainment(self) -> float:
        """Worst batch deadline attainment across rows that ran batch."""
        decided = [
            v for v in self.batch_attainment.values() if np.isfinite(v)
        ]
        return min(decided) if decided else float("nan")

    def table(self):
        headers = (
            "Scenario", "Carbon(g)", "SLA%", "AccLoss%",
            "BatchReq", "BatchOnTime%", "Batch g/req", "Shift(h)", "Awake%",
        )
        rows = []
        for label in self.labels:
            batch_att = self.batch_attainment[label]
            has_batch = np.isfinite(batch_att)
            rows.append(
                (
                    label,
                    f"{self.total_carbon_g[label]:,.0f}",
                    f"{100 * self.sla_attainment[label]:.1f}",
                    f"{self.accuracy_loss_pct[label]:.2f}",
                    f"{self.batch_completed[label]:,.0f}" if has_batch else "-",
                    f"{100 * batch_att:.1f}" if has_batch else "-",
                    (
                        f"{self.batch_carbon_g_per_request[label]:.2e}"
                        if has_batch
                        else "-"
                    ),
                    f"{self.mean_shift_h[label]:.2f}" if has_batch else "-",
                    f"{100 * self.mean_awake_fraction[label]:.1f}",
                )
            )
        rows.append(
            (
                "joint vs spatial",
                f"{self.joint_saving_vs_spatial_pct:.2f}% saved",
                "-", "-", "-", "-", "-", "-", "-",
            )
        )
        return headers, rows


@experiment("shifting", "temporal load shifting: deferrable batch into clean epochs")
def temporal_shifting(
    runner: ExperimentRunner | None = None,
    fidelity: str = "default",
    seed: int = 0,
    application: str = "classification",
    region_names: tuple[str, ...] = ("nordic-hydro", "us-ciso"),
    scheme: str = "clover",
    n_gpus: int = 2,
    duration_h: float = 48.0,
    jobs_per_h: float = SHIFTING_JOBS_PER_H,
    requests_per_job: float = SHIFTING_REQUESTS_PER_JOB,
    deadline_h: float = SHIFTING_DEADLINE_H,
) -> ShiftingResult:
    """Temporal load shifting: the *when* lever next to the *where* lever.

    One deferrable batch class rides the diurnal interactive workload on
    a clean/dirty two-region fleet.  The expected shape:

    * **spatial-only** (admit on arrival) already prices batch into the
      cleanest *region* with leftover capacity, but must take whatever
      the grid looks like when a lot lands.
    * **joint** holds lots back until the forecast says the window is
      clean (or the deadline forces them), so fleet carbon drops below
      spatial-only at the *same* 100% deadline attainment and no
      interactive SLA loss.
    * **gated no-batch** vs **joint+gating** is the headline interplay:
      reactive gating sleeps GPUs through demand valleys, and the
      scheduler's hold hints keep them awake exactly where the batch
      backlog needs the clean window — batch work keeps the fleet awake
      but *clean*.
    """
    runner = runner or ExperimentRunner()
    results = {}
    for label, router, has_batch, defer, gating in SHIFTING_ROWS:
        results[label] = runner.run_scenario(
            ScenarioSpec(
                regions=tuple(RegionSpec(name=n) for n in region_names),
                application=application,
                scheme=scheme,
                fidelity=fidelity,
                seed=seed,
                n_gpus=n_gpus,
                duration_h=duration_h,
                routing=RoutingSpec(router=router),
                demand=DemandSpec(
                    kind="diurnal",
                    ramp_share_per_h=DEMAND_RAMP_SHARE_PER_H,
                    drain_share_per_h=DEMAND_DRAIN_SHARE_PER_H,
                ),
                gating=GatingSpec(mode=gating),
                batch=(
                    BatchSpec(
                        jobs_per_h=jobs_per_h,
                        requests_per_job=requests_per_job,
                        deadline_h=deadline_h,
                        defer=(None if defer else False),
                    )
                    if has_batch
                    else BatchSpec()
                ),
            )
        )
    labels = tuple(label for label, *_ in SHIFTING_ROWS)
    return ShiftingResult(
        application=application,
        region_names=region_names,
        labels=labels,
        total_carbon_g={k: r.total_carbon_g for k, r in results.items()},
        sla_attainment={k: r.sla_attainment for k, r in results.items()},
        accuracy_loss_pct={
            k: r.accuracy_loss_pct for k, r in results.items()
        },
        batch_attainment={
            k: (r.batch_deadline_attainment if r.has_batch else float("nan"))
            for k, r in results.items()
        },
        batch_completed={
            k: (r.batch_completed_requests if r.has_batch else float("nan"))
            for k, r in results.items()
        },
        batch_carbon_g_per_request={
            k: (r.batch_carbon_g_per_request if r.has_batch else float("nan"))
            for k, r in results.items()
        },
        mean_shift_h={
            k: (r.mean_shift_h if r.has_batch else float("nan"))
            for k, r in results.items()
        },
        mean_awake_fraction={
            k: r.mean_awake_fraction for k, r in results.items()
        },
    )


#: Registry for the CLI: experiment name -> callable(runner, fidelity, seed).
#: Populated by the ``@experiment`` decorations above (each entry is a
#: :class:`repro.scenarios.registry.Experiment`, callable with the same
#: three arguments the historical lambdas took).
EXPERIMENT_REGISTRY = experiment_registry()
