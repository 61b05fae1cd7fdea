"""The Clover master controller: monitor → optimize → deploy → account.

Drives one scheme over a carbon-intensity trace in fixed epochs (Fig. 5's
control loop).  Each epoch:

1. read the grid carbon intensity,
2. if the scheme is carbon-aware and the 5% trigger fires, run its
   optimization — every candidate it evaluates serves live traffic for its
   virtual reconfigure+measure window, and those windows are charged
   against the epoch (energy, accuracy, SLA compliance of *candidates*
   included, exactly as the paper reports),
3. serve the rest of the epoch on the deployed configuration, measured by
   the DES-backed evaluator,
4. account energy → carbon at the epoch's carbon intensity.

The per-epoch records carry everything the paper's figures need: the Eq. 3
objective timeline (Fig. 11), optimization-time fractions (Fig. 12a),
candidate SLA outcomes (Fig. 12b), and per-invocation candidate
trajectories (Fig. 13).

The loop is exposed at two granularities: :meth:`ServiceController.run`
drives a whole trace (the single-cluster paper setup), while
:meth:`~ServiceController.begin_run` / :meth:`~ServiceController.step` /
:meth:`~ServiceController.finalize` let an external driver — the fleet
coordinator — advance one epoch at a time with a per-epoch arrival rate
(geographically routed load).  ``run`` is implemented on top of the
step-wise API, so both paths execute identical arithmetic.

Elastic capacity enters through the optional :class:`EpochCapacity` a
driver may pass to :meth:`~ServiceController.step`: it carries the epoch's
awake-GPU count (candidate and measurement evaluations are capped to the
awake subset), the wake-up window of any reactively-woken GPUs (the epoch
is accounted part at the pre-wake capacity, part at the post-wake
capacity), and auxiliary energy the driver charges on top (sleeping GPUs'
reduced static draw, wake transitions).  Without it — the seed path —
nothing changes, bit for bit.  A routed rate of exactly zero (a region
fully drained while its GPUs sleep) is legal: the epoch serves nothing and
pays only the powered static draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.carbon.accounting import DEFAULT_PUE, carbon_grams
from repro.carbon.monitor import CarbonIntensityMonitor
from repro.core.evaluator import CacheStats, ConfigEvaluator
from repro.core.objective import ObjectiveSpec
from repro.core.schemes import Scheme
from repro.utils.stats import weighted_mean

__all__ = [
    "CandidateRecord",
    "InvocationRecord",
    "EpochCapacity",
    "EpochRecord",
    "RunResult",
    "ServiceController",
]

#: An optimization window may consume at most this share of its epoch (the
#: paper's 5-minute SA budget always fits a 10-minute epoch; this guard only
#: matters for very coarse smoke-test epochs).
_MAX_EXPLORE_FRACTION = 0.9


@dataclass(frozen=True)
class EpochCapacity:
    """One epoch's elastic-capacity state, handed to :meth:`~ServiceController.step`.

    Attributes
    ----------
    awake_gpus:
        GPUs online by the end of the epoch; all evaluations (candidates
        and measurements) are capped to this subset.
    serving_gpus_at_start:
        GPUs that were already online when the epoch began (defaults to
        ``awake_gpus``).  When smaller, the difference was woken
        *reactively* this epoch and comes online only after
        ``wake_delay_s`` — the epoch's stable window is accounted at the
        start capacity for that long.
    wake_delay_s:
        How long reactively-woken GPUs take to come online.
    aux_energy_j:
        Energy the driver charges on top of the serving cluster's draw:
        sleeping GPUs' sleep-state watts over the epoch plus wake
        transition energy.  Converted to carbon at the epoch's intensity.
    """

    awake_gpus: int
    serving_gpus_at_start: int | None = None
    wake_delay_s: float = 0.0
    aux_energy_j: float = 0.0

    def __post_init__(self) -> None:
        if self.awake_gpus < 1:
            raise ValueError(f"awake GPUs must be >= 1, got {self.awake_gpus}")
        start = self.start_gpus
        if not 1 <= start <= self.awake_gpus:
            raise ValueError(
                f"serving GPUs at start must be in [1, {self.awake_gpus}], "
                f"got {start}"
            )
        if self.wake_delay_s < 0 or self.aux_energy_j < 0:
            raise ValueError("wake delay and auxiliary energy must be non-negative")

    @property
    def start_gpus(self) -> int:
        """Capacity online at epoch start (before reactive wakes land)."""
        return (
            self.awake_gpus
            if self.serving_gpus_at_start is None
            else self.serving_gpus_at_start
        )


@dataclass(frozen=True)
class CandidateRecord:
    """One configuration evaluated during an optimization invocation."""

    order: int
    delta_accuracy_pct: float
    delta_carbon_pct: float
    f: float
    sla_met: bool
    virtual_cost_s: float


@dataclass(frozen=True)
class InvocationRecord:
    """One optimization invocation (Fig. 13's unit of analysis)."""

    index: int
    t_h: float
    ci: float
    num_evaluations: int
    cost_s: float
    termination: str
    candidates: tuple[CandidateRecord, ...]
    deployed_label: str

    @property
    def sla_met_count(self) -> int:
        return sum(1 for c in self.candidates if c.sla_met)

    @property
    def sla_violated_count(self) -> int:
        return len(self.candidates) - self.sla_met_count


@dataclass(frozen=True)
class EpochRecord:
    """Accounting of one control epoch."""

    index: int
    t_h: float
    duration_s: float
    ci: float
    config_label: str
    num_instances: int
    requests: float
    energy_j: float
    carbon_g: float
    accuracy: float
    p95_ms: float
    sla_met: bool
    f_objective: float
    delta_accuracy_pct: float
    delta_carbon_pct: float
    optimized: bool
    optimization_s: float
    num_evaluations: int
    #: Arrival rate served this epoch (0.0 in records predating routing).
    rate_per_s: float = 0.0
    #: GPUs awake this epoch (``None``: no gating — the whole cluster).
    awake_gpus: int | None = None


@dataclass
class RunResult:
    """Everything measured over one scheme x trace x application run."""

    scheme_name: str
    family: str
    application: str
    n_gpus: int
    rate_per_s: float
    sla_target_ms: float
    lambda_weight: float
    a_base: float
    c_base: float
    trace_name: str
    epochs: list[EpochRecord] = field(default_factory=list)
    invocations: list[InvocationRecord] = field(default_factory=list)
    #: Cache counters of the DES measurement evaluator (set by finalize).
    measure_cache: CacheStats | None = None
    #: Cache counters of the scheme's optimization evaluator (set by finalize).
    opt_cache: CacheStats | None = None

    # ------------------------------------------------------------------ #
    # totals
    # ------------------------------------------------------------------ #

    @property
    def duration_h(self) -> float:
        return sum(e.duration_s for e in self.epochs) / 3600.0

    @property
    def total_requests(self) -> float:
        return sum(e.requests for e in self.epochs)

    @property
    def total_energy_j(self) -> float:
        return sum(e.energy_j for e in self.epochs)

    @property
    def total_carbon_g(self) -> float:
        return sum(e.carbon_g for e in self.epochs)

    @property
    def carbon_g_per_request(self) -> float:
        """Total carbon over total requests (NaN for a zero-traffic run).

        Gated fleets can drain a region to zero requests while its static
        draw still emits, so the ratio is undefined rather than infinite
        or an exception.
        """
        total = self.total_requests
        return self.total_carbon_g / total if total > 0 else float("nan")

    @property
    def mean_accuracy(self) -> float:
        """Request-weighted accuracy over the whole run (NaN if no traffic)."""
        if self.total_requests <= 0:
            return float("nan")
        return weighted_mean(
            [e.accuracy for e in self.epochs], [e.requests for e in self.epochs]
        )

    @property
    def accuracy_loss_pct(self) -> float:
        """Positive percent loss vs ``A_base`` (the paper's Fig. 9 metric)."""
        return (self.a_base - self.mean_accuracy) / self.a_base * 100.0

    @property
    def p95_ms(self) -> float:
        """Request-weighted mean of per-epoch p95 measurements.

        Epoch latency distributions are near-stationary, so this tracks the
        pooled service p95 closely; the exact pooled value lies between this
        and :attr:`worst_p95_ms`.
        """
        finite = [e for e in self.epochs if np.isfinite(e.p95_ms)]
        if not finite:
            return float("inf")
        return weighted_mean(
            [e.p95_ms for e in finite], [e.requests for e in finite]
        )

    @property
    def worst_p95_ms(self) -> float:
        """Worst measured epoch p95 (zero-traffic epochs have none)."""
        measured = [e.p95_ms for e in self.epochs if not np.isnan(e.p95_ms)]
        return max(measured) if measured else float("nan")

    @property
    def sla_violation_fraction(self) -> float:
        """Fraction of requests served in epochs whose p95 broke the SLA."""
        total = self.total_requests
        if total <= 0:
            return 0.0
        bad = sum(e.requests for e in self.epochs if not e.sla_met)
        return bad / total

    # ------------------------------------------------------------------ #
    # optimization overhead (Fig. 12)
    # ------------------------------------------------------------------ #

    @property
    def total_optimization_s(self) -> float:
        return sum(e.optimization_s for e in self.epochs)

    @property
    def optimization_fraction(self) -> float:
        """Share of the run spent optimizing (Fig. 12a's headline number)."""
        total_s = sum(e.duration_s for e in self.epochs)
        return self.total_optimization_s / total_s if total_s else 0.0

    def optimization_fraction_by_window(self, window_h: float = 8.0) -> list[float]:
        """Fig. 12a's per-window breakdown of optimization time."""
        if window_h <= 0:
            raise ValueError(f"window must be positive, got {window_h}")
        buckets: dict[int, list[float]] = {}
        for e in self.epochs:
            b = int(e.t_h // window_h)
            buckets.setdefault(b, [0.0, 0.0])
            buckets[b][0] += e.optimization_s
            buckets[b][1] += e.duration_s
        return [
            buckets[b][0] / buckets[b][1] for b in sorted(buckets)
        ]

    @property
    def total_evaluations(self) -> int:
        return sum(i.num_evaluations for i in self.invocations)

    @property
    def evaluations_sla_met(self) -> int:
        return sum(i.sla_met_count for i in self.invocations)

    @property
    def evaluations_sla_violated(self) -> int:
        return sum(i.sla_violated_count for i in self.invocations)

    # ------------------------------------------------------------------ #
    # time series (Figs. 11, 13)
    # ------------------------------------------------------------------ #

    def objective_series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(t_h, f)`` — the Eq. 3 objective of the deployed config."""
        t = np.array([e.t_h for e in self.epochs])
        f = np.array([e.f_objective for e in self.epochs])
        return t, f

    def carbon_series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(t_h, gCO2)`` emitted per epoch."""
        t = np.array([e.t_h for e in self.epochs])
        c = np.array([e.carbon_g for e in self.epochs])
        return t, c


class ServiceController:
    """Runs one scheme over a trace with full epoch accounting."""

    def __init__(
        self,
        scheme: Scheme,
        objective: ObjectiveSpec,
        monitor: CarbonIntensityMonitor,
        measure_evaluator: ConfigEvaluator,
        rate_per_s: float,
        application: str,
        step_s: float = 600.0,
        pue: float = DEFAULT_PUE,
    ) -> None:
        if step_s <= 0:
            raise ValueError(f"epoch step must be positive, got {step_s}")
        if measure_evaluator.family != scheme.family:
            raise ValueError("measure evaluator and scheme families differ")
        self.scheme = scheme
        self.objective = objective
        self.monitor = monitor
        self.measure_evaluator = measure_evaluator
        self.rate_per_s = rate_per_s
        self.application = application
        self.step_s = step_s
        self.pue = pue
        self._deployed = None

    @property
    def deployed(self):
        """The currently deployed configuration (``None`` before warm-up)."""
        return self._deployed

    def n_epochs(self, duration_h: float) -> int:
        """How many control epochs a run of ``duration_h`` hours spans."""
        if duration_h <= 0:
            raise ValueError(f"duration must be positive, got {duration_h}")
        return max(1, int(round(duration_h * 3600.0 / self.step_s)))

    def begin_run(self) -> RunResult:
        """Start a fresh run: empty result, no deployed configuration.

        The scheme forgets its per-run state too (RNG substream index,
        warm start), so a second run of the same controller replays the
        first bit for bit.
        """
        self._deployed = None
        self.scheme.reset()
        return RunResult(
            scheme_name=self.scheme.name,
            family=self.scheme.family,
            application=self.application,
            n_gpus=self.scheme.n_gpus,
            rate_per_s=self.rate_per_s,
            sla_target_ms=self.objective.sla.p95_target_ms,
            lambda_weight=self.objective.lambda_weight,
            a_base=self.objective.a_base,
            c_base=self.objective.c_base,
            trace_name=self.monitor.trace.name,
        )

    def step(
        self,
        result: RunResult,
        index: int,
        t_h: float,
        rate_per_s: float | None = None,
        capacity: EpochCapacity | None = None,
    ) -> EpochRecord:
        """Advance one control epoch at trace time ``t_h``.

        ``rate_per_s`` overrides the construction-time arrival rate for this
        epoch only (a fleet router's per-epoch traffic assignment); ``None``
        serves the nominal rate, which is exactly the single-cluster loop.
        ``capacity`` is the epoch's elastic-capacity state (awake GPUs,
        wake window, auxiliary sleep/wake energy); ``None`` — the seed
        path — runs the whole cluster, untouched.
        """
        if capacity is not None:
            self._set_awake_evaluators(capacity.awake_gpus)
        elif self.measure_evaluator.awake_gpus is not None:
            # A previous gated epoch left the cap behind; clear it so an
            # ungated step is indistinguishable from the seed loop.
            self._set_awake_evaluators(None)
        ci = self.monitor.observe(t_h)

        optimized = False
        opt_s = 0.0
        evaluated = ()
        if self._deployed is None or (
            self.scheme.reoptimizes and self.monitor.should_trigger(t_h)
        ):
            outcome = self.scheme.optimize(ci, self._deployed)
            self.monitor.mark_optimized(t_h)
            self._deployed = outcome.deployed
            optimized = True
            opt_s = outcome.virtual_cost_s
            evaluated = outcome.evaluated
            result.invocations.append(
                self._invocation_record(len(result.invocations), t_h, ci, outcome)
            )

        record = self._account_epoch(
            index, t_h, ci, self._deployed, optimized, opt_s, evaluated,
            rate_per_s, capacity,
        )
        result.epochs.append(record)
        return record

    def _set_awake_evaluators(self, awake_gpus: int | None) -> None:
        """Cap (or uncap) both evaluators to the awake GPU subset."""
        self.measure_evaluator.set_awake_gpus(awake_gpus)
        opt_evaluator = getattr(self.scheme, "evaluator", None)
        if opt_evaluator is not None:
            opt_evaluator.set_awake_gpus(awake_gpus)

    def finalize(self, result: RunResult) -> RunResult:
        """Attach end-of-run bookkeeping (evaluator cache counters)."""
        result.measure_cache = self.measure_evaluator.cache_stats
        opt_evaluator = getattr(self.scheme, "evaluator", None)
        if opt_evaluator is not None:
            result.opt_cache = opt_evaluator.cache_stats
        return result

    def run(self, duration_h: float) -> RunResult:
        """Execute the control loop for ``duration_h`` hours of the trace."""
        n_epochs = self.n_epochs(duration_h)
        result = self.begin_run()
        for i in range(n_epochs):
            t_h = i * self.step_s / 3600.0
            self.step(result, i, t_h)
        return self.finalize(result)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _invocation_record(self, index, t_h, ci, outcome) -> InvocationRecord:
        candidates = tuple(
            CandidateRecord(
                order=k,
                delta_accuracy_pct=c.value.delta_accuracy_pct,
                delta_carbon_pct=c.value.delta_carbon_pct,
                f=c.value.f,
                sla_met=c.value.sla_met,
                virtual_cost_s=c.virtual_cost_s,
            )
            for k, c in enumerate(outcome.evaluated)
        )
        return InvocationRecord(
            index=index,
            t_h=t_h,
            ci=ci,
            num_evaluations=outcome.num_evaluations,
            cost_s=outcome.virtual_cost_s,
            termination=outcome.termination,
            candidates=candidates,
            deployed_label=str(outcome.deployed.partition_ids),
        )

    def _account_epoch(
        self, index, t_h, ci, deployed, optimized, opt_s, evaluated,
        rate_per_s=None, capacity=None,
    ) -> EpochRecord:
        rate = self.rate_per_s if rate_per_s is None else rate_per_s
        explore_s = min(opt_s, _MAX_EXPLORE_FRACTION * self.step_s)
        stable_s = self.step_s - explore_s

        energy_j = 0.0
        acc_weighted = 0.0
        requests = 0.0

        # Exploration windows: candidates serve live traffic while measured.
        if evaluated and explore_s > 0:
            total_cost = sum(c.virtual_cost_s for c in evaluated)
            scale = explore_s / total_cost if total_cost > 0 else 0.0
            for cand in evaluated:
                dt = cand.virtual_cost_s * scale
                r = rate * dt
                energy_j += cand.evaluation.power_watts * dt
                acc_weighted += cand.evaluation.accuracy * r
                requests += r

        if rate <= 0.0:
            # Zero-traffic epoch (a gated region fully drained): nothing is
            # served or measured, only the powered static draw is paid.
            n_powered = (
                capacity.awake_gpus if capacity is not None else self.scheme.n_gpus
            )
            energy_j += self.measure_evaluator.static_watts(n_powered) * stable_s
            p95_ms = float("nan")
            if capacity is None or n_powered >= deployed.n_gpus:
                num_instances = deployed.num_instances
            else:
                # Consistent with the gated branches: count only the
                # instances hosted on awake GPUs (first canonical subset).
                num_instances = sum(
                    a.partition.num_instances
                    for a in deployed.canonical().assignments[:n_powered]
                )
            sla_met, f, d_acc, d_carbon = True, 0.0, 0.0, 0.0
        elif (
            capacity is not None
            and capacity.wake_delay_s > 0.0
            and capacity.start_gpus < capacity.awake_gpus
        ):
            # Reactive wake: the epoch starts at the pre-wake capacity and
            # gains the woken GPUs only after the wake window — the real
            # price of scaling capacity after the demand already arrived.
            wake_s = min(capacity.wake_delay_s, stable_s)
            pre = self._evaluate_capped(deployed, rate, capacity.start_gpus)
            post = self._evaluate_capped(deployed, rate, capacity.awake_gpus)
            r_pre, r_post = rate * wake_s, rate * (stable_s - wake_s)
            # Energy is deterministic: the post-wake cluster's draw for the
            # whole window, minus the still-waking GPUs' static during the
            # wake window — their ramp draw is the driver's wake transition
            # energy (aux_energy_j), bounded by that same static floor, so
            # a gated epoch can never out-spend its always-on twin.
            ev = self.measure_evaluator
            waking_w = ev.static_watts(capacity.awake_gpus) - ev.static_watts(
                capacity.start_gpus
            )
            e_stable = post.power_watts * stable_s - waking_w * wake_s
            energy_j += e_stable
            acc_weighted += pre.accuracy * r_pre + post.accuracy * r_post
            requests += r_pre + r_post
            # Request-weighted tail across the two windows, with the wake
            # window measured on the *pre-wake* capacity; an overloaded
            # wake window (p95 = inf) poisons the whole epoch's SLA, which
            # is exactly the conservatism reactive gating must answer for.
            p95_ms = (pre.p95_ms * r_pre + post.p95_ms * r_post) / (r_pre + r_post)
            num_instances = post.num_instances
            score = self.objective.score(
                post.accuracy,
                e_stable / max(r_pre + r_post, 1e-300),
                p95_ms,
                ci,
            )
            sla_met, f = score.sla_met, score.f
            d_acc, d_carbon = score.delta_accuracy_pct, score.delta_carbon_pct
        else:
            # Stable window: the deployed configuration, DES-measured at the
            # epoch's (possibly routed) arrival rate.
            stable_eval = self.measure_evaluator.evaluate(deployed, rate_per_s=rate)
            r = rate * stable_s
            energy_j += stable_eval.power_watts * stable_s
            acc_weighted += stable_eval.accuracy * r
            requests += r
            p95_ms = stable_eval.p95_ms
            num_instances = (
                deployed.num_instances
                if capacity is None
                else stable_eval.num_instances
            )
            score = self.objective.score(
                stable_eval.accuracy,
                stable_eval.energy_per_request_j,
                stable_eval.p95_ms,
                ci,
            )
            sla_met, f = score.sla_met, score.f
            d_acc, d_carbon = score.delta_accuracy_pct, score.delta_carbon_pct

        if capacity is not None:
            # Driver-side elastic-capacity charges: sleeping GPUs' reduced
            # static draw plus this epoch's wake transitions.
            energy_j += capacity.aux_energy_j

        carbon = carbon_grams(energy_j, ci, self.pue)
        return EpochRecord(
            index=index,
            t_h=t_h,
            duration_s=self.step_s,
            ci=ci,
            config_label=str(deployed.partition_ids),
            num_instances=num_instances,
            requests=requests,
            energy_j=energy_j,
            carbon_g=carbon,
            accuracy=acc_weighted / requests if requests > 0 else 0.0,
            p95_ms=p95_ms,
            sla_met=sla_met,
            f_objective=f,
            delta_accuracy_pct=d_acc,
            delta_carbon_pct=d_carbon,
            optimized=optimized,
            optimization_s=explore_s,
            num_evaluations=len(evaluated),
            rate_per_s=rate,
            awake_gpus=capacity.awake_gpus if capacity is not None else None,
        )

    def _evaluate_capped(self, deployed, rate, n_awake):
        """Measure ``deployed`` with exactly ``n_awake`` GPUs powering it."""
        ev = self.measure_evaluator
        prev = ev.awake_gpus
        ev.set_awake_gpus(n_awake)
        try:
            return ev.evaluate(deployed, rate_per_s=rate)
        finally:
            ev.set_awake_gpus(prev)
