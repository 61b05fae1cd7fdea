"""Public facade: assemble and run a carbon-aware inference service.

This is the module a downstream user imports.  It wires together the
substrates (model zoo, performance model, workload, carbon trace) and the
Clover machinery (objective, evaluators, scheme, monitor, controller)
behind one call (smoke fidelity and a 2-hour run keep the example quick):

>>> from repro import CarbonAwareInferenceService
>>> service = CarbonAwareInferenceService.create(
...     application="classification", fidelity="smoke")
>>> report = service.run(duration_h=2.0)
>>> report.total_carbon_g > 0 and 0.0 <= report.accuracy_loss_pct < 100.0
True

The paper's methodology defaults are baked in: 10 GPUs, Poisson workload
sized to 65% of BASE capacity, the SLA fixed to BASE's measured p95,
``lambda = 0.5``, PUE 1.5, and the US CISO March trace.

This facade is single-cluster by design; :mod:`repro.fleet` composes many
of these services into a multi-region fleet by (a) passing a per-region
``trace``/``pue``/``baseline`` here and (b) driving the controller through
its step-wise API with per-epoch routed rates instead of :meth:`run`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.carbon.accounting import DEFAULT_PUE, carbon_grams
from repro.carbon.intensity import CarbonIntensityTrace
from repro.carbon.monitor import CarbonIntensityMonitor, DEFAULT_CHANGE_THRESHOLD
from repro.carbon.traces import ciso_march_48h
from repro.core.annealing import OptimizationCostModel, SAParams
from repro.core.config import base_config
from repro.core.controller import RunResult, ServiceController
from repro.core.evaluator import ConfigEvaluator
from repro.core.objective import ObjectiveSpec
from repro.core.schemes import Scheme, make_scheme
from repro.models.perf import PerfModel
from repro.models.zoo import ModelZoo, default_zoo
from repro.serving.sla import SlaPolicy
from repro.serving.workload import DEFAULT_BASE_UTILIZATION, default_rate
from repro.utils.rng import RngMixer

__all__ = ["FidelityProfile", "Baseline", "CarbonAwareInferenceService"]

#: The paper's testbed size: ten A100 GPUs.
PAPER_N_GPUS = 10

#: The paper's default carbon-vs-accuracy weight.
PAPER_LAMBDA = 0.5


@dataclass(frozen=True)
class FidelityProfile:
    """Simulation fidelity knobs (runtime vs measurement-precision).

    The paper's cadence (5-minute epochs, long measurement windows, a full
    5-minute SA budget) is hours of wall time per run; lower-fidelity
    profiles keep the identical structure with smaller samples.
    """

    name: str
    step_minutes: float
    measure_des_requests: int
    sla_des_requests: int
    sa_params: SAParams
    cost_model: OptimizationCostModel

    @classmethod
    def smoke(cls) -> "FidelityProfile":
        """CI-speed: hourly epochs, small DES samples."""
        return cls(
            name="smoke",
            step_minutes=60.0,
            measure_des_requests=400,
            sla_des_requests=4000,
            sa_params=SAParams(time_budget_s=300.0, max_evals=40),
            cost_model=OptimizationCostModel(),
        )

    @classmethod
    def default(cls) -> "FidelityProfile":
        """Benchmark-grade: 10-minute epochs, moderate DES samples."""
        return cls(
            name="default",
            step_minutes=10.0,
            measure_des_requests=1000,
            sla_des_requests=12000,
            sa_params=SAParams(time_budget_s=300.0, max_evals=120),
            cost_model=OptimizationCostModel(),
        )

    @classmethod
    def paper(cls) -> "FidelityProfile":
        """Paper cadence: 5-minute epochs, large DES samples."""
        return cls(
            name="paper",
            step_minutes=5.0,
            measure_des_requests=4000,
            sla_des_requests=50000,
            sa_params=SAParams(time_budget_s=300.0, max_evals=500),
            cost_model=OptimizationCostModel(),
        )

    @classmethod
    def by_name(cls, name: str) -> "FidelityProfile":
        factories = {"smoke": cls.smoke, "default": cls.default, "paper": cls.paper}
        try:
            return factories[name.lower()]()
        except KeyError:
            valid = ", ".join(sorted(factories))
            raise ValueError(f"unknown fidelity {name!r}; valid: {valid}") from None


@dataclass(frozen=True)
class Baseline:
    """Measured properties of the BASE deployment that anchor the objective.

    ``sla`` is BASE's p95 (the paper never relaxes it); ``c_base`` is BASE's
    per-request carbon at the baseline (trace-mean) intensity.
    """

    a_base: float
    e_base_j_per_request: float
    c_base_g_per_request: float
    sla: SlaPolicy
    ci_base: float


def derive_baseline(
    zoo: ModelZoo,
    perf: PerfModel,
    family: str,
    n_gpus: int,
    rate_per_s: float,
    ci_base: float,
    des_requests: int,
    seed: int,
    pue: float = DEFAULT_PUE,
    device_pool=None,
) -> Baseline:
    """Measure the BASE deployment to fix ``A_base``, ``C_base`` and the SLA.

    ``device_pool`` prices BASE on heterogeneous silicon (see
    :class:`~repro.core.evaluator.ConfigEvaluator`): the measured p95 — and
    hence the SLA the fleet is held to — reflects the pool's actual speed,
    and ``e_base`` its actual joules per request.
    """
    fam = zoo.family(family)
    evaluator = ConfigEvaluator(
        zoo=zoo,
        perf=perf,
        family=family,
        rate_per_s=rate_per_s,
        n_gpus=n_gpus,
        method="des",
        des_requests=des_requests,
        seed=seed,
        device_pool=device_pool,
    )
    ev = evaluator.evaluate(base_config(fam, n_gpus))
    if ev.overloaded:
        raise ValueError(
            "BASE deployment is overloaded at the requested rate; lower the "
            "target utilization"
        )
    return Baseline(
        a_base=fam.base_accuracy,
        e_base_j_per_request=ev.energy_per_request_j,
        c_base_g_per_request=carbon_grams(ev.energy_per_request_j, ci_base, pue),
        sla=SlaPolicy(p95_target_ms=ev.p95_ms),
        ci_base=ci_base,
    )


class CarbonAwareInferenceService:
    """A fully-assembled carbon-aware ML inference service (the paper's Fig. 5).

    Build with :meth:`create` (paper defaults) or the constructor (full
    control); :meth:`run` executes the control loop over the carbon trace
    and returns the measured :class:`~repro.core.controller.RunResult`.
    """

    def __init__(
        self,
        scheme: Scheme,
        controller: ServiceController,
        baseline: Baseline,
        trace: CarbonIntensityTrace,
    ) -> None:
        self.scheme = scheme
        self.controller = controller
        self.baseline = baseline
        self.trace = trace

    @classmethod
    def create(
        cls,
        application: str = "classification",
        scheme: str = "clover",
        n_gpus: int = PAPER_N_GPUS,
        lambda_weight: float = PAPER_LAMBDA,
        trace: CarbonIntensityTrace | None = None,
        zoo: ModelZoo | None = None,
        perf: PerfModel | None = None,
        utilization: float = DEFAULT_BASE_UTILIZATION,
        rate_per_s: float | None = None,
        accuracy_floor_pct: float | None = None,
        change_threshold: float = DEFAULT_CHANGE_THRESHOLD,
        fidelity: FidelityProfile | str = "default",
        pue: float = DEFAULT_PUE,
        seed: int = 0,
        baseline: Baseline | None = None,
        device_pool=None,
    ) -> "CarbonAwareInferenceService":
        """Assemble a service with the paper's methodology defaults.

        Parameters mirror Sec. 5.1: ``application`` picks the Table-1 model
        family; ``scheme`` one of base/co2opt/blover/clover/oracle;
        ``lambda_weight`` the Eq. 3 trade-off; ``accuracy_floor_pct`` the
        optional Fig. 14b hard accuracy budget; ``rate_per_s`` overrides the
        65%-of-BASE workload sizing.  Passing ``baseline`` pins the SLA and
        ``C_base`` externally — Fig. 15 uses this to hold the 10-GPU SLA
        while provisioning fewer GPUs.

        ``device_pool`` (a :class:`repro.gpu.profiles.DevicePool`) serves
        on heterogeneous silicon: the workload sizing, both evaluators, the
        measured baseline and the scheme's partition search space all
        parameterize on the pool.  ``None`` — or an all-A100 pool — is the
        seed single-device service, bit for bit.
        """
        if isinstance(fidelity, str):
            fidelity = FidelityProfile.by_name(fidelity)
        zoo = zoo or default_zoo()
        perf = perf or PerfModel()
        trace = trace if trace is not None else ciso_march_48h()
        fam = zoo.for_application(application)
        if device_pool is not None and device_pool.is_default_a100:
            device_pool = None  # the implicit seed fleet, bit for bit
        if device_pool is not None and device_pool.n_gpus != n_gpus:
            raise ValueError(
                f"device pool has {device_pool.n_gpus} GPUs, service "
                f"declares {n_gpus}"
            )

        rate = (
            rate_per_s
            if rate_per_s is not None
            else default_rate(
                fam, perf, n_gpus, utilization,
                throughput_scale_sum=(
                    None if device_pool is None
                    else device_pool.throughput_scale_sum
                ),
            )
        )
        mixer = RngMixer(seed=seed)

        if baseline is None:
            baseline = derive_baseline(
                zoo=zoo,
                perf=perf,
                family=fam.name,
                n_gpus=n_gpus,
                rate_per_s=rate,
                ci_base=trace.mean(),
                des_requests=fidelity.sla_des_requests,
                seed=seed,
                pue=pue,
                device_pool=device_pool,
            )
        objective = ObjectiveSpec(
            lambda_weight=lambda_weight,
            a_base=baseline.a_base,
            c_base=baseline.c_base_g_per_request,
            sla=baseline.sla,
            pue=pue,
            accuracy_floor_pct=accuracy_floor_pct,
        )

        opt_evaluator = ConfigEvaluator(
            zoo=zoo,
            perf=perf,
            family=fam.name,
            rate_per_s=rate,
            n_gpus=n_gpus,
            method="analytic",
            seed=seed,
            device_pool=device_pool,
        )
        measure_evaluator = ConfigEvaluator(
            zoo=zoo,
            perf=perf,
            family=fam.name,
            rate_per_s=rate,
            n_gpus=n_gpus,
            method="des",
            des_requests=fidelity.measure_des_requests,
            seed=seed + 1,
            device_pool=device_pool,
        )

        scheme_obj = make_scheme(
            scheme,
            zoo=zoo,
            family=fam.name,
            n_gpus=n_gpus,
            evaluator=opt_evaluator,
            objective=objective,
            mixer=mixer,
            sa_params=fidelity.sa_params,
            cost_model=fidelity.cost_model,
            max_partition_id=(
                None if device_pool is None
                else device_pool.partition_granularity
            ),
        )
        monitor = CarbonIntensityMonitor(trace=trace, threshold=change_threshold)
        controller = ServiceController(
            scheme=scheme_obj,
            objective=objective,
            monitor=monitor,
            measure_evaluator=measure_evaluator,
            rate_per_s=rate,
            application=application,
            step_s=fidelity.step_minutes * 60.0,
            pue=pue,
        )
        return cls(
            scheme=scheme_obj,
            controller=controller,
            baseline=baseline,
            trace=trace,
        )

    def run(self, duration_h: float | None = None) -> RunResult:
        """Run the service over the trace (default: the full trace span)."""
        if duration_h is None:
            duration_h = self.trace.span_h
        return self.controller.run(duration_h)
