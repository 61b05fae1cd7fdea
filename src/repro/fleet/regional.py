"""RegionalService: the seed single-cluster control loop, fleet-addressable.

This is the extraction seam of the multi-region refactor: one region wraps
exactly the service the seed code assembles
(:meth:`repro.core.service.CarbonAwareInferenceService.create` with the
region's trace, PUE and GPU count) and exposes the controller's step-wise
API plus the two quantities routing needs — the region's capacity cap and
the highest rate at which the currently-deployed configuration still meets
the SLA after the region's network latency.

Driven with its nominal rate every epoch, a ``RegionalService`` is
*behavior-identical* to the seed service: same RNG streams, same evaluator
caches, same accounting arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.controller import EpochRecord, RunResult, ServiceController
from repro.core.service import (
    CarbonAwareInferenceService,
    FidelityProfile,
    PAPER_LAMBDA,
    derive_baseline,
)
from repro.fleet.regions import Region
from repro.gpu.profiles import A100_PROFILE, DevicePool
from repro.models.perf import PerfModel
from repro.models.zoo import ModelZoo, default_zoo
from repro.serving.sla import SlaPolicy
from repro.serving.workload import DEFAULT_BASE_UTILIZATION, default_rate

__all__ = ["RegionalService", "DEFAULT_MAX_UTILIZATION"]

#: How hard routing may load a region relative to its BASE capacity.  The
#: nominal sizing is 65%; the gap to 85% is the headroom a carbon-greedy
#: router can shift into a clean region before its queues blow up.
DEFAULT_MAX_UTILIZATION = 0.85

#: Before the first deployment there is no configuration to bisect a p95
#: against; budgets within this slack of the region's own target are
#: treated as resident-grade (the cell planner tightens budgets by a few
#: ms of safety margin, which must not zero out home traffic at epoch 0).
PRE_DEPLOYMENT_BUDGET_SLACK_MS = 10.0


@dataclass
class RegionalService:
    """One region's fully-assembled service plus its routing envelope.

    With elastic capacity enabled the coordinator drives
    :meth:`set_awake` every epoch; the routing envelope
    (:meth:`sla_safe_rate`, :attr:`awake_capacity_rate_per_s`) and every
    evaluator probe are then computed against the *awake* GPU subset, not
    the physical pool.  Fully awake (the default) is the seed path.
    """

    region: Region
    service: CarbonAwareInferenceService
    nominal_rate_per_s: float
    capacity_rate_per_s: float
    #: The region's device pool; ``None`` is the implicit all-A100 fleet
    #: (the bit-for-bit pre-heterogeneity path).
    device_pool: DevicePool | None = None
    #: Per-device max-utilization rates, pool-canonical order (``None``
    #: for the homogeneous implicit fleet).
    device_capacity_rates: tuple[float, ...] | None = None
    #: Per-device joules/request at the sizing operating point,
    #: pool-canonical order (most efficient first); the last awake entry
    #: is the marginal-device efficiency signal routing consumes.
    device_energies_j: tuple[float, ...] | None = None
    #: Joules/request of the implicit A100 fleet (used when no pool).
    reference_energy_j: float = 0.0
    #: Awake-GPU override (``None`` = fully awake, the always-on path).
    _awake_gpus: int | None = field(default=None, init=False, repr=False)
    #: This run's SLA-safe-rate envelopes, keyed on every input of the
    #: bisection that can change within a run (see :meth:`sla_safe_rates`).
    _envelopes: dict[tuple, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def create(
        cls,
        region: Region,
        application: str = "classification",
        scheme: str = "clover",
        lambda_weight: float = PAPER_LAMBDA,
        fidelity: FidelityProfile | str = "default",
        seed: int = 0,
        zoo: ModelZoo | None = None,
        perf: PerfModel | None = None,
    ) -> "RegionalService":
        """Assemble the region's service exactly as the seed facade does.

        The one fleet-specific twist is the SLA floor: the region's BASE
        deployment is measured exactly as the seed does it, then the p95
        target is *tightened* by the region's network latency, so every
        scheme decision inside the region already accounts for the hop its
        users pay.  A region with zero network latency gets the untouched
        seed baseline — the N=1 equivalence path.

        Every region of a fleet gets the same ``zoo`` and ``perf``: only
        evaluators pricing the same objects may pool their caches.
        """
        if isinstance(fidelity, str):
            fidelity = FidelityProfile.by_name(fidelity)
        zoo = zoo or default_zoo()
        perf = perf or PerfModel()
        fam = zoo.for_application(application)
        # The region's silicon: an all-A100 pool normalizes to None so the
        # homogeneous fleet keeps the pre-heterogeneity path bit for bit.
        pool = region.device_pool()
        if pool.is_default_a100:
            pool = None
        scale_sum = None if pool is None else pool.throughput_scale_sum
        nominal = default_rate(
            fam, perf, region.n_gpus, DEFAULT_BASE_UTILIZATION,
            throughput_scale_sum=scale_sum,
        )
        baseline = derive_baseline(
            zoo=zoo,
            perf=perf,
            family=fam.name,
            n_gpus=region.n_gpus,
            rate_per_s=nominal,
            ci_base=region.trace.mean(),
            des_requests=fidelity.sla_des_requests,
            seed=seed,
            pue=region.pue,
            device_pool=pool,
        )
        if region.net_latency_ms > 0.0:
            budget = baseline.sla.p95_target_ms - region.net_latency_ms
            if budget <= 0.0:
                raise ValueError(
                    f"region {region.name!r}: network latency "
                    f"{region.net_latency_ms:.1f} ms exceeds the SLA target "
                    f"{baseline.sla.p95_target_ms:.1f} ms — it can never "
                    "serve within the SLA"
                )
            baseline = replace(baseline, sla=SlaPolicy(p95_target_ms=budget))
        service = CarbonAwareInferenceService.create(
            application=application,
            scheme=scheme,
            n_gpus=region.n_gpus,
            lambda_weight=lambda_weight,
            trace=region.trace,
            zoo=zoo,
            perf=perf,
            utilization=DEFAULT_BASE_UTILIZATION,
            fidelity=fidelity,
            pue=region.pue,
            seed=seed,
            baseline=baseline,
            device_pool=pool,
        )
        full = default_rate(
            fam, perf, region.n_gpus, DEFAULT_MAX_UTILIZATION,
            throughput_scale_sum=scale_sum,
        )
        per_gpu_capacity = None
        if pool is not None:
            unit = full / pool.throughput_scale_sum
            per_gpu_capacity = tuple(
                unit * s for s in pool.throughput_scales()
            )
        energies = tuple(
            p.reference_energy_per_request_j(
                perf, fam.largest, DEFAULT_BASE_UTILIZATION
            )
            for p in (pool.profiles if pool is not None else ())
        )
        return cls(
            region=region,
            service=service,
            nominal_rate_per_s=nominal,
            capacity_rate_per_s=full,
            device_pool=pool,
            device_capacity_rates=per_gpu_capacity,
            device_energies_j=energies or None,
            reference_energy_j=A100_PROFILE.reference_energy_per_request_j(
                perf, fam.largest, DEFAULT_BASE_UTILIZATION
            ),
        )

    # ------------------------------------------------------------------ #
    # controller pass-throughs
    # ------------------------------------------------------------------ #

    @property
    def controller(self) -> ServiceController:
        return self.service.controller

    @property
    def sla_target_ms(self) -> float:
        """Service-side p95 target, already tightened by network latency."""
        return self.controller.objective.sla.p95_target_ms

    @property
    def user_sla_target_ms(self) -> float:
        """The raw end-to-end p95 target users hold the fleet to.

        Undoes the assembly-time tightening: service target plus the
        network hop it was tightened by.  Every region of a fleet shares
        this number (the application SLA), which is what lets demand-model
        runs judge attainment per (origin, serving-region) pair — service
        p95 plus the *pair's* matrix latency against this target.
        """
        return self.sla_target_ms + self.region.net_latency_ms

    def observe_ci(self, t_h: float) -> float:
        """The region's grid carbon intensity at trace time ``t_h``."""
        return self.controller.monitor.observe(t_h)

    # ------------------------------------------------------------------ #
    # elastic capacity
    # ------------------------------------------------------------------ #

    @property
    def power_model(self):
        """The region's node power model (sleep-state watts live here)."""
        return self.controller.measure_evaluator.perf.power

    @property
    def awake_gpus(self) -> int:
        """GPUs currently online (the full pool unless gated)."""
        n = self.region.n_gpus
        return n if self._awake_gpus is None else self._awake_gpus

    @property
    def awake_capacity_rate_per_s(self) -> float:
        """The capacity cap scaled to the awake subset.

        Fully awake returns the stored cap untouched (``x * n / n`` does
        not always round-trip in IEEE floats, and the always-on path must
        stay bit-for-bit the seed path).  A heterogeneous pool sums the
        awake canonical *prefix* of per-device rates — the devices left
        awake are the most efficient ones, but not necessarily an equal
        share of capacity (an awake L4 carries less than a slept A100
        released).
        """
        if self._awake_gpus is None:
            return self.capacity_rate_per_s
        if self.device_capacity_rates is not None:
            return float(sum(self.device_capacity_rates[: self._awake_gpus]))
        return (
            self.capacity_rate_per_s * self._awake_gpus / self.region.n_gpus
        )

    def awake_static_watts(self) -> float:
        """Always-on draw of the awake devices (pool-aware)."""
        if self.device_pool is None:
            return (
                self.power_model.static_watts_per_gpu() * self.awake_gpus
            )
        return float(
            sum(
                p.power.static_watts_per_gpu()
                for p in self.device_pool.profiles[: self.awake_gpus]
            )
        )

    def marginal_energy_per_request_j(
        self, static_amortize_utilization: float | None = None
    ) -> float:
        """Joules one more request costs on this region's silicon.

        The efficiency signal routing ranks on: grid intensity times this
        is the gCO2 an additional request routed here costs.  The dynamic
        term is the *deployed configuration's* joules per request — which
        is what makes the signal honest on heterogeneous fleets: a
        MIG-partitioned A100 serving small variants can out-efficiency an
        unpartitionable L4 even though the L4's BASE deployment is leaner,
        and the signal must reflect the silicon as actually configured,
        not as shipped.

        What happens to static draw depends on whether idle power follows
        traffic.  In an **always-on** fleet
        (``static_amortize_utilization=None``) the idle watts are paid
        wherever the request goes, so only dynamic energy moves with the
        routing decision and static is excluded.  In a **gated** fleet the
        capacity manager sleeps the devices a drained region stops
        needing, so a marginal request also owns its share of the marginal
        device's static draw — amortized at the gating policy's target
        utilization of that device's capacity.

        Priced by the analytic evaluator at the awake-capped nominal rate
        (cached by (graph, rate, awake, pool) — one evaluation per
        deployment change).  Before the first deployment it falls back to
        the closed-form BASE energy of the marginal (least-efficient
        awake) device.
        """
        deployed = self.controller.deployed
        if deployed is None:
            if self.device_energies_j is not None:
                return self.device_energies_j[self.awake_gpus - 1]
            return self.reference_energy_j
        rate = min(self.nominal_rate_per_s, self.awake_capacity_rate_per_s)
        ev = self.service.scheme.evaluator.evaluate(deployed, rate_per_s=rate)
        dynamic_w = max(ev.power_watts - self.awake_static_watts(), 0.0)
        energy = dynamic_w / rate
        if static_amortize_utilization is not None:
            marginal = self.awake_gpus - 1
            if self.device_pool is not None:
                static_w = self.device_pool.profiles[
                    marginal
                ].power.static_watts_per_gpu()
                device_rate = self.device_capacity_rates[marginal]
            else:
                static_w = self.power_model.static_watts_per_gpu()
                device_rate = self.capacity_rate_per_s / self.region.n_gpus
            energy += static_w / (static_amortize_utilization * device_rate)
        return energy

    def device_static_watts(self) -> tuple[float, ...]:
        """Per-device always-on static draw, pool-canonical order."""
        if self.device_pool is None:
            return (
                self.power_model.static_watts_per_gpu(),
            ) * self.region.n_gpus
        return tuple(
            p.power.static_watts_per_gpu() for p in self.device_pool.profiles
        )

    def device_wake_energies_j(self) -> tuple[float, ...]:
        """Per-device wake transition energies, pool-canonical order.

        The implicit all-A100 fleet carries the A100 profile's default on
        every position — the pre-per-profile scalar, bit for bit.
        """
        if self.device_pool is None:
            return (A100_PROFILE.wake_energy_j,) * self.region.n_gpus
        return self.device_pool.wake_energies_j()

    def wake_transition_energy_j(
        self, first: int, last: int, override_j: float | None = None
    ) -> float:
        """Transition energy of waking canonical positions [first, last).

        Wakes always extend the awake canonical prefix, so the devices
        woken in one epoch are a contiguous position range.  With a
        policy-level ``override_j`` every device costs that scalar (the
        pre-per-profile behaviour); otherwise each position owes its own
        profile's :attr:`~repro.gpu.profiles.DeviceProfile.wake_energy_j`.
        """
        if not 0 <= first <= last <= self.region.n_gpus:
            raise ValueError(
                f"wake range [{first}, {last}) outside the pool of "
                f"{self.region.n_gpus}"
            )
        if override_j is not None:
            return override_j * (last - first)
        return float(sum(self.device_wake_energies_j()[first:last]))

    def min_static_watts_per_gpu(self) -> float:
        """The smallest always-on per-GPU draw across the region's pool.

        The gating wake-energy invariant (a gated epoch never out-spends
        its always-on twin) must hold for *every* device, so the ceiling
        is checked against the least power-hungry one.
        """
        if self.device_pool is None:
            return self.power_model.static_watts_per_gpu()
        return min(
            p.power.static_watts_per_gpu() for p in self.device_pool.profiles
        )

    def sleeping_draw_watts(self, awake_gpus: int) -> float:
        """Total sleep-state draw of the gated devices at ``awake_gpus``.

        Homogeneous fleets multiply the power model's sleep watts by the
        sleeping count (the pre-heterogeneity arithmetic, bit for bit);
        pools sum each gated device's own sleep draw — sleeping always
        trims the canonical tail, so the gated set is the suffix.
        """
        sleeping = self.region.n_gpus - awake_gpus
        if sleeping < 0:
            raise ValueError(
                f"awake count {awake_gpus} exceeds the pool of "
                f"{self.region.n_gpus}"
            )
        if self.device_pool is None:
            return self.power_model.sleep_watts_per_gpu() * sleeping
        return float(
            sum(
                p.power.sleep_watts
                for p in self.device_pool.profiles[awake_gpus:]
            )
        )

    def set_awake(self, awake_gpus: int | None) -> None:
        """Gate the region to ``awake_gpus`` online GPUs.

        Caps both evaluators (optimization candidates and DES
        measurements) to the awake subset, so SLA-cap bisections and the
        controller's accounting all see the gated cluster.  ``None`` or
        the full pool restores the bit-for-bit always-on path.
        """
        n = self.region.n_gpus
        if awake_gpus is not None and not 1 <= awake_gpus <= n:
            raise ValueError(
                f"awake GPUs must be in [1, {n}], got {awake_gpus}"
            )
        normalized = (
            None if awake_gpus is None or awake_gpus >= n else awake_gpus
        )
        self._awake_gpus = normalized
        self.controller.measure_evaluator.set_awake_gpus(normalized)
        opt_evaluator = getattr(self.service.scheme, "evaluator", None)
        if opt_evaluator is not None:
            opt_evaluator.set_awake_gpus(normalized)

    def begin_run(self) -> RunResult:
        self.set_awake(None)  # a fresh run boots fully provisioned
        self._envelopes.clear()
        return self.controller.begin_run()

    def step(
        self,
        result: RunResult,
        index: int,
        t_h: float,
        rate_per_s: float,
        capacity=None,
    ) -> EpochRecord:
        return self.controller.step(
            result, index, t_h, rate_per_s, capacity=capacity
        )

    def finalize(self, result: RunResult) -> RunResult:
        return self.controller.finalize(result)

    # ------------------------------------------------------------------ #
    # routing envelope
    # ------------------------------------------------------------------ #

    def sla_safe_rate(
        self, budget_ms: float | None = None, iters: int = 12
    ) -> float:
        """Highest rate at which the deployed config should meet the SLA.

        Bisects the analytic p95 estimate of the *currently deployed*
        configuration against ``budget_ms`` — by default the
        network-tightened :attr:`sla_target_ms`; demand-mode routing
        passes per-(origin, region) budgets (the raw end-to-end target
        minus the pair's matrix latency) so far-origin traffic throttles a
        region exactly as hard as its extra hop demands (p95 is monotone
        in rate).  Before the first deployment — or when even a trickle
        violates the budget — it returns the capacity cap or zero
        respectively; zero means the region can only carry its
        un-shiftable floor traffic this epoch.

        All of it is priced against the *awake* capacity: while GPUs are
        gated, both the upper bisection bound and every p95 probe see the
        trimmed cluster, so the envelope honestly shrinks with the pool.
        """
        budget = self.sla_target_ms if budget_ms is None else budget_ms
        return float(self.sla_safe_rates(np.array([budget]), iters=iters)[0])

    def sla_safe_rates(
        self, budgets_ms: np.ndarray, iters: int = 12
    ) -> np.ndarray:
        """Batched :meth:`sla_safe_rate` over an array of budgets.

        All budgets bisect in lockstep against one deployed configuration,
        so each of the ``iters`` steps is a single batched estimator call
        instead of one scalar evaluation per budget.  Every row follows
        exactly the scalar method's probe sequence (its bracket updates
        depend only on its own row), and the scalar method delegates here,
        so the two are identical by construction.

        The envelope is a pure function of the deployed configuration, the
        awake count (the bisection's upper bound and the estimator's
        trim), ``iters`` and the budgets, so each distinct key is bisected
        once per run and later calls get a copy of the stored array.  A
        repeated bisection would have been all evaluator cache hits, so
        skipping it changes no result and no miss, only the hit count.
        """
        budgets = np.asarray(budgets_ms, dtype=np.float64)
        key = (
            self.controller.deployed,
            self._awake_gpus,
            self.service.scheme.evaluator._effective_awake(),
            iters,
            budgets.shape,
            budgets.tobytes(),
        )
        rates = self._envelopes.get(key)
        if rates is None:
            rates = self._bisect_safe_rates(budgets, iters)
            self._envelopes[key] = rates
        return rates.copy()

    def _bisect_safe_rates(
        self, budgets: np.ndarray, iters: int
    ) -> np.ndarray:
        """The lockstep bisection behind :meth:`sla_safe_rates`."""
        out = np.zeros(budgets.shape)
        pos = budgets > 0.0
        if not np.any(pos):
            return out
        deployed = self.controller.deployed
        if deployed is None:
            # Nothing to bisect against yet.  Resident-grade budgets —
            # within a small slack of the region's own target, covering
            # the cell planner's safety margin — get the capacity cap
            # (the PR-1 behaviour); genuinely tighter far-origin budgets
            # get nothing: epoch zero is no time to gamble remote traffic
            # on a configuration that hasn't been measured.
            slack = PRE_DEPLOYMENT_BUDGET_SLACK_MS
            out[pos & (budgets >= self.sla_target_ms - slack)] = (
                self.awake_capacity_rate_per_s
            )
            return out
        estimator = self.service.scheme.evaluator

        def p95_at(rates: np.ndarray) -> np.ndarray:
            evs = estimator.evaluate_rates(deployed, rates)
            return np.array([e.p95_ms for e in evs])

        hi0 = self.awake_capacity_rate_per_s
        lo0 = 0.01 * self.nominal_rate_per_s
        p95_hi, p95_lo = p95_at(np.array([hi0, lo0]))
        easy = pos & (p95_hi <= budgets)
        out[easy] = hi0
        active = pos & ~easy & (p95_lo <= budgets)
        if np.any(active):
            idx = np.nonzero(active)
            lo = np.full(budgets.shape, lo0)
            hi = np.full(budgets.shape, hi0)
            for _ in range(iters):
                mid = 0.5 * (lo[idx] + hi[idx])
                ok = p95_at(mid) <= budgets[idx]
                lo[idx] = np.where(ok, mid, lo[idx])
                hi[idx] = np.where(ok, hi[idx], mid)
            out[active] = lo[active]
        return out
