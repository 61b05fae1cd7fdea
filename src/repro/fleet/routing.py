"""Per-epoch traffic routing across fleet regions.

The fleet coordinator owns one global Poisson workload; each epoch a
:class:`Router` splits its rate into per-region shares.  Splitting a
Poisson process by independent routing probabilities is Poisson thinning:
each region again sees a Poisson process at its assigned rate, which is why
the per-region control loops can keep the seed's evaluator machinery
unchanged.  Conservation is structural — every policy returns shares whose
rates sum to the global rate, so no arrival is dropped or double-counted.
The greedy fills take ``min(left, room)`` from the rate still left, so
that holds at any capacity scale: no take can outgrow what is left.

Three policies, per the paper-adjacent systems (EcoServe, CarbonEdge):

* **static** — fixed geo-DNS-style split proportional to region capacity
  (or explicit weights).  With one region this is the identity split, which
  makes an N=1 fleet reproduce the single-cluster service bit-for-bit.
* **latency** — greedy water-fill in order of network latency: nearby
  regions first, subject to per-region capacity.  Carbon-blind.
* **carbon-greedy** — greedy water-fill in order of *effective carbon per
  request*: grid intensity x PUE x the region's joules/request at its
  marginal device.  On a homogeneous fleet the energy term is identical
  everywhere and the ranking degenerates to the classic cleanest-grid
  ordering (bit-for-bit the pre-heterogeneity behaviour); on a
  heterogeneous fleet it stops the router from dumping load onto a clean
  grid that happens to run inefficient silicon.  ``efficiency_weighted=
  False`` restores the intensity-only ranking (the ablation the hetero
  benchmark measures against).  Fills are subject to each region's
  capacity cap and an SLA cap (the highest rate at which the deployed
  configuration's estimated p95 plus the region's network latency still
  meets the SLA).  Every region keeps a small floor share — geo-resident
  traffic that cannot be shifted.
* **forecast-aware** — like carbon-greedy, but ranks regions on a blend of
  the *current* and the *forecast* effective intensity a lookahead horizon
  ahead.  Under per-epoch ramp limits (traffic shifts cost migrations, so a
  region's share may move only so fast) this pre-positions load before a
  predicted solar trough instead of chasing it after the fact.  A regret
  guard tracks matured forecasts against the observed intensities and
  decays the forecast weight toward myopic greedy when predictions go bad.

Ramp limits live in the :class:`RoutingContext` (``prev_shares`` +
``max_ramp_share``) and bind every policy equally; without them (the
default) each epoch's split is unconstrained, which is exactly the PR-1
behaviour.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "RoutingContext",
    "Router",
    "StaticRouter",
    "LatencyAwareRouter",
    "CarbonGreedyRouter",
    "ForecastAwareRouter",
    "plan_origin_cells",
    "ROUTER_NAMES",
    "make_router",
]


@dataclass(frozen=True)
class RoutingContext:
    """Everything a router may consult for one epoch's split.

    All arrays are indexed by region, in fleet order.  ``sla_cap_rates``
    holds the highest per-region rate at which the *deployed* configuration
    is expected to meet the SLA after adding the region's network latency
    (``inf`` before the first deployment).

    The optional fields extend the PR-1 context for forecast-driven and
    ramp-limited routing; their defaults reproduce the original semantics
    exactly.  ``forecast_ci`` is each region's predicted *mean* grid
    intensity over the window ``(t_h, t_h + lookahead_h]`` (``None`` when
    the coordinator provisioned no forecasters); ``prev_shares`` is last
    epoch's realized split; ``max_ramp_share`` bounds how much share a
    region may *gain* per epoch and ``max_drain_share`` how much it may
    *lose* (1.0 = unconstrained — shifting is free).  The two are
    asymmetric on purpose: admitting new traffic is a DNS/admission flip,
    but shedding resident traffic waits for sessions to drain — which is
    what makes diving into a briefly-clean region a trap worth forecasting
    around.
    """

    t_h: float
    global_rate_per_s: float
    ci: np.ndarray
    pue: np.ndarray
    net_latency_ms: np.ndarray
    nominal_rates: np.ndarray
    capacity_rates: np.ndarray
    sla_cap_rates: np.ndarray
    floor_rates: np.ndarray
    forecast_ci: np.ndarray | None = None
    lookahead_h: float = 0.0
    prev_shares: np.ndarray | None = None
    max_ramp_share: float = 1.0
    max_drain_share: float | None = None
    #: Per-region joules/request at the marginal device (``None`` when the
    #: coordinator predates device heterogeneity).  On a homogeneous fleet
    #: every entry is equal, and efficiency-aware rankings reduce exactly
    #: to the intensity rankings.
    energy_per_request_j: np.ndarray | None = None
    #: Predicted *global* arrival rate one epoch ahead (``None`` unless the
    #: coordinator runs pre-wake gating).  Routers use it to project where
    #: the next epoch's traffic will land, so capacity can be woken ahead
    #: of the demand instead of behind it.
    forecast_global_rate_per_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.max_ramp_share <= 1.0:
            raise ValueError(
                f"ramp share must be in (0, 1], got {self.max_ramp_share}"
            )
        if self.max_drain_share is not None and not (
            0.0 < self.max_drain_share <= 1.0
        ):
            raise ValueError(
                f"drain share must be in (0, 1], got {self.max_drain_share}"
            )

    @property
    def drain_share(self) -> float:
        """The effective per-epoch share-loss bound.

        ``None`` means unconstrained (1.0) — matching the coordinator's
        documented "no drain limit" default — not "same as the ramp".
        """
        return 1.0 if self.max_drain_share is None else self.max_drain_share

    @property
    def n_regions(self) -> int:
        return int(self.ci.size)

    @property
    def effective_ci(self) -> np.ndarray:
        """Grid intensity scaled by PUE: the true gCO2/kWh of IT energy."""
        return self.ci * self.pue

    @property
    def effective_forecast_ci(self) -> np.ndarray | None:
        """Forecast intensity scaled by PUE (``None`` without forecasts)."""
        if self.forecast_ci is None:
            return None
        return self.forecast_ci * self.pue

    def efficiency_scores(self, intensity_scores: np.ndarray) -> np.ndarray:
        """Scale intensity scores to effective gCO2/request.

        Multiplies by each region's marginal-device joules/request so the
        ranking prices silicon as well as grid.  When the energy signal is
        missing **or flat** (every region runs the same device) the
        intensity scores are returned untouched — not merely an equal
        reordering, the *identical array* — which is what keeps the
        homogeneous fleet bit-for-bit on the pre-heterogeneity path.

        >>> import numpy as np
        >>> ctx = RoutingContext(
        ...     t_h=0.0, global_rate_per_s=10.0,
        ...     ci=np.array([100.0, 200.0]), pue=np.array([1.0, 1.0]),
        ...     net_latency_ms=np.zeros(2), nominal_rates=np.ones(2),
        ...     capacity_rates=np.ones(2), sla_cap_rates=np.ones(2),
        ...     floor_rates=np.zeros(2),
        ...     energy_per_request_j=np.array([12.0, 5.0]),
        ... )
        >>> ctx.efficiency_scores(ctx.effective_ci)  # dirty grid, lean GPU
        array([1200., 1000.])
        """
        e = self.energy_per_request_j
        if e is None or float(np.ptp(e)) == 0.0:
            return intensity_scores
        return intensity_scores * e


class Router(ABC):
    """A per-epoch traffic splitting policy.

    Every policy must return strictly positive shares: a region with zero
    traffic has no defined service measurement, so "drained" regions keep
    a floor share instead (see :class:`CarbonGreedyRouter`).  Policies
    that consult ``ctx.sla_cap_rates`` must set ``needs_sla_caps`` so the
    coordinator knows to run the (bisection-priced) SLA probes; policies
    that consult ``ctx.forecast_ci`` must set ``needs_forecast`` so the
    coordinator provisions per-region forecasters.
    """

    name: str = "router"
    needs_sla_caps = False
    needs_forecast = False

    @abstractmethod
    def split(self, ctx: RoutingContext) -> np.ndarray:
        """Return per-region shares of the global rate (positive, sum 1)."""

    def region_order(self, ctx: RoutingContext) -> np.ndarray | None:
        """The policy's region preference for cell-level (demand) planning.

        Demand-mode fleets route (origin, region) *cells* through
        :func:`plan_origin_cells`, which needs only the policy's region
        ordering; ``None`` means "no preference" (the static geo-DNS split
        keeps its proportional shares and stays pair-blind — it is the
        baseline the pair-aware policies are measured against).
        """
        return None

    def reset(self) -> None:
        """Clear any cross-epoch state before a fresh run (no-op default).

        The coordinator calls this at the start of every run so a router
        instance can be reused across runs (and fleets) without leaking
        pending forecasts or regret statistics between them.
        """

    def capacity_hint(self, ctx: RoutingContext) -> np.ndarray | None:
        """Per-region rates the policy expects to route in the near future.

        Pre-wake gating consults this to wake GPUs *before* the demand
        lands (a wake completes within one epoch, so the hint's horizon is
        the next epoch).  ``None`` — the default — means the policy offers
        no projection and gated regions fall back to reactive wakes, which
        pay the wake-latency window.
        """
        return None

    def rates(self, ctx: RoutingContext) -> np.ndarray:
        """Convenience: the per-region arrival rates this epoch."""
        return self.split(ctx) * ctx.global_rate_per_s


@dataclass
class StaticRouter(Router):
    """Fixed split proportional to nominal region capacity (or weights).

    The carbon-unaware baseline: what a geo-DNS round-robin sized to each
    region's provisioning does.  With a single region the share is exactly
    1.0, so the fleet path degenerates to the seed single-cluster loop.
    """

    weights: np.ndarray | None = None
    name: str = field(default="static", init=False)

    def split(self, ctx: RoutingContext) -> np.ndarray:
        w = (
            np.asarray(self.weights, dtype=np.float64)
            if self.weights is not None
            else ctx.nominal_rates
        )
        if w.size != ctx.n_regions:
            raise ValueError(
                f"{w.size} weights for {ctx.n_regions} regions"
            )
        if np.any(w <= 0):
            # A zero-weight region would serve a zero rate, which has no
            # defined DES measurement; drop the region from the fleet
            # instead of routing nothing to it.
            raise ValueError("weights must be strictly positive")
        return w / w.sum()


def _ramp_up_caps(ctx: RoutingContext, caps: np.ndarray) -> np.ndarray:
    """Clamp per-region caps by the admission ramp: a region may gain at
    most ``max_ramp_share`` of the global rate over its previous share
    per epoch (no-op without history or with an unconstrained ramp)."""
    if ctx.prev_shares is not None and ctx.max_ramp_share < 1.0:
        caps = np.minimum(
            caps,
            (ctx.prev_shares + ctx.max_ramp_share) * ctx.global_rate_per_s,
        )
    return caps


def _ramp_envelope(ctx: RoutingContext) -> tuple[np.ndarray, np.ndarray]:
    """Per-region (floors, caps) honoring the context's ramp limits.

    Without ``prev_shares`` (or with an unconstrained ramp) this is exactly
    the PR-1 envelope: floors from the un-shiftable geo-resident traffic,
    caps from capacity and SLA.  With a ramp, each region's rate is further
    boxed into ``(prev_share ± max_ramp_share) * global_rate`` — traffic
    shifts cost connection draining and cache warm-up, so share moves only
    so fast per epoch.  Floors beat SLA caps (resident traffic cannot
    leave) and a floor sum exceeding the global rate — demand crashing
    faster than regions may drain — is scaled back proportionally.
    """
    floors = np.minimum(ctx.floor_rates, ctx.capacity_rates).astype(np.float64)
    caps = _ramp_up_caps(ctx, np.minimum(ctx.capacity_rates, ctx.sla_cap_rates))
    if ctx.prev_shares is not None and ctx.drain_share < 1.0:
        lo = (ctx.prev_shares - ctx.drain_share) * ctx.global_rate_per_s
        floors = np.maximum(floors, np.minimum(lo, ctx.capacity_rates))
    total_floor = float(floors.sum())
    if total_floor > ctx.global_rate_per_s:
        floors = floors * (ctx.global_rate_per_s / total_floor)
    return floors, caps


def _water_fill(ctx: RoutingContext, order: np.ndarray) -> np.ndarray:
    """Fill regions in ``order`` up to their caps, floors guaranteed first.

    Returns per-region *rates* summing to the global rate: each region in
    order takes ``min(left, room)`` of the rate still left, until none is.
    If the ordered caps cannot absorb everything (SLA or ramp caps too
    tight), the remainder spills proportionally to remaining *capacity*
    headroom; if even capacity is exhausted, proportionally to nominal
    rates — conservation always wins over caps, and the overloaded epochs
    show up in the DES measurements.
    """
    floors, caps = _ramp_envelope(ctx)
    rates = floors.tolist()
    caps = caps.tolist()
    left = ctx.global_rate_per_s - float(floors.sum())
    for r in order.tolist():
        if left <= 0.0:
            break
        take = min(left, max(0.0, caps[r] - rates[r]))
        rates[r] += take
        left -= take
    rates = np.array(rates, dtype=np.float64)
    if left > 0.0:
        headroom = np.maximum(ctx.capacity_rates - rates, 0.0)
        basis = headroom if headroom.sum() > 0 else ctx.nominal_rates
        rates = rates + left * basis / basis.sum()
    return rates


@dataclass
class LatencyAwareRouter(Router):
    """Nearest-region-first water-fill, capacity-capped and carbon-blind."""

    name: str = field(default="latency", init=False)

    def region_order(self, ctx: RoutingContext) -> np.ndarray:
        return np.argsort(ctx.net_latency_ms, kind="stable")

    def split(self, ctx: RoutingContext) -> np.ndarray:
        return _water_fill(ctx, self.region_order(ctx)) / ctx.global_rate_per_s


@dataclass
class CarbonGreedyRouter(Router):
    """Cheapest-carbon-per-request water-fill under capacity and SLA caps.

    Shifts as much of the global workload as the caps allow toward the
    region with the lowest *effective gCO2 per request* this epoch — grid
    intensity x PUE x joules/request at the region's marginal device —
    then the next cheapest, and so on.  The SLA cap keeps the shift
    honest: a clean region only absorbs extra traffic up to the rate at
    which its deployed configuration still meets the SLA after the added
    network latency.

    ``efficiency_weighted=False`` is the intensity-only ablation: the
    pre-PR-4 ranking that chases clean grids even onto inefficient
    silicon.  On a homogeneous fleet the two are identical (the energy
    term is flat and drops out).

    >>> make_router("carbon-greedy").efficiency_weighted
    True
    >>> make_router("carbon-greedy", efficiency_weighted=False).name
    'carbon-greedy'
    """

    efficiency_weighted: bool = True
    name: str = field(default="carbon-greedy", init=False)
    needs_sla_caps = True

    def region_order(self, ctx: RoutingContext) -> np.ndarray:
        scores = ctx.effective_ci
        if self.efficiency_weighted:
            scores = ctx.efficiency_scores(scores)
        return np.argsort(scores, kind="stable")

    def split(self, ctx: RoutingContext) -> np.ndarray:
        return _water_fill(ctx, self.region_order(ctx)) / ctx.global_rate_per_s


@dataclass
class ForecastAwareRouter(Router):
    """Cleanest-*window* water-fill: rank on blended current + forecast ci.

    The forecast term is the *mean* predicted effective intensity over the
    next ``lookahead_h`` hours — not the point value at the horizon's end.
    Under ramp limits a region's share can only move a few percent per
    epoch, so traffic placed now is effectively committed for the next
    several hours; the window mean is the intensity that commitment will
    actually be charged at.  (A point forecast at ``t + H`` fails
    subtly: with ``H`` comparable to a solar trough's width it starts
    draining the trough region mid-trough, and its pre-shift gains cancel
    against its early exits — measured, not hypothetical.)

    The score each region is ordered by is
    ``(1 - w) * effective_ci(now) + w * mean effective_ci(t .. t+H)``.
    Myopically (``w = 0``) this is :class:`CarbonGreedyRouter`; at ``w = 1``
    it positions purely for the coming window.  The blend is what lets the
    fleet start walking share toward a region hours before its solar
    trough — the pre-shift the ROADMAP calls proactive routing.

    The **regret guard** makes the forecast earn its weight: every split
    files the prediction it acted on, and when the lookahead horizon
    matures the prediction is scored against the observed intensity.  The
    running relative MAE above ``regret_threshold`` decays the blend
    weight proportionally (a forecaster twice as bad as tolerated gets
    half the trust), so a broken forecaster degrades the policy gracefully
    toward myopic carbon-greedy instead of routing on fiction.
    """

    lookahead_h: float = 6.0
    blend: float = 0.6
    regret_threshold: float = 0.25
    regret_memory: float = 0.9
    #: Weight rankings by each region's marginal-device joules/request
    #: (identical to the intensity ranking on a homogeneous fleet); the
    #: blended intensity score and the pre-wake projection both get the
    #: efficiency scaling, while the regret guard keeps scoring the raw
    #: intensity forecasts (the forecaster predicts grids, not silicon).
    efficiency_weighted: bool = True
    name: str = field(default="forecast-aware", init=False)
    needs_sla_caps = True
    needs_forecast = True
    _pending: list[tuple[float, np.ndarray]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _observed: list[tuple[float, np.ndarray]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _err_ewma: float = field(default=0.0, init=False, repr=False)
    _ref_ewma: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.lookahead_h < 0:
            raise ValueError(f"lookahead must be non-negative, got {self.lookahead_h}")
        if not 0.0 <= self.blend <= 1.0:
            raise ValueError(f"blend must be in [0, 1], got {self.blend}")
        if self.regret_threshold <= 0:
            raise ValueError(
                f"regret threshold must be positive, got {self.regret_threshold}"
            )
        if not 0.0 <= self.regret_memory < 1.0:
            raise ValueError(
                f"regret memory must be in [0, 1), got {self.regret_memory}"
            )

    @property
    def forecast_weight(self) -> float:
        """The blend weight after the regret guard's discount."""
        if self._ref_ewma <= 0.0:
            return self.blend
        rel_mae = self._err_ewma / self._ref_ewma
        if rel_mae <= self.regret_threshold:
            return self.blend
        return self.blend * (self.regret_threshold / rel_mae)

    def reset(self) -> None:
        self._pending = []
        self._observed = []
        self._err_ewma = 0.0
        self._ref_ewma = 0.0

    def _settle_matured(self, ctx: RoutingContext) -> None:
        """Score window predictions whose windows have fully elapsed.

        A prediction filed at ``t`` claimed the mean intensity over
        ``(t, t + lookahead]``; once ``t + lookahead`` arrives, the claim is
        compared against the mean of the intensities actually observed over
        that window (the router sees every epoch's ``ctx.ci``, so the
        realized mean is just bookkeeping).
        """
        self._observed.append((ctx.t_h, np.array(ctx.ci, dtype=np.float64)))
        horizon = max(ctx.lookahead_h, self.lookahead_h)
        self._observed = [
            o for o in self._observed if o[0] >= ctx.t_h - horizon - 1e-9
        ]
        matured = [p for p in self._pending if p[0] <= ctx.t_h + 1e-9]
        if not matured:
            return
        self._pending = [p for p in self._pending if p[0] > ctx.t_h + 1e-9]
        for target_t, predicted in matured:
            # The prediction covered (filing time, filing time + horizon];
            # exclude the filing-time observation itself or a trending
            # signal penalizes even a perfect forecaster.
            window = [
                ci
                for t, ci in self._observed
                if target_t - horizon + 1e-9 < t <= target_t + 1e-9
            ]
            if not window:
                # Sub-epoch lookahead: no observation falls strictly
                # inside the window.  Score against the current reading so
                # the guard still learns instead of going silently inert.
                window = [np.array(ctx.ci, dtype=np.float64)]
            realized = np.mean(window, axis=0)
            err = float(np.mean(np.abs(predicted - realized)))
            ref = float(np.mean(realized))
            m = self.regret_memory
            self._err_ewma = m * self._err_ewma + (1.0 - m) * err
            self._ref_ewma = m * self._ref_ewma + (1.0 - m) * ref

    def _score(self, ctx: RoutingContext) -> np.ndarray:
        """Blended ranking score; also advances the regret bookkeeping.

        Called exactly once per epoch (by either :meth:`split` or
        :meth:`region_order`) — it settles matured predictions and files
        the one this epoch acts on.
        """
        self._settle_matured(ctx)
        forecast = ctx.effective_forecast_ci
        if forecast is None:
            # No forecasters provisioned: degrade to myopic carbon-greedy.
            return ctx.effective_ci
        w = self.forecast_weight
        self._pending.append(
            (ctx.t_h + ctx.lookahead_h, np.array(ctx.forecast_ci, dtype=np.float64))
        )
        return (1.0 - w) * ctx.effective_ci + w * forecast

    def region_order(self, ctx: RoutingContext) -> np.ndarray:
        scores = self._score(ctx)
        if self.efficiency_weighted:
            scores = ctx.efficiency_scores(scores)
        return np.argsort(scores, kind="stable")

    def split(self, ctx: RoutingContext) -> np.ndarray:
        return _water_fill(ctx, self.region_order(ctx)) / ctx.global_rate_per_s

    def capacity_hint(self, ctx: RoutingContext) -> np.ndarray | None:
        """Project next-epoch per-region rates from the lookahead window.

        Replays the water-fill with (a) regions ordered by the *forecast*
        effective intensity — where this policy will be steering traffic
        shortly — and (b) the predicted global rate one epoch ahead.  The
        pre-wake request each gated region receives is its rate in that
        projection.  Deliberately does not call :meth:`_score`: the hint
        must not file or settle regret-guard predictions, which happen
        exactly once per epoch in the real split.
        """
        if (
            ctx.effective_forecast_ci is None
            or ctx.forecast_global_rate_per_s is None
            or ctx.forecast_global_rate_per_s <= 0.0
        ):
            return None
        scores = ctx.effective_forecast_ci
        if self.efficiency_weighted:
            scores = ctx.efficiency_scores(scores)
        order = np.argsort(scores, kind="stable")
        projected = replace(
            ctx, global_rate_per_s=float(ctx.forecast_global_rate_per_s)
        )
        return _water_fill(projected, order)


def plan_origin_cells(
    ctx: RoutingContext,
    order: np.ndarray,
    origin_rates: np.ndarray,
    latency_ms: np.ndarray,
    user_targets_ms: np.ndarray,
    sla_rate_fn,
    measured_p95_ms: np.ndarray | None = None,
    prev_plan: np.ndarray | None = None,
    session_keep_frac: float = 0.0,
    resident_floor_share: float = 0.0,
) -> np.ndarray:
    """Pair-aware greedy fill over (origin, region) cells.

    The demand-mode replacement for :func:`_water_fill`: instead of
    splitting one scalar rate across regions and mapping origins on
    afterwards, traffic is placed cell by cell so the SLA is charged per
    (origin, serving-region) pair *while routing*, not just when judged.

    Serving origin ``o`` at region ``r`` leaves the service a latency
    budget of ``user_targets_ms[r] - latency_ms[o, r]``; because one queue
    serves everyone, a region's admissible total rate is governed by the
    *tightest* budget among the origins it serves —
    ``sla_rate_fn(r, budget)`` (a bisection against the deployed
    configuration's p95) prices that.  Cells are visited in the policy's
    region ``order``, nearest origins first within a region, so a region
    takes cheap traffic before far traffic that would throttle it.

    ``measured_p95_ms`` (the previous epoch's DES measurement per region,
    when available) double-checks the analytic bisection: a cell is only
    filled if the *measured* service tail also fits its budget — the
    analytic estimator can flatter a freshly-booted configuration by a
    few milliseconds, exactly enough to park far-origin traffic on the
    wrong side of its SLA.

    Three kinds of pinned traffic precede the policy fill:

    * **session retention** — ``session_keep_frac`` of each cell of
      ``prev_plan`` (scaled down with its origin's demand) stays where it
      is: resident sessions drain, they do not teleport.  This is the
      asymmetry that makes chasing a briefly-clean grid a trap — you can
      admit traffic into it instantly, but you leave at drain speed.
    * **data residency** — ``resident_floor_share`` of each origin's rate
      is pinned to the origin's nearest region.
    * **ramp-up caps** — a region may gain at most
      ``ctx.max_ramp_share`` of the global rate over its previous share
      per epoch (admission warm-up), via ``ctx.prev_shares``.

    Leftover supply that no SLA budget can absorb spills to capacity
    headroom in latency order (conservation beats caps, as in
    :func:`_water_fill`); if even capacity is exhausted the residue lands
    proportionally to nominal rates and the overload shows up in the DES
    measurements.

    Returns the (origin x region) rate plan; row sums equal
    ``origin_rates`` and the grand total the global rate.

    A minimal two-origin, two-region plan — region 0 is preferred (say,
    the cleaner grid), each origin is near one region, and conservation
    is structural:

    >>> import numpy as np
    >>> ctx = RoutingContext(
    ...     t_h=0.0, global_rate_per_s=30.0,
    ...     ci=np.array([100.0, 300.0]), pue=np.ones(2),
    ...     net_latency_ms=np.array([5.0, 30.0]),
    ...     nominal_rates=np.array([20.0, 10.0]),
    ...     capacity_rates=np.array([26.0, 13.0]),
    ...     sla_cap_rates=np.array([26.0, 13.0]),
    ...     floor_rates=np.array([1.0, 0.5]))
    >>> latency = np.array([[5.0, 80.0], [70.0, 8.0]])  # origins x regions
    >>> plan = plan_origin_cells(
    ...     ctx, order=np.array([0, 1]),
    ...     origin_rates=np.array([18.0, 12.0]),
    ...     latency_ms=latency,
    ...     user_targets_ms=np.array([120.0, 120.0]),
    ...     sla_rate_fn=lambda r, budget_ms: ctx.sla_cap_rates[r])
    >>> bool(np.allclose(plan.sum(axis=1), [18.0, 12.0]))  # demand conserved
    True
    >>> bool(plan[0, 0] > plan[0, 1])  # origin 0 served mostly at region 0
    True
    """
    n_o, n_r = latency_ms.shape
    latency_ms = np.asarray(latency_ms, dtype=np.float64)
    user_targets_ms = np.asarray(user_targets_ms, dtype=np.float64)
    supply = np.asarray(origin_rates, dtype=np.float64).copy()
    plan = np.zeros((n_o, n_r))
    totals = np.zeros(n_r)
    caps = _ramp_up_caps(ctx, np.minimum(ctx.capacity_rates, ctx.sla_cap_rates))
    # The tightest service budget each region has committed to so far.
    # Only *meetable* budgets tighten it: a cell whose hop alone exceeds
    # the target violates at any rate — it is lost regardless of the
    # region's total, so it must not throttle the region's other streams.
    budgets = np.full(n_r, np.inf)

    # 1. Session retention: prior cells persist, scaled down with their
    # origin's demand (sessions end, they don't multiply), keep-fraction
    # bounded by how fast resident traffic can be drained away.  Cells
    # below a de-minimis share of their origin's demand are dropped —
    # otherwise a geometrically-decaying residue keeps a far cell alive
    # (and its tight budget throttling the region) for the whole run.
    # Whole-matrix placement: the keep matrix's row sums never exceed the
    # origin's supply (``ratio`` caps them at ``keep_frac * supply``), so
    # no cell is supply-limited and the per-cell ``place`` loop reduces
    # to masked array adds.  Region budgets tighten by the min eligible
    # pair budget — a min is placement-order-free.  This phase stays on
    # arrays: its row and column sums are numpy's, and from eight cells
    # on numpy sums pairwise, which a Python loop would not reproduce.
    if prev_plan is not None and session_keep_frac > 0.0:
        prev_rows = prev_plan.sum(axis=1)
        ratio = np.where(
            prev_rows > 0.0,
            np.minimum(1.0, supply / np.maximum(prev_rows, 1e-300)),
            0.0,
        )
        keep = prev_plan * ratio[:, None] * session_keep_frac
        tiny = 1e-3 * np.asarray(origin_rates, dtype=np.float64)
        placed = np.where(keep > tiny[:, None], keep, 0.0)
        plan += placed
        supply = np.maximum(supply - placed.sum(axis=1), 0.0)
        totals += placed.sum(axis=0)
        pair_budgets = user_targets_ms[None, :] - latency_ms
        eligible = np.where(
            (placed > 0.0) & (pair_budgets > 0.0), pair_budgets, np.inf
        )
        budgets = np.minimum(budgets, eligible.min(axis=0))

    # The greedy phases visit a handful of cells one at a time, which
    # Python floats do faster than numpy scalars, with the same IEEE
    # arithmetic.  Every sum below runs left to right in visiting order.
    plan = plan.tolist()
    supply = supply.tolist()
    totals = totals.tolist()
    budgets = budgets.tolist()
    latency = latency_ms.tolist()
    targets = user_targets_ms.tolist()
    # Column ``r`` of the stable argsort: region r's origins, nearest first.
    near_origins = np.argsort(latency_ms, axis=0, kind="stable").T.tolist()

    def place(o: int, r: int, amount: float) -> float:
        take = min(supply[o], amount)
        if take <= 0.0:
            return 0.0
        plan[o][r] += take
        supply[o] -= take
        totals[r] += take
        pair_budget = targets[r] - latency[o][r]
        if pair_budget > 0.0:
            budgets[r] = min(budgets[r], pair_budget)
        return take

    # 2. Data residency: a floor share of each origin stays at its
    # nearest region, whatever the policy prefers.  Each origin touches
    # one (origin, home) cell; origins go in order, so a home shared by
    # several of them sums their takes as ``np.add.at`` did.
    if resident_floor_share > 0.0:
        homes = np.argmin(latency_ms, axis=1).tolist()
        floors = (
            resident_floor_share * np.asarray(origin_rates, dtype=np.float64)
        ).tolist()
        for o, home in enumerate(homes):
            # ``np.clip(short, 0.0, supply)``, a tie taking the bound.
            take = min(supply[o], max(0.0, floors[o] - plan[o][home]))
            plan[o][home] += take
            supply[o] -= take
            totals[home] += take
            pair_budget = targets[home] - latency[o][home]
            if take > 0.0 and 0.0 < pair_budget < budgets[home]:
                budgets[home] = pair_budget

    # 2b. Keep-alive floors: a region that is nobody's home (two regions
    # in one zone) could otherwise be planned to exactly zero on the
    # first epoch, and a zero-rate region has no defined service
    # measurement.  Draw up to the context's per-region floor from the
    # nearest origins — nearest-first keeps the draw SLA-cheap.
    keep_alive = np.minimum(ctx.floor_rates, ctx.capacity_rates).tolist()
    for r in range(n_r):
        shortfall = keep_alive[r] - totals[r]
        for o in near_origins[r]:
            if shortfall <= 0.0:
                break
            shortfall -= place(o, r, shortfall)

    # 3. Policy fill: regions in preference order, near origins first.
    # A non-finite measurement never vetoes a cell.
    if measured_p95_ms is None:
        tails = [-math.inf] * n_r
    else:
        tails = [
            tail if math.isfinite(tail) else -math.inf
            for tail in np.asarray(measured_p95_ms, dtype=np.float64).tolist()
        ]
    caps = caps.tolist()
    for r in np.asarray(order).tolist():
        for o in near_origins[r]:
            if supply[o] <= 0.0:
                continue
            budget = min(budgets[r], targets[r] - latency[o][r])
            if budget <= 0.0:
                continue  # this pair can never meet the SLA
            if tails[r] > budget:
                continue  # the measured tail already blows this budget
            cap = min(caps[r], sla_rate_fn(r, float(budget)))
            room = cap - totals[r]
            if room <= 0.0:
                continue
            place(o, r, room)

    # 4. Conservation spill: capacity headroom in latency order, then
    # proportional to nominal rates.
    if np.sum(supply) > 1e-12:
        capacity = np.asarray(ctx.capacity_rates, dtype=np.float64).tolist()
        by_latency = np.argsort(latency_ms, axis=1, kind="stable").tolist()
        for o in range(n_o):
            for r in by_latency[o]:
                if supply[o] <= 0.0:
                    break
                room = capacity[r] - totals[r]
                if room > 0.0:
                    place(o, r, room)
        if np.sum(supply) > 1e-12:
            basis = (ctx.nominal_rates / ctx.nominal_rates.sum()).tolist()
            for o in range(n_o):
                amount = supply[o]
                if amount > 0.0:
                    row = plan[o]
                    for r, share in enumerate(basis):
                        row[r] += amount * share
    return np.array(plan, dtype=np.float64).reshape(n_o, n_r)


ROUTER_NAMES = ("static", "latency", "carbon-greedy", "forecast-aware")


def make_router(name: str, **kwargs) -> Router:
    """Factory by policy name (one of :data:`ROUTER_NAMES`)."""
    classes = {
        "static": StaticRouter,
        "latency": LatencyAwareRouter,
        "carbon-greedy": CarbonGreedyRouter,
        "forecast-aware": ForecastAwareRouter,
    }
    try:
        cls = classes[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; valid: {', '.join(ROUTER_NAMES)}"
        ) from None
    return cls(**kwargs)
