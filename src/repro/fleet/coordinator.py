"""FleetCoordinator: N regional control loops under one routed workload.

The coordinator owns the global workload and advances all regions in
lock-step epochs.  Each epoch it reads every region's grid intensity,
builds a :class:`RoutingContext` (capacity caps, SLA caps, un-shiftable
floors, optionally per-region intensity forecasts and ramp limits) and lets
the :class:`~repro.fleet.routing.Router` split the global rate; each region
then runs exactly the seed controller epoch at its assigned rate —
monitor, re-optimize on the 5% trigger, serve, account.

Two demand modes:

* **constant** (``demand=None``, the PR-1 path) — the global rate is the
  fixed sum of the regions' nominal sizings.  With one region and the
  static router the coordinator is a transparent wrapper: the single
  region receives precisely its nominal rate every epoch and the resulting
  :class:`~repro.core.controller.RunResult` is bit-for-bit the seed
  :meth:`CarbonAwareInferenceService.run` output.
* **geo-diurnal** (``demand=`` a :class:`~repro.demand.DemandModel`) —
  per-origin nonstationary rates from :mod:`repro.demand` drive a
  time-varying global rate; an origin→region
  :class:`~repro.demand.LatencyMatrix` prices every (origin,
  serving-region) network hop (assembly tightens each region's SLA
  baseline by its nearest-origin hop; farther origins are charged per
  pair at routing and judgment time), and each epoch's traffic is placed
  cell by cell by a pair-aware planner so SLA attainment is charged per
  (origin, region) pair.  The degenerate
  ``ConstantDemandModel`` with a single co-located origin reproduces the
  constant path bit-for-bit (asserted in tests).

With elastic capacity (``gating=``) the epoch becomes a **gate → route →
wake** pipeline: scheduled capacity transitions land before the routing
envelope is computed, the router splits the rate against physical
capacity, and each region then reconciles its routed rate with its awake
pool — waking GPUs reactively (a wake-latency window served at the
pre-wake capacity) or pre-waking them from the forecast-aware router's
lookahead hints.  Sleeping GPUs are charged the power model's sleep-state
watts and wake transitions their reload energy, folded into the per-epoch
records so every carbon number sees them.  ``gating=None`` (default) is
the always-on fleet, bit-for-bit the PR-1/PR-2 behaviour.

With a deferrable batch class (``batch=``) the epoch becomes the full
**gate → route → admit-batch → wake → step** pipeline: after interactive
routing the :class:`~repro.shifting.TemporalScheduler` releases queued
batch work into the epoch's *leftover* awake, SLA-safe capacity — only
when the epoch is forecast-clean relative to the windows still inside
each lot's deadline, or when a deadline forces it — and its hold hints
ask the capacity managers to keep GPUs awake through clean valleys
instead of sleeping past them.  Batch traffic rides the same
``service.step`` rates as interactive traffic, so the pool-aware
evaluators price its energy and carbon with no second accounting path.
``batch=None`` (default) leaves every earlier pipeline bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.controller import EpochCapacity, RunResult
from repro.core.evaluator import CacheStats
from repro.fleet.regional import RegionalService
from repro.fleet.regions import Region
from repro.fleet.routing import Router, RoutingContext, plan_origin_cells

if TYPE_CHECKING:
    from repro.demand import DemandModel, LatencyMatrix
    from repro.fleet.capacity import GatingPolicy
    from repro.shifting import BatchCompletion, BatchJobClass

__all__ = [
    "FleetCoordinator",
    "FleetResult",
    "DEFAULT_FLOOR_SHARE",
    "DEFAULT_DEMAND_SCALE",
    "share_evaluator_caches",
]

#: Share of a region's nominal rate that can never be shifted away —
#: geo-resident traffic (data-residency, session affinity).  Strictly
#: positive, so every routed rate stays positive (a zero-rate region has
#: no defined service measurement).
DEFAULT_FLOOR_SHARE = 0.05

#: Demand-model mean global rate as a fraction of the fleet's nominal
#: sizing: provisioning with headroom over *mean* demand so the diurnal
#: peak (mean x (1 + swing)) stays within the fleet's capacity envelope.
DEFAULT_DEMAND_SCALE = 0.8


def share_evaluator_caches(services: list[RegionalService]) -> int:
    """Pool analytic evaluator caches across same-hardware regions.

    Regions with an identical model family, cluster size and device pool
    evaluate the *same* pure function — analytic evaluations depend only
    on the full cache key ``(graph, rate, awake, pool)`` — so one region's
    warm-up can serve every twin's.  This merges each such group's
    optimization-evaluator stores behind one shared dictionary (results
    are unchanged, only recomputation is saved); hit/miss counters remain
    per-evaluator, so per-region cache stats stay honest.

    DES measurement evaluators are *never* pooled: their samples come from
    per-region seeds, and sharing them would silently change
    measurements.  Returns the number of groups actually merged.
    """
    groups: dict[tuple, list] = {}
    for s in services:
        ev = getattr(s.service.scheme, "evaluator", None)
        if ev is None or ev.method != "analytic":
            continue
        # The zoo/perf identities guard the pure-function claim: two
        # evaluators only compute the same function when they price the
        # same model zoo on the same performance oracle (one coordinator
        # shares those objects across its regions; callers mixing
        # coordinators built on different testbeds must not merge).
        key = (
            id(ev.zoo), id(ev.perf),
            ev.family, ev.n_gpus, ev.jitter_cv, ev.pool_key,
        )
        groups.setdefault(key, []).append(ev)
    merged = 0
    for group in groups.values():
        if len(group) < 2:
            continue
        shared = group[0].cache_store
        for ev in group[1:]:
            ev.adopt_cache(shared)
        merged += 1
    return merged


@dataclass
class FleetResult:
    """Aggregated outcome of one fleet run: global totals + per-region runs.

    The demand-mode fields (``origin_names`` onward) are empty/None for
    constant-demand runs; :attr:`has_demand` gates everything derived from
    them.
    """

    router_name: str
    scheme_name: str
    application: str
    global_rate_per_s: float
    regions: tuple[Region, ...]
    results: tuple[RunResult, ...]
    demand_name: str | None = None
    origin_names: tuple[str, ...] = ()
    latency_matrix_ms: np.ndarray | None = None
    #: Per-epoch (origin x region) routed-rate transport plans.
    origin_plans: tuple[np.ndarray, ...] = ()
    #: The raw end-to-end p95 target shared by every region (demand mode).
    user_sla_target_ms: float | None = None
    #: Elastic-capacity mode the run used (``None``: always-on).
    gating_name: str | None = None
    #: Deferrable batch class the run carried (``None``: interactive only).
    batch_name: str | None = None
    #: Per-epoch (epoch x region) admitted batch rates (req/s).
    batch_rates: np.ndarray | None = None
    #: Per-region tuples of :class:`~repro.shifting.BatchCompletion`.
    batch_completions: tuple[tuple[BatchCompletion, ...], ...] = ()
    #: Batch requests still queued when the run ended.
    batch_pending_requests: float = 0.0
    #: Queued batch requests already past deadline at the end of the run.
    batch_overdue_requests: float = 0.0

    # ------------------------------------------------------------------ #
    # global totals
    # ------------------------------------------------------------------ #

    @property
    def duration_h(self) -> float:
        return self.results[0].duration_h

    @property
    def total_requests(self) -> float:
        return sum(r.total_requests for r in self.results)

    @property
    def total_energy_j(self) -> float:
        return sum(r.total_energy_j for r in self.results)

    @property
    def total_carbon_g(self) -> float:
        return sum(r.total_carbon_g for r in self.results)

    @property
    def carbon_g_per_request(self) -> float:
        """Total carbon over total requests (NaN for a zero-traffic run).

        Gating makes zero-request regions (and, in degenerate scenarios,
        epochs) routine; the ratio must degrade to NaN, never divide by
        zero.
        """
        total = self.total_requests
        return self.total_carbon_g / total if total > 0 else float("nan")

    @property
    def a_base(self) -> float:
        return self.results[0].a_base

    @property
    def mean_accuracy(self) -> float:
        """Request-weighted accuracy across every region's epochs.

        Regions that served nothing (fully drained while gated) carry no
        weight and no defined accuracy; they are skipped rather than
        letting their NaN poison the fleet mean.
        """
        total = self.total_requests
        if total <= 0:
            return float("nan")
        weighted = sum(
            r.mean_accuracy * r.total_requests
            for r in self.results
            if r.total_requests > 0
        )
        return weighted / total

    @property
    def accuracy_loss_pct(self) -> float:
        return (self.a_base - self.mean_accuracy) / self.a_base * 100.0

    @property
    def sla_attainment(self) -> float:
        """Fraction of requests served within the SLA *including* network.

        Each region's SLA target is already tightened by its network
        latency at assembly time, so the service-side check against
        ``sla_target_ms`` is exactly the user-observed end-to-end check a
        geographic router must protect.  (Demand-mode runs additionally
        expose :attr:`user_sla_attainment`, which re-prices the hop per
        (origin, serving-region) pair instead of using the region mean.)
        """
        met = 0.0
        for result in self.results:
            for e in result.epochs:
                if np.isfinite(e.p95_ms) and e.p95_ms <= result.sla_target_ms:
                    met += e.requests
        total = self.total_requests
        return met / total if total > 0 else 0.0

    @property
    def scheme_by_region(self) -> dict[str, str]:
        """Each region's optimization scheme (they may differ per region)."""
        return {
            region.name: result.scheme_name
            for region, result in zip(self.regions, self.results)
        }

    @property
    def request_shares(self) -> dict[str, float]:
        """Fraction of all served requests each region carried."""
        total = self.total_requests
        return {
            region.name: (result.total_requests / total if total > 0 else 0.0)
            for region, result in zip(self.regions, self.results)
        }

    # ------------------------------------------------------------------ #
    # elastic-capacity views
    # ------------------------------------------------------------------ #

    @property
    def has_gating(self) -> bool:
        return self.gating_name is not None

    def awake_gpu_series(self) -> np.ndarray:
        """(epoch x region) awake-GPU counts (full pool where ungated)."""
        out = np.zeros((len(self.results[0].epochs), len(self.regions)))
        for j, (region, result) in enumerate(zip(self.regions, self.results)):
            for i, e in enumerate(result.epochs):
                out[i, j] = (
                    e.awake_gpus if e.awake_gpus is not None else region.n_gpus
                )
        return out

    @property
    def mean_awake_fraction(self) -> float:
        """Average share of the fleet's GPUs that were awake (1.0 always-on)."""
        totals = np.array([r.n_gpus for r in self.regions], dtype=np.float64)
        awake = self.awake_gpu_series()
        return float(awake.sum() / (totals.sum() * awake.shape[0]))

    @property
    def cache_stats(self) -> CacheStats:
        """Pooled evaluator cache counters across regions and evaluators."""
        hits = misses = size = batched = 0
        for stats in self.cache_stats_by_region.values():
            hits += stats.hits
            misses += stats.misses
            size += stats.size
            batched += stats.batched
        return CacheStats(hits=hits, misses=misses, size=size, batched=batched)

    @property
    def cache_stats_by_region(self) -> dict[str, CacheStats]:
        """Each region's pooled evaluator cache counters (measure + opt)."""
        out: dict[str, CacheStats] = {}
        for region, r in zip(self.regions, self.results):
            hits = misses = size = batched = 0
            for stats in (r.measure_cache, r.opt_cache):
                if stats is not None:
                    hits += stats.hits
                    misses += stats.misses
                    size += stats.size
                    batched += stats.batched
            out[region.name] = CacheStats(
                hits=hits, misses=misses, size=size, batched=batched
            )
        return out

    # ------------------------------------------------------------------ #
    # demand-mode views
    # ------------------------------------------------------------------ #

    @property
    def has_demand(self) -> bool:
        return bool(self.origin_plans)

    def _require_demand(self) -> None:
        if not self.has_demand:
            raise ValueError(
                "this fleet ran constant demand; origin views need a demand model"
            )

    @property
    def origin_request_shares(self) -> dict[str, float]:
        """Routed-rate share of global traffic each origin generated."""
        self._require_demand()
        totals = np.sum(self.origin_plans, axis=0)  # (origins, regions)
        total = totals.sum()
        return {
            name: (float(totals[i].sum() / total) if total > 0 else 0.0)
            for i, name in enumerate(self.origin_names)
        }

    @property
    def mean_net_latency_ms(self) -> float:
        """Traffic-weighted network latency users actually experienced."""
        self._require_demand()
        totals = np.sum(self.origin_plans, axis=0)
        grand = float(totals.sum())
        if grand <= 0:
            return float("nan")
        return float((totals * self.latency_matrix_ms).sum() / grand)

    def _user_targets_ms(self) -> np.ndarray:
        """Per-region raw end-to-end p95 targets (tightening undone)."""
        return np.array(
            [
                result.sla_target_ms + region.net_latency_ms
                for region, result in zip(self.regions, self.results)
            ]
        )

    def _met_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(met, total) routed rates per (origin, region), over all epochs.

        The single judging rule of the demand layer: a cell's traffic
        meets the SLA when the serving region's epoch p95 plus the
        *pair's* matrix latency fits the region's end-to-end target
        (traffic in epochs with a non-finite p95 counts only as total).
        """
        lat = self.latency_matrix_ms
        targets = self._user_targets_ms()
        met = np.zeros_like(lat)
        total = np.zeros_like(lat)
        for i, plan in enumerate(self.origin_plans):
            for j, result in enumerate(self.results):
                p95 = result.epochs[i].p95_ms
                total[:, j] += plan[:, j]
                if not np.isfinite(p95):
                    continue
                ok = p95 + lat[:, j] <= targets[j]
                met[ok, j] += plan[ok, j]
        return met, total

    @property
    def user_sla_attainment(self) -> float:
        """Attainment with the network hop priced per (origin, region) pair.

        Weighted by the transport plans' routed rates; see
        :meth:`_met_matrix` for the per-cell rule.
        """
        self._require_demand()
        met, total = self._met_matrix()
        grand = float(total.sum())
        return float(met.sum()) / grand if grand > 0 else 0.0

    # ------------------------------------------------------------------ #
    # batch-workload views
    # ------------------------------------------------------------------ #

    @property
    def has_batch(self) -> bool:
        return self.batch_name is not None

    def _require_batch(self) -> None:
        if not self.has_batch:
            raise ValueError(
                "this fleet ran no batch class; batch views need batch= "
                "(or a [batch] spec section)"
            )

    @property
    def _epoch_s(self) -> float:
        """Epoch length in seconds (every region shares it)."""
        return self.duration_h * 3600.0 / len(self.results[0].epochs)

    @property
    def batch_completed_requests(self) -> float:
        """Batch requests actually admitted and served during the run."""
        self._require_batch()
        return float(
            sum(c.requests for per in self.batch_completions for c in per)
        )

    @property
    def batch_on_time_requests(self) -> float:
        self._require_batch()
        return float(
            sum(
                c.requests
                for per in self.batch_completions
                for c in per
                if c.on_time
            )
        )

    @property
    def batch_deadline_attainment(self) -> float:
        """Fraction of due batch work that met its deadline.

        The denominator counts every request whose deadline has been
        decided: completions plus still-queued overdue work.  Requests
        queued but not yet due don't count either way; a run with no due
        work yet has no defined attainment (NaN).
        """
        self._require_batch()
        decided = self.batch_completed_requests + self.batch_overdue_requests
        return (
            self.batch_on_time_requests / decided
            if decided > 0
            else float("nan")
        )

    @property
    def batch_carbon_g_per_request(self) -> float:
        """Carbon attributed to batch traffic, per batch request.

        Batch requests ride the same epoch rates as interactive ones, so
        each epoch's carbon is attributed pro-rata by the batch share of
        the epoch's served rate — exactly the marginal pricing the
        pool-aware evaluators already applied.
        """
        self._require_batch()
        total_req = total_carbon = 0.0
        for j, result in enumerate(self.results):
            for i, e in enumerate(result.epochs):
                batch_rate = float(self.batch_rates[i, j])
                if batch_rate <= 0.0 or e.rate_per_s <= 0.0:
                    continue
                share = min(1.0, batch_rate / e.rate_per_s)
                total_carbon += e.carbon_g * share
                total_req += e.requests * share
        return total_carbon / total_req if total_req > 0 else float("nan")

    @property
    def mean_shift_h(self) -> float:
        """Request-weighted mean hours batch work waited before running."""
        self._require_batch()
        total = self.batch_completed_requests
        if total <= 0:
            return float("nan")
        moved = sum(
            c.requests * c.age_h for per in self.batch_completions for c in per
        )
        return float(moved / total)

    def shift_histogram(self, bin_h: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """How far batch work moved: ``(bin_edges_h, requests)`` arrays.

        Bin ``k`` counts the requests admitted between ``k * bin_h`` and
        ``(k + 1) * bin_h`` hours after arriving; the edges array has one
        more entry than the counts, ``numpy.histogram`` style.
        """
        self._require_batch()
        if bin_h <= 0.0:
            raise ValueError(f"histogram bin must be positive, got {bin_h}")
        ages = [c.age_h for per in self.batch_completions for c in per]
        weights = [c.requests for per in self.batch_completions for c in per]
        top = max(ages, default=0.0)
        n_bins = max(1, int(np.ceil((top + 1e-9) / bin_h)))
        edges = np.arange(n_bins + 1, dtype=np.float64) * bin_h
        counts, _ = np.histogram(ages, bins=edges, weights=weights)
        return edges, counts

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def table(self):
        headers = (
            "Region", "Share%", "Mean ci", "Carbon(g)", "AccLoss%",
            "p95+net(ms)", "SLA%", "CacheHit%", "Batch%",
        )
        by_region = self.cache_stats_by_region
        grand_total = self.total_requests
        rows = []
        for region, result in zip(self.regions, self.results):
            requests = result.total_requests
            share = requests / grand_total * 100.0 if grand_total > 0 else 0.0
            met = sum(
                e.requests
                for e in result.epochs
                if np.isfinite(e.p95_ms) and e.p95_ms <= result.sla_target_ms
            )
            rows.append(
                (
                    region.name,
                    f"{share:.1f}",
                    f"{region.trace.mean():.0f}",
                    f"{result.total_carbon_g:,.0f}",
                    f"{result.accuracy_loss_pct:.2f}" if requests > 0 else "-",
                    f"{result.p95_ms + region.net_latency_ms:.1f}",
                    f"{met / requests * 100.0:.1f}" if requests > 0 else "-",
                    f"{100 * by_region[region.name].hit_rate:.1f}",
                    f"{100 * by_region[region.name].batch_rate:.1f}",
                )
            )
        rows.append(
            (
                "fleet",
                "100.0",
                "-",
                f"{self.total_carbon_g:,.0f}",
                f"{self.accuracy_loss_pct:.2f}",
                "-",
                f"{self.sla_attainment * 100.0:.1f}",
                f"{100 * self.cache_stats.hit_rate:.1f}",
                f"{100 * self.cache_stats.batch_rate:.1f}",
            )
        )
        return headers, rows

    def origin_table(self):
        """Per-origin demand-mode summary: share, latency, user SLA."""
        self._require_demand()
        headers = ("Origin", "Demand%", "Net(ms)", "UserSLA%", "Top region")
        totals = np.sum(self.origin_plans, axis=0)
        lat = self.latency_matrix_ms
        met, cell_totals = self._met_matrix()
        grand = float(totals.sum())
        rows = []
        for i, name in enumerate(self.origin_names):
            row_total = float(totals[i].sum())
            if row_total <= 0:
                # An origin can be routed nothing over a short or fully
                # gated window; its shares and latencies are undefined.
                rows.append((name, "0.0", "-", "-", "-"))
                continue
            mean_lat = float((totals[i] * lat[i]).sum() / row_total)
            top = int(np.argmax(totals[i]))
            cell_total = float(cell_totals[i].sum())
            user_sla = (
                f"{100 * met[i].sum() / cell_total:.1f}" if cell_total > 0 else "-"
            )
            rows.append(
                (
                    name,
                    f"{100 * row_total / grand:.1f}",
                    f"{mean_lat:.1f}",
                    user_sla,
                    f"{self.regions[top].name} "
                    f"({100 * totals[i, top] / row_total:.0f}%)",
                )
            )
        return headers, rows

    def batch_table(self):
        """Per-region batch-workload summary: volume, shift, deadlines.

        Undefined metrics (a region that carried no batch work, or a run
        whose due work is empty) render as ``"-"`` so the columns stay
        deterministic-width regardless of scenario shape.
        """
        self._require_batch()
        headers = (
            "Region", "BatchReq", "BatchShare%", "MeanShift(h)", "OnTime%",
        )
        grand = self.batch_completed_requests
        rows = []
        for j, region in enumerate(self.regions):
            per = self.batch_completions[j]
            requests = float(sum(c.requests for c in per))
            if requests <= 0:
                rows.append((region.name, "0", "0.0", "-", "-"))
                continue
            on_time = float(sum(c.requests for c in per if c.on_time))
            shift = sum(c.requests * c.age_h for c in per) / requests
            rows.append(
                (
                    region.name,
                    f"{requests:,.0f}",
                    f"{requests / grand * 100.0:.1f}" if grand > 0 else "-",
                    f"{shift:.2f}",
                    f"{on_time / requests * 100.0:.1f}",
                )
            )
        attainment = self.batch_deadline_attainment
        rows.append(
            (
                "fleet",
                f"{grand:,.0f}",
                "100.0" if grand > 0 else "-",
                f"{self.mean_shift_h:.2f}" if grand > 0 else "-",
                f"{attainment * 100.0:.1f}" if np.isfinite(attainment) else "-",
            )
        )
        return headers, rows


class FleetCoordinator:
    """Runs N regional services under one router and one global workload.

    Takes built parts: :func:`repro.scenarios.build_coordinator` assembles
    them from a spec, and a caller needing a part no spec can name (a
    custom region, a router instance) passes
    :meth:`RegionalService.create` services directly.
    """

    def __init__(
        self,
        services: list[RegionalService],
        router: Router,
        demand: DemandModel | None = None,
        latency_matrix: LatencyMatrix | None = None,
        ramp_share_per_h: float | None = None,
        drain_share_per_h: float | None = None,
        forecaster: str = "diurnal",
        gating: GatingPolicy | None = None,
        batch: BatchJobClass | None = None,
    ) -> None:
        if not services:
            raise ValueError("a fleet needs at least one region")
        for label, value in (("ramp", ramp_share_per_h), ("drain", drain_share_per_h)):
            if value is not None and value <= 0.0:
                raise ValueError(
                    f"{label} share per hour must be positive, got {value}"
                )
        families = {s.controller.scheme.family for s in services}
        if len(families) != 1:
            raise ValueError(
                f"all regions must serve one model family, got {sorted(families)}"
            )
        steps = {s.controller.step_s for s in services}
        if len(steps) != 1:
            raise ValueError("all regions must share the epoch length")
        names = [s.region.name for s in services]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names: {names}")
        # Schemes may differ per region (e.g. co2opt where the grid is
        # clean, clover where it is dirty); the fleet label joins the
        # distinct ones in fleet order, staying the plain scheme name for
        # uniform fleets so their reports are unchanged.
        scheme_names = [s.controller.scheme.name for s in services]
        distinct_schemes = list(dict.fromkeys(scheme_names))
        self.scheme_label = (
            distinct_schemes[0]
            if len(distinct_schemes) == 1
            else "+".join(distinct_schemes)
        )
        if (demand is None) != (latency_matrix is None):
            raise ValueError(
                "demand model and latency matrix come together: both or neither"
            )
        if demand is not None:
            from repro.demand import assign_origin_traffic

            if latency_matrix.origin_names != demand.origin_names:
                raise ValueError(
                    f"latency matrix origins {latency_matrix.origin_names} != "
                    f"demand origins {demand.origin_names}"
                )
            if latency_matrix.region_names != tuple(names):
                raise ValueError(
                    f"latency matrix regions {latency_matrix.region_names} != "
                    f"fleet regions {tuple(names)}"
                )
            # Pair-blind routers' transport step, bound here so a
            # constant-demand fleet never loads the demand layer.
            self._assign_origin_traffic = assign_origin_traffic
        self.services = list(services)
        self.router = router
        self.demand = demand
        self.latency_matrix = latency_matrix
        self.ramp_share_per_h = ramp_share_per_h
        self.drain_share_per_h = drain_share_per_h
        self.forecaster_name = forecaster
        self.step_s = self.services[0].controller.step_s
        # Ramp limits are configured per *hour* (a property of traffic
        # migration, not of the control cadence) and converted to the
        # per-epoch bounds the routing context speaks.
        step_h = self.step_s / 3600.0
        self.max_ramp_share = (
            1.0 if ramp_share_per_h is None
            else min(1.0, ramp_share_per_h * step_h)
        )
        self.max_drain_share = (
            None if drain_share_per_h is None
            else min(1.0, drain_share_per_h * step_h)
        )
        # Cell planner form of the drain limit: the fraction of a cell's
        # resident sessions that must stay put from one epoch to the next.
        self._session_keep = (
            0.0 if drain_share_per_h is None
            else max(0.0, 1.0 - drain_share_per_h * step_h)
        )
        # Whether any region runs non-default silicon.  Homogeneous
        # (implicit all-A100) fleets skip the per-epoch efficiency signal
        # entirely: the routing context carries no energy term and every
        # ranking stays bit-for-bit the pre-heterogeneity ordering.
        self._heterogeneous = any(
            s.device_pool is not None for s in self.services
        )
        self._nominal = np.array(
            [s.nominal_rate_per_s for s in self.services], dtype=np.float64
        )
        self._capacity = np.array(
            [s.capacity_rate_per_s for s in self.services], dtype=np.float64
        )
        self._pue = np.array([s.region.pue for s in self.services])
        self._latency = np.array(
            [s.region.net_latency_ms for s in self.services]
        )
        self.global_rate_per_s = (
            float(self._nominal.sum())
            if demand is None
            else demand.mean_total_rate_per_s
        )
        # Per-region forecasters, provisioned lazily only for routers that
        # declare they consult forecasts (everything else skips the cost).
        self._forecasters = None
        if getattr(self.router, "needs_forecast", False):
            from repro.carbon.forecast import make_forecaster

            self._forecasters = [
                make_forecaster(forecaster, s.region.trace)
                for s in self.services
            ]
        # Elastic capacity: one awake/asleep state machine per region.
        # ``None`` keeps the always-on fleet — the bit-for-bit seed path.
        self.gating = gating
        self.gating_name = (
            None if gating is None
            else ("forecast" if gating.prewake else "reactive")
        )
        self._managers = None
        if gating is not None:
            # The fleet's accounting advertises (and property-tests) that a
            # gated epoch never out-spends its always-on twin.  That holds
            # iff a wake transition draws no more than the awake static
            # floor it was gated from — enforce the bound against each
            # region's power model rather than let a custom policy
            # silently break the invariant.  A scalar policy override is
            # checked against every device it applies to (the leanest sets
            # the ceiling); per-device profile defaults are each checked
            # against their own board's static draw.
            for s in services:
                if gating.wake_energy_j is not None:
                    ceiling = (
                        s.min_static_watts_per_gpu() * gating.wake_latency_s
                    )
                    if gating.wake_energy_j > ceiling * (1.0 + 1e-9):
                        raise ValueError(
                            f"wake energy {gating.wake_energy_j:g} J exceeds "
                            f"the static draw over the wake window "
                            f"({ceiling:g} J for region {s.region.name!r}); a "
                            "gated epoch would out-spend its always-on twin — "
                            "raise wake_latency_s or lower wake_energy_j"
                        )
                    continue
                for name, energy, watts in zip(
                    s.region.device_names,
                    s.device_wake_energies_j(),
                    s.device_static_watts(),
                ):
                    ceiling = watts * gating.wake_latency_s
                    if energy > ceiling * (1.0 + 1e-9):
                        raise ValueError(
                            f"device {name!r} wake energy {energy:g} J "
                            f"exceeds its static draw over the wake window "
                            f"({ceiling:g} J, region {s.region.name!r}); a "
                            "gated epoch would out-spend its always-on twin "
                            "— raise wake_latency_s or override wake_energy_j"
                        )
            from repro.fleet.capacity import CapacityManager

            self._managers = [
                CapacityManager(
                    n_gpus=s.region.n_gpus,
                    capacity_rate_per_s=s.capacity_rate_per_s,
                    policy=gating,
                    per_gpu_rates=s.device_capacity_rates,
                )
                for s in self.services
            ]
        # Temporal load shifting: a deferrable batch class turns the
        # epoch into gate→route→admit-batch→wake→step.  The scheduler
        # gets its own forecaster bank (any router may pair with it, so
        # it cannot borrow the router's) over the same regional traces.
        self.batch = batch
        self._batch_scheduler = None
        self._batch_forecasters = None
        if batch is not None:
            from repro.carbon.forecast import make_forecaster
            from repro.shifting import TemporalScheduler

            self._batch_scheduler = TemporalScheduler(
                batch, self.step_s, tuple(names)
            )
            self._batch_forecasters = [
                make_forecaster(forecaster, s.region.trace)
                for s in self.services
            ]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _context(
        self,
        t_h: float,
        global_rate: float,
        prev_shares: np.ndarray | None,
    ) -> RoutingContext:
        ci = np.array([s.observe_ci(t_h) for s in self.services])
        if self.router.needs_sla_caps and self.demand is None:
            sla_caps = np.array([s.sla_safe_rate() for s in self.services])
        else:
            # Policies that never consult the SLA caps skip the bisection
            # probes, so the static path stays a pure pass-through.  Demand
            # fleets skip them too: the cell planner prices SLA per
            # (origin, region) budget instead of per region.
            sla_caps = self._capacity.copy()
        forecast = None
        lookahead = 0.0
        if self._forecasters is not None:
            lookahead = float(getattr(self.router, "lookahead_h", 0.0))
            forecast = self._window_forecast(t_h, lookahead)
        forecast_rate = None
        if self.gating is not None and self.gating.prewake:
            # Pre-wake hints project one epoch ahead — the wake lead time.
            # The demand model doubles as a short-horizon demand forecast
            # (it is deterministic); constant fleets predict persistence.
            forecast_rate = (
                global_rate
                if self.demand is None
                else float(self.demand.total_rate(t_h + self.step_s / 3600.0))
            )
        return RoutingContext(
            t_h=t_h,
            global_rate_per_s=global_rate,
            ci=ci,
            pue=self._pue,
            net_latency_ms=self._latency,
            nominal_rates=self._nominal,
            capacity_rates=self._capacity,
            sla_cap_rates=sla_caps,
            floor_rates=DEFAULT_FLOOR_SHARE * self._nominal,
            forecast_ci=forecast,
            lookahead_h=lookahead,
            prev_shares=prev_shares,
            max_ramp_share=self.max_ramp_share,
            max_drain_share=self.max_drain_share,
            forecast_global_rate_per_s=forecast_rate,
            # The per-region efficiency signal: joules/request of each
            # region's deployed configuration on its own silicon — dynamic
            # only while the fleet is always-on (static is sunk), plus the
            # marginal device's amortized static draw once gating makes
            # idle power follow traffic.  Only computed when something
            # will read it: the fleet is heterogeneous AND the router
            # ranks efficiency-weighted.  Homogeneous fleets (and the
            # intensity-only ablation, and the static/latency policies)
            # carry no energy term, so their rankings stay exactly the
            # (bit-for-bit) pre-heterogeneity orderings.
            energy_per_request_j=(
                np.array(
                    [
                        s.marginal_energy_per_request_j(
                            static_amortize_utilization=(
                                None
                                if self.gating is None
                                else self.gating.target_utilization
                            )
                        )
                        for s in self.services
                    ]
                )
                if self._heterogeneous
                and getattr(self.router, "efficiency_weighted", False)
                else None
            ),
        )

    #: Quadrature points for the window-mean forecast per epoch.
    _FORECAST_SAMPLES = 8

    #: Headroom (ms) the cell planner subtracts from every end-to-end
    #: budget, covering the analytic-vs-DES p95 estimator mismatch.
    SLA_PLANNING_MARGIN_MS = 4.0

    def _window_forecast(self, t_h: float, lookahead_h: float) -> np.ndarray:
        """Predicted mean grid intensity over ``(t_h, t_h + lookahead_h]``.

        Ramp-limited traffic placed now is committed for hours, so the
        quantity a proactive router should rank on is the mean intensity
        of the coming window, approximated by averaging point forecasts at
        a few offsets.  A zero lookahead degenerates to the current
        prediction (persistence of the observation).
        """
        if lookahead_h <= 0.0:
            return np.array([f.predict(t_h, 0.0) for f in self._forecasters])
        offsets = np.linspace(
            lookahead_h / self._FORECAST_SAMPLES, lookahead_h,
            self._FORECAST_SAMPLES,
        )
        return np.array(
            [float(np.mean(f.predict_many(t_h, offsets)))
             for f in self._forecasters]
        )

    def _sla_budget_tables(
        self, user_targets_ms: np.ndarray
    ) -> list[np.ndarray]:
        """Every positive budget the cell planner can ask each region for.

        A budget for region ``r`` is ``user_targets_ms[r] - latency[o, r]``
        for some origin ``o`` (the running regional budget is a min over
        placed pair budgets, and a min of set members is a member), so the
        tables are run constants, built once before the epoch loop.
        Each table is sorted and free of duplicates, as ``np.unique``
        would return it; a set does the dedup because ``np.unique``
        imports ``numpy.ma`` on first use.
        """
        latency = self.latency_matrix.latency_ms
        tables = []
        for r in range(len(self.services)):
            budgets = (user_targets_ms[r] - latency[:, r]).tolist()
            positive = {b for b in budgets if b > 0.0}
            tables.append(np.array(sorted(positive), dtype=np.float64))
        return tables

    def _sla_rate_fn(self, budget_tables: list[np.ndarray] | None = None):
        """Per-epoch memoized (region, budget) → SLA-safe-rate bisections.

        With the run's :meth:`_sla_budget_tables`, region ``r``'s whole
        table is priced in one :meth:`RegionalService.sla_safe_rates`
        lockstep bisection on first touch (a copy of the region's stored
        envelope while its deployment and awake count are unchanged).
        Unexpected budgets — or a caller without tables — fall back to the
        scalar bisection.
        """
        cache: dict[tuple[int, float], float] = {}
        tabled: set[int] = set()

        def fn(r: int, budget_ms: float) -> float:
            key = (r, round(budget_ms, 6))
            if (
                key not in cache
                and budget_tables is not None
                and r not in tabled
            ):
                tabled.add(r)
                budgets = budget_tables[r]
                if budgets.size:
                    rates = self.services[r].sla_safe_rates(budgets)
                    for b, rate in zip(budgets, rates):
                        cache.setdefault((r, round(float(b), 6)), float(rate))
            if key not in cache:
                cache[key] = self.services[r].sla_safe_rate(budget_ms=budget_ms)
            return cache[key]

        return fn

    def _settle_capacity(
        self,
        ctx: RoutingContext,
        rates: np.ndarray,
        batch_holds: np.ndarray | None = None,
    ) -> list[EpochCapacity]:
        """Wake phase of the gate→route→admit-batch→wake pipeline.

        Reconciles each region's routed rate with its awake pool (waking
        reactively on shortfall, filing pre-wakes from the router's
        capacity hints) and prices the epoch's elastic-capacity energy:
        sleeping GPUs at the power model's sleep-state watts, wake
        transitions at the policy's transition energy.  ``batch_holds``
        are the temporal scheduler's keep-awake rates — interactive
        traffic plus the batch volume a region is serving now plus what
        the plan sends it next epoch — folded into the settle hint so
        hysteresis never sleeps GPUs through a clean valley the
        scheduler is about to fill.
        """
        hints = None
        if self.gating.prewake:
            hints = self.router.capacity_hint(ctx)
        capacities = []
        for r, (svc, mgr) in enumerate(zip(self.services, self._managers)):
            hint = float(hints[r]) if hints is not None else None
            if batch_holds is not None and batch_holds[r] > 0.0:
                held = float(batch_holds[r])
                hint = held if hint is None else max(hint, held)
            decision = mgr.settle(float(rates[r]), hint_rate_per_s=hint)
            svc.set_awake(decision.awake)
            # Sleeping devices are priced individually: heterogeneous
            # pools gate their canonical tail, and each gated device owes
            # its own sleep-state watts (homogeneous fleets reduce to the
            # original sleep_watts x sleeping product, bit for bit).  Wake
            # transitions charge each woken device its own profile's wake
            # energy unless the policy overrides with a fleet-wide scalar;
            # wakes always extend the awake canonical prefix, so the
            # devices woken this epoch are the positions
            # [awake - woken, awake).
            aux_energy = (
                svc.sleeping_draw_watts(decision.awake) * self.step_s
                + svc.wake_transition_energy_j(
                    decision.awake - decision.woken,
                    decision.awake,
                    override_j=self.gating.wake_energy_j,
                )
            )
            capacities.append(
                EpochCapacity(
                    awake_gpus=decision.awake,
                    serving_gpus_at_start=decision.serving_at_start,
                    wake_delay_s=decision.wake_delay_s,
                    aux_energy_j=aux_energy,
                )
            )
        return capacities

    def _admit_batch(
        self,
        i: int,
        t_h: float,
        ctx: RoutingContext,
        rates: np.ndarray,
        results: list[RunResult],
        slot_offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Admit-batch phase: release deferrable work into this epoch.

        Computes each region's *leftover* serving rate — awake, SLA-safe
        capacity minus the interactive routed rate — plus the temporal
        slot ranking (predicted effective gCO2/request of every future
        epoch still inside a lot's deadline) and lets the scheduler plan.
        ``slot_offsets`` are the mid-slot hours after ``t_h`` of the
        planning horizon's slots, a run constant.
        Returns ``(batch_rates, hold_rates)``: what each region serves
        now, and the near-future total rate the settle hints hold
        capacity for.
        """
        sched = self._batch_scheduler
        sched.observe_arrivals(t_h)
        # Leftover capacity prices batch admission against the same two
        # ceilings interactive routing respects: the awake pool and the
        # deployed config's SLA-safe rate (with the planning margin), so
        # admission can never push interactive traffic over its SLA.
        awake_caps = (
            np.array([m.awake_rate_per_s() for m in self._managers])
            if self._managers is not None
            else self._capacity
        )
        sla_caps = np.array(
            [
                s.sla_safe_rate(
                    budget_ms=s.sla_target_ms - self.SLA_PLANNING_MARGIN_MS
                )
                for s in self.services
            ]
        )
        leftover = np.maximum(0.0, np.minimum(awake_caps, sla_caps) - rates)
        # Accuracy floor: regions whose deployed config last measured
        # below the batch class's floor only get deadline-forced work.
        eligible = np.ones(len(self.services), dtype=bool)
        floor_pct = self.batch.accuracy_floor_pct
        if floor_pct is not None and i > 0:
            for r, result in enumerate(results):
                floor = floor_pct / 100.0 * result.a_base
                eligible[r] = results[r].epochs[-1].accuracy >= floor - 1e-12
        # Spatial ranking: the same effective-carbon score routing uses,
        # with the marginal-energy term on heterogeneous fleets.  It is
        # recomputed here (not read off ctx) because the energy term is
        # only placed in the context for efficiency-weighted routers.
        energy = None
        if self._heterogeneous:
            energy = np.array(
                [
                    s.marginal_energy_per_request_j(
                        static_amortize_utilization=(
                            None
                            if self.gating is None
                            else self.gating.target_utilization
                        )
                    )
                    for s in self.services
                ]
            )
        scores = ctx.ci * self._pue
        if energy is not None:
            scores = scores * energy
        # Temporal ranking: every slot — including slot 0 — is scored
        # from the same forecaster bank at its mid-slot offset, so the
        # "wait or run now" comparison carries no actual-vs-forecast
        # asymmetry (at horizon ~0 the forecasters return the current
        # observation anyway).  The fleet-min is the score: the planner
        # asks "how clean could a request be served then", and spatial
        # placement independently picks the cleanest open region.
        n_slots = slot_offsets.size
        forecast = np.array(
            [f.predict_many(t_h, slot_offsets) for f in self._batch_forecasters]
        )
        effective = forecast * self._pue[:, None]
        if energy is not None:
            effective = effective * energy[:, None]
        slot_scores = effective.min(axis=0)
        slot_caps = np.empty(n_slots, dtype=np.float64)
        slot_caps[0] = float((leftover * eligible).sum()) * self.step_s
        if n_slots > 1:
            offsets = slot_offsets[1:]
            total_cap = float(self._capacity.sum())
            interactive = float(rates.sum())
            if self.demand is None:
                future_rates = np.full(offsets.size, interactive)
            else:
                future_rates = self.demand.total_rates(t_h + offsets)
            estimated = np.maximum(0.0, total_cap - future_rates) * self.step_s
            # The physical envelope overstates what admission will see
            # (SLA caps, gated pools); scale future estimates by the
            # haircut slot 0 actually took.
            estimated0 = max(0.0, total_cap - interactive) * self.step_s
            calibration = (
                min(1.0, slot_caps[0] / estimated0) if estimated0 > 0 else 0.0
            )
            slot_caps[1:] = estimated * calibration
        return sched.plan_epoch(
            i,
            t_h,
            region_scores=scores,
            region_leftover_rates=leftover,
            region_eligible=eligible,
            slot_scores=slot_scores,
            slot_caps=slot_caps,
        )

    def run(
        self,
        duration_h: float | None = None,
        parallel_regions: int | None = None,
    ) -> FleetResult:
        """Route and serve the global workload for ``duration_h`` hours.

        With gating enabled every epoch runs the gate→route→wake
        pipeline: scheduled capacity transitions land first (the routing
        envelope sees the gated pool), the router splits the global rate
        against *physical* capacity, and each region then reconciles its
        routed rate with its awake GPUs — waking reactively (and paying
        the wake-latency window) or banking pre-wakes for the next epoch.

        ``parallel_regions`` > 1 steps the regions of each epoch through
        a thread pool of that many workers.  The per-region ``step()``
        calls are independent given the routed rates (each region owns
        its controller, RNG streams and DES evaluator; pooled analytic
        caches hold pure functions, so a concurrent duplicate compute can
        only insert the identical value), which makes the parallel
        drive's *simulation results* — every rate, p95, energy and carbon
        number — bit-for-bit identical to the serial one; only the
        epoch's wall-clock changes.  The one non-physical exception:
        with caches pooled across regions (a spec's ``shared_cache``),
        *which* racing region gets counted the miss for a shared entry is
        timing-dependent, so per-region hit/miss diagnostics may
        attribute warm-up work differently between parallel runs.
        ``None``/``1`` keeps the serial driver (fully deterministic,
        counters included).

        Runs are deterministic given the construction seed.  A minimal
        single-region fleet at smoke fidelity (hourly epochs):

        >>> from repro.scenarios import RegionSpec, Scenario, ScenarioSpec
        >>> fleet = Scenario(ScenarioSpec(
        ...     regions=(RegionSpec(name="us-ciso"),), scheme="base",
        ...     fidelity="smoke", n_gpus=2)).build()
        >>> result = fleet.run(duration_h=2.0)
        >>> len(result.results[0].epochs)
        2
        >>> result.total_requests > 0 and result.total_carbon_g > 0
        True
        >>> result.request_shares  # one region carries everything
        {'us-ciso': 1.0}
        """
        if duration_h is None:
            duration_h = min(s.region.trace.span_h for s in self.services)
        if parallel_regions is not None and parallel_regions < 1:
            raise ValueError(
                f"parallel region workers must be >= 1, got {parallel_regions}"
            )
        executor = None
        if (
            parallel_regions is not None
            and parallel_regions > 1
            and len(self.services) > 1
        ):
            from concurrent.futures import ThreadPoolExecutor

            executor = ThreadPoolExecutor(
                max_workers=min(parallel_regions, len(self.services)),
                thread_name_prefix="region-step",
            )
        try:
            return self._run(duration_h, executor)
        finally:
            if executor is not None:
                executor.shutdown()

    def _run(self, duration_h: float, executor) -> FleetResult:
        n_epochs = self.services[0].controller.n_epochs(duration_h)
        # Routers and capacity managers carry cross-epoch state (pending
        # forecasts, regret statistics, awake counts, scheduled sleeps); a
        # fresh run must not inherit a previous run's.
        self.router.reset()
        if self._managers is not None:
            for mgr in self._managers:
                mgr.reset()
        if self._batch_scheduler is not None:
            self._batch_scheduler.reset()
        results = [s.begin_run() for s in self.services]
        # Under ramp limits the fleet starts from the static geo-DNS
        # position (capacity-proportional) and must *walk* anywhere else —
        # epoch zero is not a free teleport.  Unconstrained fleets keep the
        # PR-1 semantics: the first split is wherever the router wants.
        ramped = self.max_ramp_share < 1.0 or (
            self.max_drain_share is not None and self.max_drain_share < 1.0
        )
        prev_shares = self._nominal / self._nominal.sum() if ramped else None
        prev_plan: np.ndarray | None = None
        plans: list[np.ndarray] = []
        batch_rows: list[np.ndarray] = []
        # The planner budgets against slightly *tightened* targets: its SLA
        # caps come from analytic bisections, while attainment is judged on
        # DES measurements — the margin absorbs that estimator mismatch so
        # far-origin traffic is not parked exactly on the budget edge.
        user_targets = np.array(
            [s.user_sla_target_ms for s in self.services]
        ) - self.SLA_PLANNING_MARGIN_MS
        budget_tables = (
            None
            if self.demand is None
            else self._sla_budget_tables(user_targets)
        )
        # Demand is a fixed function of time, so the run reads it up
        # front, one rate_matrix row per epoch; a batched read equals the
        # per-time reads bit for bit.
        epoch_times = [i * self.step_s / 3600.0 for i in range(n_epochs)]
        demand_rows = (
            None if self.demand is None else self.demand.rate_matrix(epoch_times)
        )
        slot_offsets = None
        if self._batch_scheduler is not None:
            slot_offsets = (
                np.arange(self._batch_scheduler.horizon_slots) + 0.5
            ) * (self.step_s / 3600.0)
        for i, t_h in enumerate(epoch_times):
            if self._managers is not None:
                # Gate phase: pre-wakes and hysteresis sleeps scheduled
                # last epoch land now, before the routing envelope is
                # computed — SLA caps must see the pool that will serve.
                for svc, mgr in zip(self.services, self._managers):
                    svc.set_awake(mgr.begin_epoch())
            if demand_rows is not None:
                origin_rates = demand_rows[i]
                global_rate = float(origin_rates.sum())
            else:
                origin_rates = None
                global_rate = self.global_rate_per_s
            ctx = self._context(t_h, global_rate, prev_shares)
            if origin_rates is None:
                rates = self.router.split(ctx) * global_rate
            else:
                order = self.router.region_order(ctx)
                if order is None:
                    # Pair-blind policies (the static geo-DNS baseline):
                    # regional split first, min-latency transport after.
                    rates = self.router.split(ctx) * global_rate
                    plan = self._assign_origin_traffic(
                        origin_rates, rates, self.latency_matrix.latency_ms
                    )
                else:
                    measured = (
                        np.array([res.epochs[-1].p95_ms for res in results])
                        if i > 0
                        else None
                    )
                    plan = plan_origin_cells(
                        ctx,
                        order,
                        origin_rates,
                        self.latency_matrix.latency_ms,
                        user_targets,
                        self._sla_rate_fn(budget_tables),
                        measured_p95_ms=measured,
                        prev_plan=prev_plan,
                        session_keep_frac=self._session_keep,
                        resident_floor_share=DEFAULT_FLOOR_SHARE,
                    )
                    rates = plan.sum(axis=0)
                    prev_plan = plan
                plans.append(plan)
            prev_shares = rates / global_rate
            # Admit-batch phase: interactive routing is settled, so the
            # leftover envelope is known; the temporal scheduler decides
            # what queued batch work runs *this* epoch.  ``rates`` stays
            # the interactive-only array (ramp shares and transport
            # plans never see batch), the step rates carry both.
            step_rates = rates
            batch_holds = None
            if self._batch_scheduler is not None:
                batch_rates, sched_holds = self._admit_batch(
                    i, t_h, ctx, rates, results, slot_offsets
                )
                batch_rows.append(batch_rates)
                step_rates = rates + batch_rates
                # The hold hint is the total near-future rate: persisted
                # interactive traffic plus admitted batch plus the next
                # slot's planned volume.
                batch_holds = rates + sched_holds
            capacities = (
                self._settle_capacity(ctx, step_rates, batch_holds=batch_holds)
                if self._managers is not None
                else [None] * len(self.services)
            )
            if executor is None:
                for service, result, rate, cap in zip(
                    self.services, results, step_rates, capacities
                ):
                    service.step(result, i, t_h, float(rate), capacity=cap)
            else:
                futures = [
                    executor.submit(
                        service.step, result, i, t_h, float(rate), capacity=cap
                    )
                    for service, result, rate, cap in zip(
                        self.services, results, step_rates, capacities
                    )
                ]
                for future in futures:
                    future.result()
        for service, result in zip(self.services, results):
            service.finalize(result)
        demand_fields = {}
        if self.demand is not None:
            demand_fields = dict(
                demand_name=type(self.demand).__name__,
                origin_names=self.demand.origin_names,
                latency_matrix_ms=self.latency_matrix.latency_ms,
                origin_plans=tuple(plans),
                user_sla_target_ms=self.services[0].user_sla_target_ms,
            )
        batch_fields = {}
        if self._batch_scheduler is not None:
            sched = self._batch_scheduler
            end_t_h = n_epochs * self.step_s / 3600.0
            batch_fields = dict(
                batch_name=self.batch.name,
                batch_rates=np.array(batch_rows),
                batch_completions=tuple(
                    tuple(ledger.completions) for ledger in sched.ledgers
                ),
                batch_pending_requests=sched.backlog.pending_requests,
                batch_overdue_requests=sched.backlog.overdue_requests(end_t_h),
            )
        return FleetResult(
            router_name=self.router.name,
            scheme_name=self.scheme_label,
            application=self.services[0].controller.application,
            global_rate_per_s=self.global_rate_per_s,
            regions=tuple(s.region for s in self.services),
            results=tuple(results),
            gating_name=self.gating_name,
            **demand_fields,
            **batch_fields,
        )
