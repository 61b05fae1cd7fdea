"""Configuration evaluation: ``(x_p, x_v)`` → accuracy, energy, tail latency.

The evaluator is the bridge between a candidate configuration and the three
quantities Clover's objective consumes:

* **accuracy** ``A(x)`` — the request-share-weighted average of the hosted
  variants' accuracies (requests served by a bigger variant count with that
  variant's accuracy),
* **energy per request** ``E(x)`` — cluster average power (static per GPU +
  per-slice dynamic x utilization) divided by throughput,
* **p95 latency** ``L(x)`` — from the analytical queueing estimator
  (optimizer inner loop) or the discrete-event simulator (measurement).

Evaluations depend only on the configuration *graph* (the multiset of
variant-on-slice-type placements plus the GPU count) and the arrival rate —
physical placement is irrelevant under MIG isolation, exactly the paper's
compaction argument — so results are cached by ``(graph key, rate)``.  The
cache is what makes ORACLE's exhaustive profiling and repeated SA
invocations affordable, and the hit/miss counters (:attr:`cache_stats`)
quantify how much work it saves.

The arrival rate is fixed at construction, but every evaluation accepts a
``rate_per_s`` override so a fleet router can probe a deployed
configuration at candidate rates (SLA-feasibility bisection) without
rebuilding the evaluator or losing the shared cache.

Elastic capacity (GPU power-gating) enters here through
:attr:`ConfigEvaluator.awake_gpus`: when set below ``n_gpus``, every
evaluation is capped to the awake subset — the configuration is trimmed to
its first ``awake_gpus`` canonical per-GPU assignments (sleeping GPUs keep
their partition but serve nothing) and static power is charged for awake
GPUs only.  Sleeping GPUs' reduced draw and wake transitions are charged by
the fleet coordinator, not here.  With ``awake_gpus`` unset (or equal to
``n_gpus``) the code path, cache keys and results are bit-for-bit identical
to the always-on evaluator.

Device heterogeneity enters through :attr:`ConfigEvaluator.device_pool`: a
:class:`~repro.gpu.profiles.DevicePool` prices every evaluation on that
pool's silicon.  Placement then matters — a slice on an H100 is faster and
draws different power than the same slice on an L4 — which would break the
paper's placement-free compaction argument, so the pool path pins placement
deterministically: the graph is materialized through
:func:`~repro.core.feasibility.realize_graph` and its ``i``-th canonical
assignment runs on the pool's ``i``-th device (pools are canonically
ordered most-efficient-first, so coarse partitions land on efficient
silicon).  Evaluations are therefore still a pure function of
``(graph, rate, awake, pool)`` and stay cacheable; the cache key includes
the pool's device names so identical graphs on different silicon can never
share an entry.  An all-A100 pool is normalized away at construction — its
code path, cache keys and results are bit-for-bit the seed evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import ClusterConfig
from repro.core.graph import ConfigGraph
from repro.gpu.profiles import DevicePool
from repro.models.perf import PerfModel
from repro.models.zoo import ModelZoo
from repro.serving.analytic import BatchQueueEstimate, estimate_fifo, estimate_fifo_batch
from repro.serving.des import simulate_fifo
from repro.serving.instance import DEFAULT_JITTER_CV
from repro.serving.metrics import summarize
from repro.serving.workload import PoissonWorkload
from repro.utils.rng import RngMixer

__all__ = ["Evaluation", "CacheStats", "ConfigEvaluator"]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one evaluator's configuration cache.

    Hits count only the lookups that reach the evaluator.  A caller that
    memoizes above it — the fleet's per-region SLA-envelope memo skips
    bisections that would have been all hits — lowers ``hits`` and never
    changes ``misses``, ``size`` or ``batched``.

    ``batched`` counts the evaluations *computed* by
    :meth:`ConfigEvaluator.evaluate_rates`, which estimates a rate grid in
    one vectorized pass — a subset of ``misses``, so it surfaces how much
    of the cache-filling work ran at array speed rather than one scalar
    estimate at a time.
    """

    hits: int
    misses: int
    size: int
    batched: int = 0

    @property
    def evaluations(self) -> int:
        """Total evaluation requests answered (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0 when never queried)."""
        return self.hits / self.evaluations if self.evaluations else 0.0

    @property
    def batch_rate(self) -> float:
        """Fraction of cache-filling work done at array speed (0 when
        nothing missed)."""
        return self.batched / self.misses if self.misses else 0.0


@dataclass(frozen=True)
class Evaluation:
    """Carbon-intensity-independent measurements of one configuration.

    ``accuracy`` in the family's metric units, ``energy_per_request_j`` in
    joules of IT energy (PUE applied later, in the objective), ``p95_ms``
    end-to-end.  ``overloaded`` flags arrival rates beyond capacity — p95 is
    infinite and the SLA can never be met.
    """

    accuracy: float
    energy_per_request_j: float
    p95_ms: float
    power_watts: float
    utilization: float
    overloaded: bool
    num_instances: int

    @property
    def feasible_latency(self) -> bool:
        return not self.overloaded and np.isfinite(self.p95_ms)


@dataclass
class ConfigEvaluator:
    """Evaluates configurations of one family at one arrival rate.

    Parameters
    ----------
    zoo, perf:
        Model zoo and performance model (the simulated testbed).
    family:
        Model family name being served.
    rate_per_s:
        Poisson arrival rate of user queries.
    n_gpus:
        Cluster size; static power scales with it.
    method:
        ``"analytic"`` (closed-form; the optimizer's inner loop) or
        ``"des"`` (discrete-event simulation; measurement-grade).
    des_requests:
        Sample size per DES evaluation.
    jitter_cv:
        Service-time jitter for the DES.
    seed:
        Root seed for DES arrival/jitter streams; each distinct
        configuration graph gets its own deterministic substream.
    awake_gpus:
        When set below ``n_gpus``, evaluations are capped to the awake
        GPU subset (see the module docstring); ``None`` means fully awake.
    device_pool:
        The cluster's device generations (see the module docstring).
        ``None`` — or an all-A100 pool, which is normalized to ``None`` —
        is the seed single-device path, bit for bit.
    """

    zoo: ModelZoo
    perf: PerfModel
    family: str
    rate_per_s: float
    n_gpus: int
    method: str = "analytic"
    des_requests: int = 4000
    jitter_cv: float = DEFAULT_JITTER_CV
    seed: int = 0
    awake_gpus: int | None = None
    device_pool: DevicePool | None = None
    _cache: dict[tuple, Evaluation] = field(default_factory=dict, repr=False)
    _hits: int = field(default=0, init=False, repr=False)
    _misses: int = field(default=0, init=False, repr=False)
    _batched: int = field(default=0, init=False, repr=False)
    _num_variants: int = field(init=False, repr=False)
    _device_perfs: tuple[PerfModel, ...] | None = field(
        default=None, init=False, repr=False
    )
    _realize_graph: Callable | None = field(default=None, init=False, repr=False)
    # Lazily-built (variant x slice-type) lookup tables; cells are filled
    # on first use because some combinations are infeasible (OOM) and must
    # only be priced when a graph actually hosts them.
    _svc_table: np.ndarray | None = field(default=None, init=False, repr=False)
    _watts_table: np.ndarray | None = field(default=None, init=False, repr=False)
    _acc_vec: np.ndarray | None = field(default=None, init=False, repr=False)
    _filled: np.ndarray | None = field(default=None, init=False, repr=False)
    # Per-graph instance arrays, keyed by graph key: bisections probe the
    # same deployed graph at dozens of rates, and the flattening is pure.
    _arrays_cache: dict[bytes, tuple] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.method not in ("analytic", "des"):
            raise ValueError(
                f"method must be 'analytic' or 'des', got {self.method!r}"
            )
        if self.rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_per_s}")
        if self.n_gpus <= 0:
            raise ValueError(f"n_gpus must be positive, got {self.n_gpus}")
        if self.des_requests <= 0:
            raise ValueError(
                f"des_requests must be positive, got {self.des_requests}"
            )
        if self.awake_gpus is not None:
            self.set_awake_gpus(self.awake_gpus)  # validates the range
        if self.device_pool is not None:
            if self.device_pool.n_gpus != self.n_gpus:
                raise ValueError(
                    f"device pool has {self.device_pool.n_gpus} GPUs, "
                    f"evaluator sized for {self.n_gpus}"
                )
            if self.device_pool.is_default_a100:
                # The implicit seed fleet: drop to the single-device path
                # so cache keys and arithmetic stay bit-for-bit identical.
                self.device_pool = None
            else:
                # Only a pool places graphs on concrete devices, so only
                # a pool loads the feasibility bridge.
                from repro.core.feasibility import realize_graph

                self._realize_graph = realize_graph
                self._device_perfs = tuple(
                    p.perf(self.perf) for p in self.device_pool.profiles
                )
        self._num_variants = self.zoo.family(self.family).num_variants

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def evaluate(
        self, config: ClusterConfig, rate_per_s: float | None = None
    ) -> Evaluation:
        """Evaluate a configuration (cached by configuration graph and rate).

        ``rate_per_s`` overrides the construction-time arrival rate for this
        evaluation only (used by fleet routing to probe a deployed
        configuration at candidate rates).
        """
        if config.family != self.family:
            raise ValueError(
                f"evaluator serves {self.family!r}, got a {config.family!r} config"
            )
        if config.n_gpus != self.n_gpus:
            raise ValueError(
                f"evaluator sized for {self.n_gpus} GPUs, got {config.n_gpus}"
            )
        awake = self._effective_awake()
        if awake is not None:
            config = self._trim_to_awake(config, awake)
        graph = ConfigGraph.from_config(config, self._num_variants)
        return self._cached_evaluate(graph, self._resolve_rate(rate_per_s), awake)

    def evaluate_graph(
        self, graph: ConfigGraph, rate_per_s: float | None = None
    ) -> Evaluation:
        """Evaluate directly from a configuration graph (cached)."""
        if graph.family != self.family:
            raise ValueError(
                f"evaluator serves {self.family!r}, got a {graph.family!r} graph"
            )
        if self._effective_awake() is not None:
            raise ValueError(
                "graph-level evaluation does not support a partially-awake "
                "cluster (a bare graph has no per-GPU structure to trim); "
                "evaluate the concrete ClusterConfig instead"
            )
        return self._cached_evaluate(graph, self._resolve_rate(rate_per_s), None)

    def evaluate_batch(
        self, configs, rate_per_s: float | None = None
    ) -> list[Evaluation]:
        """Evaluate each configuration at one rate: a loop of :meth:`evaluate`.

        Results and :attr:`cache_stats` are exactly the scalar loop's.
        ``e2ebench/layers.py`` wraps this method as a layer boundary.
        """
        return [self.evaluate(c, rate_per_s) for c in configs]

    def evaluate_rates(self, config: ClusterConfig, rates_per_s) -> list[Evaluation]:
        """Evaluate one configuration over a grid of rates in one pass.

        The fleet router's SLA bisections probe a deployed configuration
        at many candidate rates; this batches the uncached probes through
        the vectorized estimator while keeping the cache keys — and the
        hit/miss accounting — exactly what per-rate :meth:`evaluate`
        calls would have produced.
        """
        rates = [self._resolve_rate(float(r)) for r in rates_per_s]
        if self.method != "analytic":
            return [self.evaluate(config, r) for r in rates]
        if config.family != self.family:
            raise ValueError(
                f"evaluator serves {self.family!r}, got a "
                f"{config.family!r} config"
            )
        if config.n_gpus != self.n_gpus:
            raise ValueError(
                f"evaluator sized for {self.n_gpus} GPUs, got {config.n_gpus}"
            )
        awake = self._effective_awake()
        n_powered = self.n_gpus if awake is None else awake
        trimmed = (
            self._trim_to_awake(config, awake) if awake is not None else config
        )
        graph = ConfigGraph.from_config(trimmed, self._num_variants)
        results: list[Evaluation | None] = [None] * len(rates)
        pending: dict[tuple, list[int]] = {}
        miss_rates: list[float] = []
        for i, r in enumerate(rates):
            key = self._cache_key(graph, r, awake)
            hit = self._cache.get(key)
            if hit is not None:
                self._hits += 1
                results[i] = hit
            elif key in pending:
                self._hits += 1
                pending[key].append(i)
            else:
                self._misses += 1
                pending[key] = [i]
                miss_rates.append(r)
        if pending:
            service, watts, acc, static_watts = self._graph_arrays(
                graph, n_powered
            )
            evals = self._batch_analytic(
                service, watts, acc, static_watts, np.asarray(miss_rates)
            )
            self._batched += len(evals)
            for key, ev in zip(pending, evals):
                self._cache[key] = ev
                for i in pending[key]:
                    results[i] = ev
        return results

    @property
    def pool_key(self) -> tuple[str, ...] | None:
        """The device-pool component of this evaluator's cache keys.

        ``None`` on the single-device (implicit A100) path — those keys
        must stay byte-identical to the seed evaluator's.  Pool-aware
        keys append the canonical device-name tuple, so the same graph at
        the same rate on different silicon can never share a cache entry.
        """
        return None if self.device_pool is None else self.device_pool.names

    def set_awake_gpus(self, awake_gpus: int | None) -> None:
        """Cap subsequent evaluations to ``awake_gpus`` GPUs.

        ``None`` (or the full cluster size) restores the always-on path,
        whose cache keys and results are untouched by gating.
        """
        if awake_gpus is not None and not 1 <= awake_gpus <= self.n_gpus:
            raise ValueError(
                f"awake GPUs must be in [1, {self.n_gpus}], got {awake_gpus}"
            )
        self.awake_gpus = awake_gpus

    def _effective_awake(self) -> int | None:
        """The awake count, normalized so fully-awake means ``None``."""
        if self.awake_gpus is None or self.awake_gpus >= self.n_gpus:
            return None
        return self.awake_gpus

    @staticmethod
    def _trim_to_awake(config: ClusterConfig, awake: int) -> ClusterConfig:
        """The awake sub-cluster: the first ``awake`` canonical assignments.

        Canonical order sorts GPUs by (partition id, variant ordinals), so
        sleeping always gates the canonically-last GPUs — the finest
        partitions with the smallest variants, the cheapest capacity to
        take offline.  The rule is deterministic, which keeps DES
        substreams and cache keys reproducible.
        """
        canon = config.canonical()
        return ClusterConfig(
            family=canon.family, assignments=canon.assignments[:awake]
        )

    def adopt_cache(self, cache: dict) -> None:
        """Share ``cache`` (another evaluator's store) as this one's.

        The fleet layer pools analytic evaluators of regions with an
        identical family, cluster size and device pool behind one
        dictionary: evaluations are pure functions of the full cache key
        (graph, rate, awake, pool), so sharing changes no result — only
        how often each region recomputes one.  Hit/miss counters stay
        per-evaluator, so per-region cache stats remain meaningful.  DES
        evaluators must never share (their samples are seed-dependent);
        :func:`repro.fleet.coordinator.share_evaluator_caches` enforces
        that, this method just swaps the store.
        """
        existing = self._cache
        self._cache = cache
        # Entries computed before adoption stay usable by the group.
        for key, value in existing.items():
            cache.setdefault(key, value)

    @property
    def cache_store(self) -> dict:
        """The underlying cache dictionary (for cross-region pooling)."""
        return self._cache

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def cache_hits(self) -> int:
        return self._hits

    @property
    def cache_misses(self) -> int:
        return self._misses

    @property
    def cache_batched(self) -> int:
        """Evaluations computed through the vectorized rate-grid path."""
        return self._batched

    @property
    def cache_stats(self) -> CacheStats:
        """Counters snapshot: how much evaluation work the cache saved."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            size=len(self._cache),
            batched=self._batched,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _resolve_rate(self, rate_per_s: float | None) -> float:
        if rate_per_s is None:
            return self.rate_per_s
        if rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_s}")
        return rate_per_s

    def _cache_key(
        self, graph: ConfigGraph, rate: float, awake: int | None
    ) -> tuple:
        # Fully-awake evaluations keep the seed's 2-tuple key; gated ones
        # append the awake count, because a trimmed graph can collide with
        # a full configuration of the same multiset while owing a
        # different static draw.  Pool-aware evaluations additionally
        # append the device names: identical graphs at identical rates on
        # different silicon are different measurements.
        key = (graph.key(), rate) if awake is None else (graph.key(), rate, awake)
        if self.device_pool is not None:
            key = key + (self.device_pool.names,)
        return key

    def _cached_evaluate(
        self, graph: ConfigGraph, rate: float, awake: int | None
    ) -> Evaluation:
        key = self._cache_key(graph, rate, awake)
        hit = self._cache.get(key)
        if hit is not None:
            self._hits += 1
            return hit
        self._misses += 1
        result = self._evaluate_graph(graph, rate, awake)
        self._cache[key] = result
        return result

    def _fill_tables(self, v_idx: np.ndarray, s_idx: np.ndarray) -> None:
        """Price any (variant, slice) cells the lookup tables lack.

        The tables are filled lazily — infeasible combinations raise in
        the perf model and must only be priced when a graph actually
        hosts them — and each cell is the *same* ``latency_s`` /
        ``busy_watts`` call the original per-instance loop made, so the
        flattened arrays are bit-for-bit what the loop produced.
        """
        from repro.gpu.slices import SLICE_TYPES

        fam = self.zoo.family(self.family)
        if self._svc_table is None:
            shape = (self._num_variants, len(SLICE_TYPES))
            self._svc_table = np.full(shape, np.nan)
            self._watts_table = np.full(shape, np.nan)
            self._filled = np.zeros(shape, dtype=bool)
            self._acc_vec = np.array(
                [fam.variant(v + 1).accuracy for v in range(self._num_variants)]
            )
        for v, s in zip(v_idx, s_idx):
            if not self._filled[v, s]:
                variant = fam.variant(int(v) + 1)
                slice_type = SLICE_TYPES[int(s)]
                self._svc_table[v, s] = self.perf.latency_s(variant, slice_type)
                self._watts_table[v, s] = self.perf.busy_watts(variant, slice_type)
                self._filled[v, s] = True

    def _instance_arrays(
        self, graph: ConfigGraph
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten a graph to per-instance (service_s, busy_watts, accuracy).

        ``np.nonzero`` iterates (variant, slice) cells in the same
        row-major order the original Python loop did, and ``np.repeat``
        replicates each cell's value ``count`` times in place of
        ``list.extend`` — same values, same order, at array speed.
        """
        v_idx, s_idx = np.nonzero(graph.weights)
        if v_idx.size == 0:
            raise ValueError("configuration hosts no instances")
        if self._filled is None or not self._filled[v_idx, s_idx].all():
            self._fill_tables(v_idx, s_idx)
        counts = graph.weights[v_idx, s_idx].astype(np.intp)
        return (
            np.repeat(self._svc_table[v_idx, s_idx], counts),
            np.repeat(self._watts_table[v_idx, s_idx], counts),
            np.repeat(self._acc_vec[v_idx], counts),
        )

    def _pool_instance_arrays(
        self, graph: ConfigGraph, n_powered: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-instance arrays priced on the device pool's silicon.

        The graph is materialized deterministically (``realize_graph``)
        and its ``i``-th canonical assignment is priced on the pool's
        ``i``-th device — canonical order sorts coarse partitions first
        and pools sort efficient silicon first, so full-GPU slices land
        on the best devices and sleeping (which trims the canonical tail)
        always gates the least-efficient silicon.
        """
        fam = self.zoo.family(self.family)
        config = self._realize_graph(
            graph, n_powered,
            max_partition_id=self.device_pool.partition_granularity,
        )
        service, watts, acc = [], [], []
        for perf, assignment in zip(self._device_perfs, config.assignments):
            for slice_type, ordinal in assignment.instances():
                variant = fam.variant(ordinal)
                service.append(perf.latency_s(variant, slice_type))
                watts.append(perf.busy_watts(variant, slice_type))
                acc.append(variant.accuracy)
        if not service:
            raise ValueError("configuration hosts no instances")
        return (
            np.asarray(service, dtype=np.float64),
            np.asarray(watts, dtype=np.float64),
            np.asarray(acc, dtype=np.float64),
        )

    def _graph_arrays(
        self, graph: ConfigGraph, n_powered: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Cached per-instance arrays + static draw for one graph.

        Keyed by graph key (and the powered count on the pool path, where
        placement — and so pricing — depends on how many devices serve):
        SLA bisections probe one deployed graph at dozens of rates, and
        the flattening is a pure function of the graph.
        """
        key = (graph.key(), None if self.device_pool is None else n_powered)
        cached = self._arrays_cache.get(key)
        if cached is not None:
            return cached
        if self.device_pool is None:
            service, watts, acc = self._instance_arrays(graph)
            static_watts = self.perf.power.static_watts_per_gpu() * n_powered
        else:
            service, watts, acc = self._pool_instance_arrays(graph, n_powered)
            static_watts = float(
                sum(
                    p.power.static_watts_per_gpu()
                    for p in self.device_pool.profiles[:n_powered]
                )
            )
        out = (service, watts, acc, static_watts)
        self._arrays_cache[key] = out
        return out

    def _evaluate_graph(
        self, graph: ConfigGraph, rate: float, awake: int | None = None
    ) -> Evaluation:
        n_powered = self.n_gpus if awake is None else awake
        service, watts, acc, static_watts = self._graph_arrays(graph, n_powered)

        if self.method == "analytic":
            return self._evaluate_analytic(service, watts, acc, static_watts, rate)
        return self._evaluate_des(graph, service, watts, acc, static_watts, rate)

    def _evaluate_analytic(
        self,
        service: np.ndarray,
        watts: np.ndarray,
        acc: np.ndarray,
        static_watts: float,
        rate: float,
    ) -> Evaluation:
        est = estimate_fifo(service, rate, self.jitter_cv)
        if est.overloaded:
            # Saturated: every instance busy; throughput capped at capacity.
            capacity = float((1.0 / service).sum())
            power = static_watts + float(watts.sum())
            mu = 1.0 / service
            shares = mu / mu.sum()
            return Evaluation(
                accuracy=float(np.dot(shares, acc)),
                energy_per_request_j=power / capacity,
                p95_ms=float("inf"),
                power_watts=power,
                utilization=est.utilization,
                overloaded=True,
                num_instances=int(service.size),
            )
        per_instance_rate = rate * est.shares
        inst_util = np.clip(per_instance_rate * service, 0.0, 1.0)
        power = static_watts + float(np.dot(inst_util, watts))
        return Evaluation(
            accuracy=float(np.dot(est.shares, acc)),
            energy_per_request_j=power / rate,
            p95_ms=est.p95_ms(),
            power_watts=power,
            utilization=est.utilization,
            overloaded=False,
            num_instances=int(service.size),
        )

    def _batch_analytic(
        self,
        service: np.ndarray,
        watts: np.ndarray,
        acc: np.ndarray,
        static_watts: float,
        rates: np.ndarray,
    ) -> list[Evaluation]:
        """One configuration's analytic evaluations over a rate grid.

        ``service``/``watts``/``acc`` are the graph's ``(m,)`` instance
        arrays and ``rates`` the ``(n,)`` grid, estimated in one
        :func:`~repro.serving.analytic.estimate_fifo_batch` call.  Each row
        applies :meth:`_evaluate_analytic`'s exact formulas — including the
        saturated branch's capacity-proportional shares — so rows agree
        with scalar evaluations to summation-order rounding.
        """
        rates = np.asarray(rates, dtype=np.float64)
        est: BatchQueueEstimate = estimate_fifo_batch(service, rates, self.jitter_cv)
        service2 = est.service_s
        watts2 = np.broadcast_to(np.asarray(watts, dtype=np.float64), service2.shape)
        acc2 = np.broadcast_to(np.asarray(acc, dtype=np.float64), service2.shape)
        static = np.broadcast_to(
            np.asarray(static_watts, dtype=np.float64), rates.shape
        )
        p95 = est.p95_ms()
        over = est.overloaded
        m = int(service2.shape[1])

        per_rate = rates[:, None] * est.shares
        inst_util = np.clip(per_rate * service2, 0.0, 1.0)
        power_n = static + np.sum(inst_util * watts2, axis=1)
        acc_n = np.sum(est.shares * acc2, axis=1)
        energy_n = power_n / rates

        mu = 1.0 / service2
        capacity = mu.sum(axis=1)
        power_o = static + watts2.sum(axis=1)
        shares_o = mu / capacity[:, None]
        acc_o = np.sum(shares_o * acc2, axis=1)
        energy_o = power_o / capacity

        out = []
        for i in range(rates.size):
            if over[i]:
                out.append(
                    Evaluation(
                        accuracy=float(acc_o[i]),
                        energy_per_request_j=float(energy_o[i]),
                        p95_ms=float("inf"),
                        power_watts=float(power_o[i]),
                        utilization=float(est.utilization[i]),
                        overloaded=True,
                        num_instances=m,
                    )
                )
            else:
                out.append(
                    Evaluation(
                        accuracy=float(acc_n[i]),
                        energy_per_request_j=float(energy_n[i]),
                        p95_ms=float(p95[i]),
                        power_watts=float(power_n[i]),
                        utilization=float(est.utilization[i]),
                        overloaded=False,
                        num_instances=m,
                    )
                )
        return out

    def _evaluate_des(
        self,
        graph: ConfigGraph,
        service: np.ndarray,
        watts: np.ndarray,
        acc: np.ndarray,
        static_watts: float,
        rate: float,
    ) -> Evaluation:
        # Deterministic per-graph substream: the same configuration always
        # sees the same arrivals, so cache hits and misses agree exactly
        # (stable_hash keeps this reproducible across processes).  The rate
        # scales the exponential gaps but not the underlying stream, so a
        # rate override preserves the paper's common-random-numbers setup.
        from repro.utils.rng import stable_hash

        mixer = RngMixer(seed=self.seed)
        rng = mixer.fork("des-eval", stable_hash(graph.key()))

        workload = PoissonWorkload(rate)
        arrivals = workload.arrivals_fixed_count(self.des_requests, rng)
        batch = simulate_fifo(arrivals, service, self.jitter_cv, rng)
        metrics = summarize(batch, n_instances=service.size)

        # Overload diagnosis: the queue grows without bound iff capacity is
        # below the arrival rate; finite simulations always "finish".
        capacity = float((1.0 / service).sum())
        overloaded = rate >= capacity

        power = static_watts + float(np.dot(metrics.utilization, watts))
        throughput = min(metrics.throughput_rps, rate)
        return Evaluation(
            accuracy=float(np.dot(metrics.shares, acc)),
            energy_per_request_j=power / throughput,
            p95_ms=float("inf") if overloaded else metrics.latency.p95_ms,
            power_watts=power,
            utilization=float(metrics.mean_utilization),
            overloaded=overloaded,
            num_instances=int(service.size),
        )
