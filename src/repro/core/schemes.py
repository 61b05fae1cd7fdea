"""The five competing schemes of the paper's evaluation (Sec. 5.1).

* **BASE** — highest-quality variant on every unpartitioned GPU; carbon
  unaware.  Defines ``A_base``, ``C_base`` and the SLA target.
* **CO2OPT** — the carbon-optimal static policy: finest MIG partition,
  smallest variant everywhere.  Exploits both paper insights but never
  adapts to carbon intensity.
* **BLOVER** — Basic-Clover: carbon-aware, mixed-quality, partitioned, but
  optimizes by uniform random search in the raw ``(x_p, x_v)`` space.
* **CLOVER** — the paper's system: graph-space simulated annealing, warm
  started from the previous invocation's best configuration.
* **ORACLE** — exhaustive offline profiling of the standardized per-GPU
  configuration space with instant, zero-cost switching on every carbon
  intensity change.  Infeasible in practice; the upper bound.

All schemes share one :class:`ConfigEvaluator` interface so their selection
fidelity is identical — the differences measured by the benchmarks come only
from the search strategy, exactly as in the paper.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.annealing import (
    EvaluatedCandidate,
    OptimizationCostModel,
    OptimizationResult,
    SAParams,
    random_search,
    simulated_annealing,
)
from repro.core.config import (
    ClusterConfig,
    GpuAssignment,
    base_config,
    co2opt_config,
)
from repro.core.evaluator import ConfigEvaluator
from repro.core.graph import ConfigGraph
from repro.core.moves import MoveGenerator
from repro.core.objective import ObjectiveSpec
from repro.gpu.partitions import MIG_PARTITIONS
from repro.models.zoo import ModelZoo
from repro.utils.rng import RngMixer

__all__ = [
    "InvocationOutcome",
    "Scheme",
    "BaseScheme",
    "Co2OptScheme",
    "BloverScheme",
    "CloverScheme",
    "OracleScheme",
    "make_scheme",
    "SCHEME_NAMES",
    "enumerate_standardized_configs",
]

SCHEME_NAMES = ("base", "co2opt", "blover", "clover", "oracle")


@dataclass(frozen=True)
class InvocationOutcome:
    """What one optimization invocation did to the cluster."""

    deployed: ClusterConfig
    evaluated: tuple[EvaluatedCandidate, ...]
    virtual_cost_s: float
    termination: str

    @property
    def num_evaluations(self) -> int:
        return len(self.evaluated)


@dataclass
class Scheme(ABC):
    """A serving policy: initial deployment plus the re-optimization rule.

    ``max_partition_id`` is the device pool's partition granularity: every
    configuration a scheme deploys or explores keeps its partitions at or
    below it (a pool containing a non-MIG device pins the whole search to
    unpartitioned GPUs).  The default admits all 19 MIG configurations —
    the seed single-device behaviour.
    """

    zoo: ModelZoo
    family: str
    n_gpus: int
    evaluator: ConfigEvaluator
    objective: ObjectiveSpec
    mixer: RngMixer = field(default_factory=RngMixer)
    sa_params: SAParams = field(default_factory=SAParams)
    cost_model: OptimizationCostModel = field(default_factory=OptimizationCostModel)
    max_partition_id: int = len(MIG_PARTITIONS)
    _invocations: int = field(default=0, init=False)

    #: Whether carbon-intensity changes should trigger :meth:`optimize`.
    reoptimizes: bool = field(default=False, init=False)
    name: str = field(default="scheme", init=False)

    @abstractmethod
    def initial_config(self) -> ClusterConfig:
        """The configuration deployed before any optimization runs."""

    def optimize(
        self, ci: float, deployed: ClusterConfig | None
    ) -> InvocationOutcome:
        """React to carbon intensity ``ci``; default: (re)deploy the initial.

        Static schemes (BASE, CO2OPT) only pay the cold-start deployment on
        their first call and are no-ops afterwards.
        """
        target = self.initial_config()
        cost = 0.0
        if deployed is None:
            cost = self.cost_model.reconfiguration_s(None, target, ged=0)
        self._invocations += 1
        return InvocationOutcome(
            deployed=target, evaluated=(), virtual_cost_s=cost, termination="static"
        )

    def reset(self) -> None:
        """Forget per-run state, so the next run replays a fresh one.

        The invocation count indexes the per-invocation RNG substream.
        Pure caches (ORACLE's offline profile) survive.
        """
        self._invocations = 0

    def _fork_rng(self) -> np.random.Generator:
        """Per-invocation RNG substream (reproducible across runs)."""
        return self.mixer.fork(f"{self.name}-invocation", self._invocations)

    @property
    def invocations(self) -> int:
        return self._invocations


@dataclass
class BaseScheme(Scheme):
    """Carbon-unaware default: largest variant, no MIG partitioning."""

    def __post_init__(self) -> None:
        self.name = "base"
        self.reoptimizes = False

    def initial_config(self) -> ClusterConfig:
        return base_config(self.zoo.family(self.family), self.n_gpus)


@dataclass
class Co2OptScheme(Scheme):
    """Aggressive carbon minimizer: finest partition, smallest variant."""

    def __post_init__(self) -> None:
        self.name = "co2opt"
        self.reoptimizes = False

    def initial_config(self) -> ClusterConfig:
        return co2opt_config(
            self.zoo.family(self.family),
            self.n_gpus,
            max_partition_id=self.max_partition_id,
        )


@dataclass
class _SearchScheme(Scheme):
    """Shared plumbing of the two online-search schemes."""

    moves: MoveGenerator = field(init=False)
    #: The last invocation's deployment: the next search's warm start.
    _last_best: ClusterConfig | None = field(default=None, init=False)

    def reset(self) -> None:
        super().reset()
        self._last_best = None

    def _setup(self) -> None:
        self.moves = MoveGenerator(
            zoo=self.zoo,
            family=self.family,
            max_partition_id=self.max_partition_id,
        )

    def initial_config(self) -> ClusterConfig:
        # Both search schemes boot from the BASE deployment (it is what a
        # provider runs before turning the optimizer on) and improve online.
        return base_config(self.zoo.family(self.family), self.n_gpus)

    def _finalize(
        self,
        result: OptimizationResult,
        deployed: ClusterConfig | None,
    ) -> InvocationOutcome:
        """Pick the deployment from a search result.

        The SLA is a hard constraint: deploy the best SLA-compliant (and
        accuracy-compliant) configuration found; if none was found, stay on
        the current deployment (or fall back to the initial config on the
        very first invocation).
        """
        if result.best_deployable is not None:
            choice = result.best_deployable.config
        elif deployed is not None:
            choice = deployed
        else:
            choice = self.initial_config()
        # Final switch from the last explored candidate to the choice.
        last = result.evaluated[-1].config if result.evaluated else deployed
        extra = 0.0
        if last is not None and last.canonical() != choice.canonical():
            num_variants = self.zoo.family(self.family).num_variants
            ged = ConfigGraph.from_config(last, num_variants).ged(
                ConfigGraph.from_config(choice, num_variants)
            )
            extra = self.cost_model.reconfiguration_s(last, choice, ged)
        elif last is None:
            extra = self.cost_model.reconfiguration_s(None, choice, ged=0)
        return InvocationOutcome(
            deployed=choice,
            evaluated=result.evaluated,
            virtual_cost_s=result.elapsed_virtual_s + extra,
            termination=result.termination,
        )


@dataclass
class CloverScheme(_SearchScheme):
    """The paper's system: warm-started SA in the configuration-graph space."""

    def __post_init__(self) -> None:
        self.name = "clover"
        self.reoptimizes = True
        self._setup()

    def optimize(
        self, ci: float, deployed: ClusterConfig | None
    ) -> InvocationOutcome:
        rng = self._fork_rng()
        self._invocations += 1
        start = self._last_best or deployed or self.initial_config()
        result = simulated_annealing(
            initial=start,
            evaluator=self.evaluator,
            objective=self.objective,
            ci=ci,
            moves=self.moves,
            rng=rng,
            params=self.sa_params,
            cost=self.cost_model,
            deployed=deployed,
        )
        outcome = self._finalize(result, deployed)
        self._last_best = outcome.deployed
        return outcome


@dataclass
class BloverScheme(_SearchScheme):
    """Basic-Clover: random search in the raw (x_p, x_v) space.

    Implements all of Clover's design principles *except* the graph-based
    optimization of Sec. 4.2: the same warm start, objective, SLA handling
    and termination rule, but proposals uniformly re-draw whole GPUs
    (there is no graph notion of a "small" step in the raw space).  This is
    the paper's control that isolates the contribution of Sec. 4.2.
    """

    def __post_init__(self) -> None:
        self.name = "blover"
        self.reoptimizes = True
        self._setup()

    def optimize(
        self, ci: float, deployed: ClusterConfig | None
    ) -> InvocationOutcome:
        rng = self._fork_rng()
        self._invocations += 1
        start = self._last_best or deployed or self.initial_config()
        result = random_search(
            initial=start,
            evaluator=self.evaluator,
            objective=self.objective,
            ci=ci,
            moves=self.moves,
            rng=rng,
            params=self.sa_params,
            cost=self.cost_model,
            deployed=deployed,
        )
        outcome = self._finalize(result, deployed)
        self._last_best = outcome.deployed
        return outcome


def enumerate_standardized_configs(
    zoo: ModelZoo,
    family: str,
    n_gpus: int,
    max_partition_id: int = len(MIG_PARTITIONS),
) -> list[ClusterConfig]:
    """All standardized cluster configurations (ORACLE's search space).

    "Standardized" as in the paper's Sec. 5.1: the same partition and the
    same variant mixture on every GPU.  For each of the 19 partitions (or
    the subset the device pool's ``max_partition_id`` granularity admits),
    the variant assignment is unique up to the multiset chosen per slice
    type (slices of equal type are interchangeable), with OOM edges
    excluded.
    """
    fam = zoo.family(family)
    configs: list[ClusterConfig] = []
    for partition in MIG_PARTITIONS:
        if partition.config_id > max_partition_id:
            continue
        # Group the partition's slices by type, preserving largest-first order.
        type_counts: dict[int, int] = {}
        for s in partition.slices:
            type_counts[s.index] = type_counts.get(s.index, 0) + 1
        per_type_choices: list[list[tuple[int, ...]]] = []
        feasible_all = True
        for s_index, count in type_counts.items():
            ordinals = zoo.feasible_variants(family, s_index)
            if not ordinals:
                feasible_all = False
                break
            per_type_choices.append(
                [
                    combo
                    for combo in itertools.combinations_with_replacement(
                        ordinals, count
                    )
                ]
            )
        if not feasible_all:
            continue
        for combo in itertools.product(*per_type_choices):
            # Reassemble ordinals in the partition's slice order.
            by_type = {
                s_index: list(choice)
                for (s_index, _), choice in zip(type_counts.items(), combo)
            }
            ordinals = tuple(
                by_type[s.index].pop(0) for s in partition.slices
            )
            assignment = GpuAssignment(
                partition_id=partition.config_id, variant_ordinals=ordinals
            )
            configs.append(
                ClusterConfig(
                    family=fam.name, assignments=(assignment,) * n_gpus
                ).canonical()
            )
    return configs


@dataclass
class OracleScheme(Scheme):
    """Exhaustive offline profiling with instant zero-cost switching.

    The paper's upper bound: "it took the ORACLE scheme approximately two
    weeks to complete its offline profiling" — here the profile is the
    cached evaluation of every standardized configuration, and each carbon
    intensity change selects the argmax of Eq. 3 subject to the SLA by a
    vectorized sweep.
    """

    _configs: list[ClusterConfig] = field(default_factory=list, init=False)
    _accuracy: np.ndarray = field(default=None, init=False, repr=False)
    _energy: np.ndarray = field(default=None, init=False, repr=False)
    _p95: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.name = "oracle"
        self.reoptimizes = True

    def initial_config(self) -> ClusterConfig:
        return base_config(self.zoo.family(self.family), self.n_gpus)

    def _profile(self) -> None:
        """Offline exhaustive profiling (lazily built, then cached)."""
        if self._configs:
            return
        self._configs = enumerate_standardized_configs(
            self.zoo, self.family, self.n_gpus, self.max_partition_id
        )
        evals = [self.evaluator.evaluate(c) for c in self._configs]
        self._accuracy = np.array([e.accuracy for e in evals])
        self._energy = np.array([e.energy_per_request_j for e in evals])
        self._p95 = np.array([e.p95_ms for e in evals])

    def optimize(
        self, ci: float, deployed: ClusterConfig | None
    ) -> InvocationOutcome:
        self._profile()
        self._invocations += 1
        obj = self.objective
        d_acc = (self._accuracy - obj.a_base) / obj.a_base * 100.0
        carbon = np.array(
            [obj.carbon_per_request(e, ci) for e in self._energy]
        )
        d_carbon = (obj.c_base - carbon) / obj.c_base * 100.0
        f = obj.lambda_weight * d_carbon + (1.0 - obj.lambda_weight) * d_acc
        mask = self._p95 <= obj.sla.p95_target_ms
        if obj.accuracy_floor_pct is not None:
            mask &= d_acc >= -obj.accuracy_floor_pct
        if not np.any(mask):
            choice = deployed or self.initial_config()
        else:
            f_masked = np.where(mask, f, -np.inf)
            choice = self._configs[int(np.argmax(f_masked))]
        return InvocationOutcome(
            deployed=choice, evaluated=(), virtual_cost_s=0.0, termination="oracle"
        )


def make_scheme(
    name: str,
    zoo: ModelZoo,
    family: str,
    n_gpus: int,
    evaluator: ConfigEvaluator,
    objective: ObjectiveSpec,
    mixer: RngMixer | None = None,
    sa_params: SAParams | None = None,
    cost_model: OptimizationCostModel | None = None,
    max_partition_id: int | None = None,
) -> Scheme:
    """Factory by scheme name (``"base"`` .. ``"oracle"``)."""
    classes = {
        "base": BaseScheme,
        "co2opt": Co2OptScheme,
        "blover": BloverScheme,
        "clover": CloverScheme,
        "oracle": OracleScheme,
    }
    try:
        cls = classes[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; valid: {', '.join(SCHEME_NAMES)}"
        ) from None
    kwargs = dict(
        zoo=zoo,
        family=family,
        n_gpus=n_gpus,
        evaluator=evaluator,
        objective=objective,
    )
    if mixer is not None:
        kwargs["mixer"] = mixer
    if sa_params is not None:
        kwargs["sa_params"] = sa_params
    if cost_model is not None:
        kwargs["cost_model"] = cost_model
    if max_partition_id is not None:
        kwargs["max_partition_id"] = max_partition_id
    return cls(**kwargs)
