"""Neighbourhood moves in the configuration-graph space (Sec. 4.2).

The paper defines the SA neighbourhood as all configurations within graph
edit distance 4 of the current centre: one variant swap costs 2, one
slice-type switch costs 2, so a neighbour differs by at most two elementary
changes.  :class:`MoveGenerator` samples such neighbours by applying
elementary moves to a *concrete* cluster configuration (so feasibility —
both MIG placement and memory — holds by construction) and then verifying
the resulting graph distance:

* ``variant``      — re-host one instance with a different variant (GED 2),
* ``variant2``     — two independent variant swaps (GED up to 4),
* ``repartition``  — change one GPU to a partition whose slice histogram is
  within L1 distance 4, inheriting variants where slices survive
  (GED up to 4: slice switches + instance additions/removals).

Candidates whose graph leaves the GED <= 4 ball (e.g. two swaps that happen
to touch the same edge and cancel, or a repartition that forces too many
variant changes) are rejected and re-sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ClusterConfig, GpuAssignment
from repro.core.graph import ConfigGraph
from repro.gpu.partitions import MIG_PARTITIONS, partition_by_id
from repro.models.zoo import ModelZoo
from repro.utils.rng import as_generator

__all__ = ["MoveGenerator", "partition_neighbors", "GED_THRESHOLD"]

#: The paper's neighbourhood radius: "Clover sets this GED threshold to be
#: four".
GED_THRESHOLD = 4


def partition_neighbors(
    threshold: int = GED_THRESHOLD,
    max_partition_id: int = len(MIG_PARTITIONS),
) -> dict[int, tuple[int, ...]]:
    """Pairs of MIG partitions whose histograms differ by <= ``threshold``.

    The histogram L1 difference lower-bounds the GED cost of repartitioning
    one GPU, so only these pairs can yield in-neighbourhood moves.
    ``max_partition_id`` restricts both sides of every pair to the device
    pool's partition granularity.
    """
    partitions = [p for p in MIG_PARTITIONS if p.config_id <= max_partition_id]
    hists = {p.config_id: p.histogram() for p in partitions}
    out: dict[int, list[int]] = {p.config_id: [] for p in partitions}
    for a in partitions:
        for b in partitions:
            if a.config_id == b.config_id:
                continue
            d = int(np.abs(hists[a.config_id] - hists[b.config_id]).sum())
            if d <= threshold:
                out[a.config_id].append(b.config_id)
    return {k: tuple(v) for k, v in out.items()}


@dataclass
class MoveGenerator:
    """Samples random GED <= 4 neighbours of a cluster configuration.

    ``max_partition_id`` bounds every sampled or proposed partition to the
    device pool's granularity (see
    :attr:`repro.gpu.profiles.DevicePool.partition_granularity`): a
    granularity-1 pool (an L4 in the mix) restricts the search to
    unpartitioned GPUs, where the only moves left are variant swaps.
    """

    zoo: ModelZoo
    family: str
    threshold: int = GED_THRESHOLD
    max_attempts: int = 64
    max_partition_id: int = len(MIG_PARTITIONS)
    _partition_adj: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    _num_variants: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.threshold < 2:
            raise ValueError(
                f"threshold below 2 admits no moves, got {self.threshold}"
            )
        if not 1 <= self.max_partition_id <= len(MIG_PARTITIONS):
            raise ValueError(
                f"max partition id must be in [1, {len(MIG_PARTITIONS)}], "
                f"got {self.max_partition_id}"
            )
        self._partition_adj = partition_neighbors(
            self.threshold, self.max_partition_id
        )
        self._num_variants = self.zoo.family(self.family).num_variants

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def propose(
        self, config: ClusterConfig, rng: int | np.random.Generator | None = None
    ) -> ClusterConfig | None:
        """One random neighbour of ``config`` (GED in (0, threshold]).

        Returns ``None`` if ``max_attempts`` samples all failed to produce a
        distinct in-neighbourhood configuration (tiny families on tiny
        clusters can have very few neighbours).
        """
        gen = as_generator(rng)
        base_graph = ConfigGraph.from_config(config, self._num_variants)
        kinds = ("variant", "variant", "variant2", "repartition", "repartition")
        for _ in range(self.max_attempts):
            kind = kinds[int(gen.integers(len(kinds)))]
            if kind == "variant":
                candidate = self._move_variant(config, gen)
            elif kind == "variant2":
                candidate = self._move_variant(config, gen)
                if candidate is not None:
                    candidate = self._move_variant(candidate, gen)
            else:
                candidate = self._move_repartition(config, gen)
            if candidate is None:
                continue
            # Project the canonical form, which is what the caller
            # evaluates: its graph is then already memoized.
            candidate = candidate.canonical()
            cand_graph = ConfigGraph.from_config(candidate, self._num_variants)
            if base_graph.is_neighbor(cand_graph, self.threshold):
                return candidate
        return None

    def random_config(
        self, n_gpus: int, rng: int | np.random.Generator | None = None
    ) -> ClusterConfig:
        """Uniformly random raw-space configuration (Blover's sampler).

        Independently draws each GPU's partition among the 19 and each
        slice's variant among the memory-feasible ordinals — the "original
        problem space defined by x_p and x_v".
        """
        gen = as_generator(rng)
        assignments = tuple(
            self._random_assignment(gen) for _ in range(n_gpus)
        )
        return ClusterConfig(
            family=self.family, assignments=assignments
        ).canonical()

    def perturb_config(
        self,
        config: ClusterConfig,
        rng: int | np.random.Generator | None = None,
        per_gpu_prob: float = 0.3,
    ) -> ClusterConfig:
        """Raw-space random perturbation (Blover's proposal distribution).

        Each GPU is independently re-drawn (fresh random partition and
        variants) with probability ``per_gpu_prob``; at least one GPU always
        changes.  This is "random search in the original (x_p, x_v) space":
        without the graph representation there is no notion of a *small*
        step, so every proposal reconfigures whole GPUs — which is exactly
        why Blover pays more reconfiguration time and violates the SLA more
        often during exploration than Clover's GED <= 4 moves.
        """
        if not 0.0 < per_gpu_prob <= 1.0:
            raise ValueError(
                f"per_gpu_prob must be in (0, 1], got {per_gpu_prob}"
            )
        gen = as_generator(rng)
        flags = gen.random(config.n_gpus) < per_gpu_prob
        if not flags.any():
            flags[int(gen.integers(config.n_gpus))] = True
        assignments = tuple(
            self._random_assignment(gen) if flag else assignment
            for flag, assignment in zip(flags, config.assignments)
        )
        return ClusterConfig(
            family=self.family, assignments=assignments
        ).canonical()

    def _random_assignment(self, gen: np.random.Generator) -> GpuAssignment:
        """One GPU's uniformly random *supported* partition + variants."""
        pid = int(gen.integers(1, self.max_partition_id + 1))
        partition = partition_by_id(pid)
        ordinals = tuple(
            int(gen.choice(self.zoo.feasible_variants(self.family, s.index)))
            for s in partition.slices
        )
        return GpuAssignment(partition_id=pid, variant_ordinals=ordinals)

    # ------------------------------------------------------------------ #
    # elementary moves
    # ------------------------------------------------------------------ #

    def _move_variant(
        self, config: ClusterConfig, gen: np.random.Generator
    ) -> ClusterConfig | None:
        """Swap the variant of one uniformly-chosen instance (GED 2)."""
        sizes = [a.partition.num_instances for a in config.assignments]
        total = sum(sizes)
        flat = int(gen.integers(total))
        gpu_idx = 0
        while flat >= sizes[gpu_idx]:
            flat -= sizes[gpu_idx]
            gpu_idx += 1
        assignment = config.assignments[gpu_idx]
        slice_type = assignment.partition.slices[flat]
        current = assignment.variant_ordinals[flat]
        feasible = [
            o
            for o in self.zoo.feasible_variants(self.family, slice_type.index)
            if o != current
        ]
        if not feasible:
            return None
        new_ordinal = int(feasible[int(gen.integers(len(feasible)))])
        ordinals = list(assignment.variant_ordinals)
        ordinals[flat] = new_ordinal
        return config.with_assignment(
            gpu_idx,
            GpuAssignment(
                partition_id=assignment.partition_id,
                variant_ordinals=tuple(ordinals),
            ),
        )

    def _move_repartition(
        self, config: ClusterConfig, gen: np.random.Generator
    ) -> ClusterConfig | None:
        """Repartition one GPU to an adjacent MIG configuration.

        Variants are inherited slice-type by slice-type; slices that survive
        keep their variants, displaced variants fill new slices when they
        fit, and any remaining new slice takes the closest feasible ordinal
        of a displaced variant (keeping the move's GED minimal).
        """
        gpu_idx = int(gen.integers(config.n_gpus))
        assignment = config.assignments[gpu_idx]
        neighbors = self._partition_adj[assignment.partition_id]
        if not neighbors:
            return None
        new_pid = int(neighbors[int(gen.integers(len(neighbors)))])
        new_partition = partition_by_id(new_pid)

        # Pools of old variants per slice-type index.
        pools: dict[int, list[int]] = {}
        for slice_type, ordinal in assignment.instances():
            pools.setdefault(slice_type.index, []).append(ordinal)

        ordinals: list[int] = []
        displaced: list[int] = []
        for slice_type in new_partition.slices:
            pool = pools.get(slice_type.index)
            if pool:
                ordinals.append(pool.pop())
            else:
                ordinals.append(-1)  # placeholder: fill from displaced below
        for leftover in pools.values():
            displaced.extend(leftover)

        feasible_cache: dict[int, tuple[int, ...]] = {}
        for i, slice_type in enumerate(new_partition.slices):
            if ordinals[i] != -1:
                continue
            feas = feasible_cache.setdefault(
                slice_type.index,
                self.zoo.feasible_variants(self.family, slice_type.index),
            )
            if not feas:
                return None
            chosen = None
            for j, d in enumerate(displaced):
                if d in feas:
                    chosen = displaced.pop(j)
                    break
            if chosen is None:
                if displaced:
                    # Closest feasible ordinal to a displaced variant.
                    target = displaced.pop(0)
                    chosen = min(feas, key=lambda o: abs(o - target))
                else:
                    chosen = int(feas[int(gen.integers(len(feas)))])
            ordinals[i] = chosen

        return config.with_assignment(
            gpu_idx,
            GpuAssignment(partition_id=new_pid, variant_ordinals=tuple(ordinals)),
        )
