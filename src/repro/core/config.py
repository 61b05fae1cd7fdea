"""Cluster configurations: the paper's ``(x_p, x_v)`` optimization variables.

``x_p`` assigns every GPU one of the 19 MIG partition configurations; ``x_v``
assigns every resulting slice a model-variant ordinal.  This module gives
those variables a concrete, validated, canonical form:

* :class:`GpuAssignment` — one GPU's partition plus the variant hosted on
  each of its slices,
* :class:`ClusterConfig` — the whole cluster's assignment, with canonical
  ordering so that configurations the paper considers equivalent (same
  variant-on-slice-type multiset, different physical placement) compare
  equal and hash identically.

The canonicalization implements the paper's observation that "which GPU the
copy runs on ... may result in different (x_p, x_v) values, but they all
result in the same objective function value and the same graph x_g".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.gpu.partitions import (
    FINEST_PARTITION_ID,
    FULL_GPU_PARTITION_ID,
    MIG_PARTITIONS,
    MigPartition,
    partition_by_id,
)
from repro.gpu.slices import SliceType
from repro.models.families import ModelFamily
from repro.models.zoo import ModelZoo

__all__ = ["GpuAssignment", "ClusterConfig", "uniform_config", "base_config", "co2opt_config"]


@dataclass(frozen=True)
class GpuAssignment:
    """One GPU's MIG partition and the variant ordinal on each slice.

    ``variant_ordinals[i]`` is the variant hosted on ``partition.slices[i]``
    (slices ordered largest-first, as in :mod:`repro.gpu.partitions`).
    """

    partition_id: int
    variant_ordinals: tuple[int, ...]

    def __post_init__(self) -> None:
        partition = partition_by_id(self.partition_id)
        if len(self.variant_ordinals) != partition.num_instances:
            raise ValueError(
                f"partition #{self.partition_id} has {partition.num_instances} "
                f"slices but got {len(self.variant_ordinals)} variant ordinals"
            )
        if any(o < 1 for o in self.variant_ordinals):
            raise ValueError(
                f"variant ordinals must be >= 1, got {self.variant_ordinals}"
            )

    @property
    def partition(self) -> MigPartition:
        return partition_by_id(self.partition_id)

    def instances(self) -> tuple[tuple[SliceType, int], ...]:
        """``(slice_type, variant_ordinal)`` pairs for every hosted copy."""
        return tuple(zip(self.partition.slices, self.variant_ordinals))

    def canonical(self) -> "GpuAssignment":
        """Sort variant ordinals within runs of the same slice type.

        Two slices of the same type are interchangeable, so the order of
        their variants is irrelevant to the configuration graph.
        """
        pairs = sorted(
            self.instances(), key=lambda p: (-p[0].compute_slots, p[1])
        )
        return GpuAssignment(
            partition_id=self.partition_id,
            variant_ordinals=tuple(o for _, o in pairs),
        )

    def validate_against(self, family: ModelFamily) -> None:
        """Raise if an ordinal is unknown or a variant does not fit its slice."""
        for slice_type, ordinal in self.instances():
            variant = family.variant(ordinal)  # raises on unknown ordinal
            if not variant.fits(slice_type):
                raise ValueError(
                    f"{variant.name} ({variant.memory_gb:g} GB) does not fit "
                    f"slice {slice_type.name} ({slice_type.memory_gb:g} GB)"
                )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{s.name}:v{o}" for s, o in self.instances()
        )
        return f"#{self.partition_id}[{inner}]"


@dataclass(frozen=True)
class ClusterConfig:
    """A full cluster assignment ``(x_p, x_v)`` for one model family."""

    family: str
    assignments: tuple[GpuAssignment, ...]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("a cluster configuration needs at least one GPU")

    @property
    def n_gpus(self) -> int:
        return len(self.assignments)

    @property
    def num_instances(self) -> int:
        """Total service instances ``m`` (one per slice), ``n <= m <= 7n``."""
        return sum(a.partition.num_instances for a in self.assignments)

    @property
    def partition_ids(self) -> tuple[int, ...]:
        return tuple(a.partition_id for a in self.assignments)

    def instances(self) -> tuple[tuple[SliceType, int], ...]:
        """All ``(slice_type, variant_ordinal)`` pairs across the cluster."""
        out: list[tuple[SliceType, int]] = []
        for a in self.assignments:
            out.extend(a.instances())
        return tuple(out)

    def canonical(self) -> "ClusterConfig":
        """Canonical form: per-GPU canonical assignments, GPUs sorted.

        Canonically-equal configurations have identical configuration graphs
        and identical objective values; the evaluator caches on this.
        Memoized: configurations are frozen, so the canonical form is a
        pure function of the value, and equal configurations get the same
        canonical instance, which later cache lookups match by identity.
        """
        return _canonical_config(self)

    def validate_against(self, zoo: ModelZoo) -> None:
        """Raise if any hosted variant is unknown or memory-infeasible."""
        fam = zoo.family(self.family)
        for a in self.assignments:
            a.validate_against(fam)

    def with_assignment(self, gpu_index: int, assignment: GpuAssignment) -> "ClusterConfig":
        """Functional update of one GPU's assignment."""
        if not 0 <= gpu_index < self.n_gpus:
            raise IndexError(f"gpu_index {gpu_index} out of range [0, {self.n_gpus})")
        new = list(self.assignments)
        new[gpu_index] = assignment
        return ClusterConfig(family=self.family, assignments=tuple(new))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = " | ".join(str(a) for a in self.assignments)
        return f"{self.family}({inner})"


# 2048 holds the largest working set measured, 1,305 configurations in a
# paper-fidelity gated run (examples/scenarios/diurnal_gating.toml, seed 0).
@lru_cache(maxsize=2048)
def _canonical_config(config: ClusterConfig) -> ClusterConfig:
    """Memoized body of :meth:`ClusterConfig.canonical`."""
    canon = sorted(
        (a.canonical() for a in config.assignments),
        key=lambda a: (a.partition_id, a.variant_ordinals),
    )
    return ClusterConfig(family=config.family, assignments=tuple(canon))


def uniform_config(
    family: ModelFamily, n_gpus: int, partition_id: int, ordinal: int
) -> ClusterConfig:
    """Every GPU gets the same partition, every slice the same variant."""
    partition = partition_by_id(partition_id)
    assignment = GpuAssignment(
        partition_id=partition_id,
        variant_ordinals=(ordinal,) * partition.num_instances,
    )
    assignment.validate_against(family)
    return ClusterConfig(family=family.name, assignments=(assignment,) * n_gpus)


def base_config(family: ModelFamily, n_gpus: int) -> ClusterConfig:
    """The paper's BASE/default deployment: largest variant, no partitioning."""
    return uniform_config(
        family, n_gpus, FULL_GPU_PARTITION_ID, family.largest.ordinal
    )


def co2opt_config(
    family: ModelFamily, n_gpus: int, max_partition_id: int | None = None
) -> ClusterConfig:
    """The CO2OPT deployment: finest feasible partition, smallest variant.

    Uses config 19 (seven 1g slices) when the smallest variant fits a 1g
    slice; otherwise falls back to the finest partition whose smallest slice
    can host it (relevant for user-registered families with big "small"
    models).  ``max_partition_id`` caps the choice at the device pool's
    partition granularity — a non-MIG pool degenerates CO2OPT to the
    smallest variant on unpartitioned GPUs.
    """
    smallest = family.smallest
    candidates = sorted(
        MIG_PARTITIONS, key=lambda p: (-p.num_instances, p.config_id)
    )
    if max_partition_id is not None:
        candidates = [p for p in candidates if p.config_id <= max_partition_id]
    for partition in candidates:
        if all(smallest.fits(s) for s in partition.slices):
            return uniform_config(
                family, n_gpus, partition.config_id, smallest.ordinal
            )
    raise ValueError(  # pragma: no cover - smallest always fits 7g
        f"{smallest.name} does not fit any MIG partition"
    )


# Re-export the paper's anchor ids for convenience of downstream code.
FULL_GPU = FULL_GPU_PARTITION_ID
FINEST = FINEST_PARTITION_ID
