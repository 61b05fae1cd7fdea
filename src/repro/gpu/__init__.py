"""Simulated MIG-capable GPU substrate.

This package models the hardware the Clover paper runs on: NVIDIA A100-40GB
GPUs with Multi-Instance GPU (MIG) partitioning.  It provides

* the five MIG slice types (:mod:`repro.gpu.slices`),
* the 19 valid partition configurations of an A100 (:mod:`repro.gpu.partitions`),
* the idle + dynamic power model (:mod:`repro.gpu.power`),
* slice-histogram decomposition onto per-GPU partitions (:mod:`repro.gpu.cluster`), and
* heterogeneous device generations — A100 / H100 / L4 profiles with
  distinct power curves, throughput scalars, wake energies and partition
  granularities (:mod:`repro.gpu.profiles`).

The hardware holds no state: the optimizer prices repartitions and model
loads (:class:`~repro.core.annealing.OptimizationCostModel`), and the
fleet's :class:`~repro.fleet.capacity.GatingPolicy` sets the wake latency.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "slices": ("SliceType", "SLICE_TYPES", "slice_by_name"),
    "partitions": (
        "MigPartition", "MIG_PARTITIONS", "partition_by_id",
        "partition_histogram", "FULL_GPU_PARTITION_ID",
        "FINEST_PARTITION_ID", "NUM_PARTITIONS",
    ),
    "power": ("PowerModel",),
    "cluster": ("decompose_histogram",),
    "profiles": (
        "DeviceProfile", "DevicePool", "DEVICE_PROFILES", "DEVICE_NAMES",
        "A100_PROFILE", "H100_PROFILE", "L4_PROFILE", "profile_by_name",
    ),
})
