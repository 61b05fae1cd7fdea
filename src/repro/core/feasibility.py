"""Graph → deployment: realize a configuration graph on concrete GPUs.

A configuration graph is an abstraction; deploying it requires concrete
per-GPU partitions whose slice histograms sum to the graph's slice
histogram (exact cover over the 19 MIG configurations).
:func:`realize_graph` finds one deterministically, so realized
deployments are reproducible.  The evaluator calls it to price each graph
it evaluates on a device pool (a heterogeneous fleet's regions): the
realization's ``i``-th canonical assignment runs on the pool's ``i``-th
device.  The move generator keeps every candidate feasible by
construction, so no search step asks whether a graph decomposes.
"""

from __future__ import annotations

from repro.core.config import ClusterConfig, GpuAssignment
from repro.core.graph import ConfigGraph
from repro.gpu.cluster import decompose_histogram
from repro.gpu.partitions import NUM_PARTITIONS, partition_by_id
from repro.gpu.slices import SLICE_TYPES

__all__ = ["realize_graph"]


def realize_graph(
    graph: ConfigGraph, n_gpus: int, max_partition_id: int = NUM_PARTITIONS
) -> ClusterConfig:
    """Deterministically materialize a graph as a concrete configuration.

    The slice histogram is decomposed into per-GPU partitions; within each
    slice type, variant copies are dealt out in ascending ordinal order
    across the partitions in decomposition order.  Any realization of the
    same graph is observationally equivalent (the paper's compaction
    argument), so determinism is purely for reproducibility.

    Raises
    ------
    ValueError
        If the histogram cannot be decomposed into ``n_gpus`` partitions.
    """
    partition_ids = decompose_histogram(
        graph.slice_histogram(), n_gpus, max_partition_id
    )
    if partition_ids is None:
        raise ValueError(
            f"slice histogram {graph.slice_histogram().tolist()} is not "
            f"realizable on {n_gpus} GPUs"
        )

    # Per slice type, the queue of variant ordinals to deal out.
    queues: list[list[int]] = []
    for s in range(len(SLICE_TYPES)):
        col = graph.weights[:, s]
        queue: list[int] = []
        for v_idx in range(graph.num_variants):
            queue.extend([v_idx + 1] * int(col[v_idx]))
        queues.append(queue)
    positions = [0] * len(SLICE_TYPES)

    assignments: list[GpuAssignment] = []
    for pid in partition_ids:
        partition = partition_by_id(pid)
        ordinals: list[int] = []
        for slice_type in partition.slices:
            idx = slice_type.index
            ordinals.append(queues[idx][positions[idx]])
            positions[idx] += 1
        assignments.append(
            GpuAssignment(partition_id=pid, variant_ordinals=tuple(ordinals))
        )

    config = ClusterConfig(family=graph.family, assignments=tuple(assignments))
    return config.canonical()
