"""Slice-histogram decomposition onto per-GPU MIG partitions.

Clover's graph representation collapses a cluster configuration into a
slice-type histogram (how many ``1g`` .. ``7g`` slices exist cluster-wide).
The histogram is only *realizable* if it can be written as the sum of exactly
``n`` per-GPU partition histograms, one of the 19 MIG configurations per GPU.
:func:`decompose_histogram` solves that exact-cover problem with a memoized
depth-first search; :func:`repro.core.feasibility.realize_graph` builds a
concrete deployment from its answer.

The search de-duplicates GPU orderings by forcing the chosen partition ids to
be non-increasing, which keeps the memo small: for the paper's 10-GPU testbed
the full reachable state space is a few thousand entries.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.gpu.partitions import ALL_PARTITION_HISTOGRAMS, NUM_PARTITIONS
from repro.gpu.slices import SLICE_TYPES

__all__ = ["decompose_histogram"]

#: Histogram rows as plain tuples, indexed by config_id - 1 (cache-friendly).
_PARTITION_HISTS: tuple[tuple[int, ...], ...] = tuple(
    tuple(int(x) for x in row) for row in ALL_PARTITION_HISTOGRAMS
)

#: Instance count of each partition, indexed by config_id - 1.
_PARTITION_SIZES: tuple[int, ...] = tuple(sum(h) for h in _PARTITION_HISTS)

_MAX_SLICES_PER_GPU = max(_PARTITION_SIZES)
_MIN_SLICES_PER_GPU = min(_PARTITION_SIZES)


def _normalize_histogram(histogram) -> tuple[int, ...]:
    h = tuple(int(x) for x in np.asarray(histogram).ravel())
    if len(h) != len(SLICE_TYPES):
        raise ValueError(
            f"histogram must have {len(SLICE_TYPES)} entries (1g..7g), got {len(h)}"
        )
    if any(x < 0 for x in h):
        raise ValueError(f"histogram counts must be non-negative, got {h}")
    return h


@lru_cache(maxsize=200_000)
def _decompose(h: tuple[int, ...], n: int, max_id: int) -> tuple[int, ...] | None:
    """Write ``h`` as the sum of ``n`` partition histograms with ids <= max_id.

    Returns the chosen (non-increasing) partition ids, or ``None``.
    """
    total = sum(h)
    if n == 0:
        return () if total == 0 else None
    # Every GPU hosts between 1 and 7 slices, so the remaining instance count
    # brackets the remaining GPU count.
    if total < n * _MIN_SLICES_PER_GPU or total > n * _MAX_SLICES_PER_GPU:
        return None
    for pid in range(max_id, 0, -1):
        ph = _PARTITION_HISTS[pid - 1]
        if all(hc >= pc for hc, pc in zip(h, ph)):
            rest = _decompose(
                tuple(hc - pc for hc, pc in zip(h, ph)), n - 1, pid
            )
            if rest is not None:
                return (pid,) + rest
    return None


def decompose_histogram(
    histogram, n_gpus: int, max_partition_id: int = NUM_PARTITIONS
) -> tuple[int, ...] | None:
    """Split a cluster slice histogram into per-GPU MIG partition ids.

    Parameters
    ----------
    histogram:
        Length-5 counts of slice types (index = ``SliceType.index``,
        i.e. ``[#1g, #2g, #3g, #4g, #7g]``).
    n_gpus:
        Number of GPUs that must each receive exactly one partition.
    max_partition_id:
        Highest partition config id any GPU may receive — the pool's
        partition granularity (see
        :attr:`repro.gpu.profiles.DevicePool.partition_granularity`); the
        default admits every MIG configuration.

    Returns
    -------
    A tuple of ``n_gpus`` partition config ids (non-increasing) whose
    histograms sum to ``histogram``, or ``None`` if no decomposition exists.
    """
    if n_gpus < 0:
        raise ValueError(f"n_gpus must be non-negative, got {n_gpus}")
    if not 1 <= max_partition_id <= NUM_PARTITIONS:
        raise ValueError(
            f"max partition id must be in [1, {NUM_PARTITIONS}], "
            f"got {max_partition_id}"
        )
    h = _normalize_histogram(histogram)
    return _decompose(h, n_gpus, max_partition_id)
