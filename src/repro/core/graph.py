"""The Clover configuration graph and graph edit distance (Sec. 4.2).

A configuration graph is a weighted bipartite graph between **model-variant
vertices** and **MIG slice-type vertices**; the weight of edge ``(v, s)`` is
the number of copies of variant ``v`` hosted on slices of type ``s``
anywhere in the cluster.  Because both vertex sets are fixed, the graph is
fully described by its ``(V, 5)`` integer weight matrix, and the paper's
graph edit distance (each edge-weight unit added or removed is one edit)
reduces to the L1 distance between weight matrices.

That representation delivers the two properties the paper claims:

* **compaction** — physically different placements with the same
  variant-on-slice-type multiset collapse to one graph (MIG isolation makes
  them observationally identical), and
* **additivity** — adding GPUs to the cluster adds their edge weights;
  removing subtracts them (``__add__`` / ``__sub__`` below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.gpu.slices import SLICE_TYPES
from repro.core.config import ClusterConfig, GpuAssignment

__all__ = ["ConfigGraph", "graph_edit_distance"]


@lru_cache(maxsize=8192)
def _assignment_weights(
    assignment: GpuAssignment, num_variants: int
) -> np.ndarray:
    """One GPU's contribution to the weight matrix, memoized.

    Assignments recur constantly across a search (a candidate differs from
    its parent on one GPU), so projecting per assignment and summing the
    cached int64 matrices reproduces the per-instance loop exactly —
    integer adds are order-independent — at a fraction of the cost.
    """
    w = np.zeros((num_variants, len(SLICE_TYPES)), dtype=np.int64)
    for slice_type, ordinal in assignment.instances():
        if ordinal > num_variants:
            raise ValueError(
                f"config uses variant ordinal {ordinal} but the family has "
                f"only {num_variants} variants"
            )
        w[ordinal - 1, slice_type.index] += 1
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class ConfigGraph:
    """Weighted bipartite variant x slice-type graph of a configuration.

    ``weights[v - 1, s]`` = copies of variant ordinal ``v`` on slice type
    index ``s`` (0 = 1g .. 4 = 7g).
    """

    family: str
    weights: np.ndarray
    _key: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.int64)
        if w.ndim != 2 or w.shape[1] != len(SLICE_TYPES):
            raise ValueError(
                f"weights must be (num_variants, {len(SLICE_TYPES)}), got {w.shape}"
            )
        if np.any(w < 0):
            raise ValueError("edge weights must be non-negative")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_key", w.tobytes())

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_config(cls, config: ClusterConfig, num_variants: int) -> "ConfigGraph":
        """Project a concrete cluster configuration onto its graph.

        Memoized per ``(config, num_variants)``: graphs are frozen with
        write-locked weights, so a search that revisits a configuration
        (every SA move touches prev and candidate) shares one instance
        instead of re-projecting.
        """
        return _graph_from_config(config, num_variants)

    # ------------------------------------------------------------------ #
    # graph edit distance and similarity
    # ------------------------------------------------------------------ #

    def ged(self, other: "ConfigGraph") -> int:
        """Graph edit distance: L1 distance between weight matrices.

        One unit of edge weight added or removed is one edit, so swapping
        one instance's variant costs 2 and moving one instance to a
        different slice type costs 2 — the neighbourhood arithmetic of
        Sec. 4.2.
        """
        self._check_compatible(other)
        return int(np.abs(self.weights - other.weights).sum())

    def is_neighbor(self, other: "ConfigGraph", threshold: int = 4) -> bool:
        """Whether ``other`` is within the paper's GED-4 neighbourhood."""
        d = self.ged(other)
        return 0 < d <= threshold

    # ------------------------------------------------------------------ #
    # additivity (the paper's second advantage of the graph form)
    # ------------------------------------------------------------------ #

    def __add__(self, other: "ConfigGraph") -> "ConfigGraph":
        self._check_compatible(other)
        return ConfigGraph(family=self.family, weights=self.weights + other.weights)

    def __sub__(self, other: "ConfigGraph") -> "ConfigGraph":
        """Edge-weight deduction (removing GPUs); negative results raise."""
        self._check_compatible(other)
        diff = self.weights - other.weights
        if np.any(diff < 0):
            raise ValueError(
                "cannot remove more instances than the graph contains"
            )
        return ConfigGraph(family=self.family, weights=diff)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def num_variants(self) -> int:
        return int(self.weights.shape[0])

    @property
    def total_instances(self) -> int:
        """Total number of hosted model copies (sum of all edge weights)."""
        return int(self.weights.sum())

    def slice_histogram(self) -> np.ndarray:
        """Cluster slice-type histogram (column sums), len 5."""
        return self.weights.sum(axis=0)

    def variant_counts(self) -> np.ndarray:
        """Copies of each variant (row sums), len ``num_variants``."""
        return self.weights.sum(axis=1)

    def key(self) -> bytes:
        """Stable hashable key for evaluator caching (computed once)."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfigGraph):
            return NotImplemented
        return self.family == other.family and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self) -> int:
        return hash((self.family, self._key))

    def _check_compatible(self, other: "ConfigGraph") -> None:
        if self.family != other.family:
            raise ValueError(
                f"cannot compare graphs of families "
                f"{self.family!r} and {other.family!r}"
            )
        if self.weights.shape != other.weights.shape:
            raise ValueError(
                f"graph shapes differ: {self.weights.shape} vs "
                f"{other.weights.shape}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        edges = [
            f"V{v + 1}-{SLICE_TYPES[s].name}:{self.weights[v, s]}"
            for v, s in zip(*np.nonzero(self.weights))
        ]
        return f"ConfigGraph({self.family}; {', '.join(edges)})"


@lru_cache(maxsize=4096)
def _graph_from_config(config: ClusterConfig, num_variants: int) -> ConfigGraph:
    """Memoized body of :meth:`ConfigGraph.from_config`.

    Safe to share because :class:`ConfigGraph` is frozen and its weight
    matrix is write-locked; integer per-assignment sums reproduce the
    per-instance projection exactly.
    """
    w = np.zeros((num_variants, len(SLICE_TYPES)), dtype=np.int64)
    for assignment in config.assignments:
        w += _assignment_weights(assignment, num_variants)
    return ConfigGraph(family=config.family, weights=w)


def graph_edit_distance(a: ConfigGraph, b: ConfigGraph) -> int:
    """Module-level alias of :meth:`ConfigGraph.ged` (reads better in code
    that treats GED as a metric between two graphs)."""
    return a.ged(b)
