"""Small statistics helpers shared across the serving and analysis layers."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["exact_percentile", "weighted_mean"]


def exact_percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Return the ``q``-th percentile of ``values`` (q in [0, 100]).

    Uses the "lower-of-the-two" (inverted CDF) definition so that the result
    is always an observed sample — the convention used by tail-latency SLAs,
    where "p95 latency" means a latency some request actually experienced.

    Raises ``ValueError`` on empty input: an SLA over zero requests is
    meaningless and silently returning 0 would hide starvation bugs.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of zero samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(arr, q, method="inverted_cdf"))


def weighted_mean(values: Iterable[float], weights: Iterable[float]) -> float:
    """Weighted average; raises if the total weight is zero."""
    v = np.asarray(list(values), dtype=np.float64)
    w = np.asarray(list(weights), dtype=np.float64)
    if v.shape != w.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {w.shape}")
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight must be positive")
    return float((v * w).sum() / total)
