"""Small statistics helpers shared across the serving and analysis layers."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["exact_percentile", "exact_percentiles", "weighted_mean"]


def exact_percentiles(
    values: Sequence[float] | np.ndarray, qs: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Return the ``qs``-th percentiles of ``values`` (each q in [0, 100]).

    Uses the "lower-of-the-two" (inverted CDF) definition so that every
    result is an observed sample — the convention used by tail-latency
    SLAs, where "p95 latency" means a latency some request actually
    experienced.  Each percentile is an order statistic: its index is
    numpy's own ``inverted_cdf`` rule (``n * q / 100 - 1``, rounded up
    when fractional, clamped at 0), and one ``np.partition`` places all
    of them, so the results equal ``np.percentile(values, qs,
    method="inverted_cdf")`` bit for bit.

    Raises ``ValueError`` on empty input: an SLA over zero requests is
    meaningless and silently returning 0 would hide starvation bugs.

    >>> exact_percentiles([5.0, 1.0, 4.0, 2.0, 3.0], [0, 50, 95, 100]).tolist()
    [1.0, 3.0, 5.0, 5.0]
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot take a percentile of zero samples")
    q = np.asarray(qs, dtype=np.float64)
    if not np.all((q >= 0.0) & (q <= 100.0)):
        raise ValueError(f"percentiles must be in [0, 100], got {qs}")
    # numpy's inverted-CDF index: floor, one step up when fractional
    # (that is, the ceiling), clamped at 0.
    virtual = arr.size * (q / 100.0) - 1.0
    index = np.maximum(np.ceil(virtual), 0.0).astype(np.intp)
    # The last slot is partitioned too, so a NaN sample (which sorts
    # last) is seen and propagated the way np.percentile does.
    ordered = np.partition(arr, np.append(index.ravel(), arr.size - 1))
    if np.isnan(ordered[-1]):
        return np.full(q.shape, np.nan)
    return ordered[index]


def exact_percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Return the ``q``-th percentile of ``values`` (q in [0, 100]).

    The scalar form of :func:`exact_percentiles`, with the same inverted
    CDF convention and errors.
    """
    return float(exact_percentiles(values, [q])[0])


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
