"""Serving metrics: latency summaries, request shares, and utilization.

Turns raw :class:`~repro.serving.requests.RequestBatch` records from the DES
into the quantities the paper reports: tail latency percentiles, throughput,
and the per-instance request shares that weight the overall accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.requests import RequestBatch
from repro.utils.stats import exact_percentiles

__all__ = ["LatencySummary", "ServingMetrics", "summarize", "DEFAULT_WARMUP_FRACTION"]

#: Fraction of the earliest requests dropped before computing steady-state
#: statistics (the empty-queue start would bias tail latency down).
DEFAULT_WARMUP_FRACTION = 0.1


@dataclass(frozen=True)
class LatencySummary:
    """End-to-end latency percentiles of a measured batch, in milliseconds.

    The percentiles are inverted-CDF order statistics, so p50, p95, p99
    and the maximum (p100) all come out of one partition of the batch:

    >>> from repro.serving.requests import RequestBatch
    >>> finish_s = np.array([2.0, 0.5, 1.5, 1.0])
    >>> batch = RequestBatch(
    ...     arrival_s=np.zeros(4), start_s=np.zeros(4), finish_s=finish_s,
    ...     instance_index=np.zeros(4, dtype=np.int64))
    >>> summary = LatencySummary.from_batch(batch)
    >>> summary.p50_ms, summary.p95_ms, summary.max_ms
    (1000.0, 2000.0, 2000.0)
    """

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_batch(cls, batch: RequestBatch) -> "LatencySummary":
        lat = batch.latency_ms
        if lat.size == 0:
            raise ValueError("cannot summarize an empty request batch")
        p50, p95, p99, p100 = exact_percentiles(lat, (50.0, 95.0, 99.0, 100.0))
        return cls(
            count=int(lat.size),
            mean_ms=float(lat.mean()),
            p50_ms=float(p50),
            p95_ms=float(p95),
            p99_ms=float(p99),
            max_ms=float(p100),
        )


@dataclass(frozen=True)
class ServingMetrics:
    """Everything the runner reads off one measured window of serving."""

    latency: LatencySummary
    throughput_rps: float
    shares: np.ndarray
    utilization: np.ndarray
    makespan_s: float

    @property
    def mean_utilization(self) -> float:
        return float(self.utilization.mean())


def summarize(
    batch: RequestBatch,
    n_instances: int,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> ServingMetrics:
    """Compute steady-state metrics from a simulated batch.

    Parameters
    ----------
    batch:
        The DES output.
    n_instances:
        Total instance count (instances that served zero requests still get
        a share/utilization entry of 0, which matters for accuracy weights).
    warmup_fraction:
        Leading fraction of requests trimmed as transient.
    """
    if n_instances <= 0:
        raise ValueError(f"n_instances must be positive, got {n_instances}")
    if len(batch) == 0:
        raise ValueError("cannot summarize an empty request batch")
    steady = batch.tail(warmup_fraction)
    if len(steady) == 0:
        steady = batch

    makespan = float(steady.finish_s.max() - steady.arrival_s.min())
    makespan = max(makespan, 1e-12)

    counts = np.bincount(steady.instance_index, minlength=n_instances).astype(
        np.float64
    )
    busy = np.bincount(
        steady.instance_index, weights=steady.service_s, minlength=n_instances
    )

    return ServingMetrics(
        latency=LatencySummary.from_batch(steady),
        throughput_rps=len(steady) / makespan,
        shares=counts / counts.sum(),
        utilization=np.clip(busy / makespan, 0.0, 1.0),
        makespan_s=makespan,
    )
