"""Poisson user-query workload (the paper's standard methodology).

The paper models user queries as a Poisson process whose rate is chosen so
that the BASE deployment (largest variant, unpartitioned GPUs) runs with
"neither resource starvation nor idle GPUs".  :func:`default_rate` encodes
that sizing rule: a target utilization of the BASE configuration's aggregate
service capacity.

Time-varying demand (:mod:`repro.demand`) changes only the rate from one
epoch to the next: each measurement draws homogeneous arrivals at its
epoch's rate (:meth:`PoissonWorkload.arrivals_fixed_count`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.slices import SLICE_TYPES, slice_by_name
from repro.models.families import ModelFamily
from repro.models.perf import PerfModel
from repro.utils.rng import as_generator

__all__ = [
    "PoissonWorkload",
    "default_rate",
    "DEFAULT_BASE_UTILIZATION",
]

#: Sizing target for the BASE deployment: busy but not saturated.
DEFAULT_BASE_UTILIZATION = 0.65


@dataclass(frozen=True)
class PoissonWorkload:
    """Memoryless arrival process with a fixed rate (requests per second)."""

    rate_per_s: float

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.rate_per_s}")

    def arrivals_fixed_count(
        self, n: int, rng: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Sample exactly ``n`` arrivals via exponential inter-arrival gaps.

        Used when a measurement needs a fixed sample size (e.g. a p95
        estimate of a candidate configuration) rather than a fixed window.
        """
        if n < 0:
            raise ValueError(f"arrival count must be non-negative, got {n}")
        gen = as_generator(rng)
        gaps = gen.exponential(1.0 / self.rate_per_s, size=n)
        return np.cumsum(gaps)


def default_rate(
    family: ModelFamily,
    perf: PerfModel,
    n_gpus: int,
    utilization: float = DEFAULT_BASE_UTILIZATION,
    throughput_scale_sum: float | None = None,
) -> float:
    """Paper-style workload sizing: a fraction of BASE's service capacity.

    BASE hosts the family's largest variant on every unpartitioned (7g) GPU,
    so its aggregate capacity is ``n_gpus / tau(largest, 7g)``; the returned
    rate loads that capacity to ``utilization``.

    ``throughput_scale_sum`` sizes a *heterogeneous* cluster: the pool's
    capacity in A100-equivalents
    (:attr:`repro.gpu.profiles.DevicePool.throughput_scale_sum`) replaces
    the bare GPU count, so a 4-GPU L4 pool at scale 0.4 is sized like 1.6
    reference GPUs.  ``None`` — the default — is the seed homogeneous
    sizing, bit for bit.
    """
    if n_gpus <= 0:
        raise ValueError(f"n_gpus must be positive, got {n_gpus}")
    if not 0.0 < utilization < 1.0:
        raise ValueError(f"utilization must be in (0, 1), got {utilization}")
    full = slice_by_name("7g")
    assert full in SLICE_TYPES
    per_gpu_rate = perf.service_rate(family.largest, full)
    if throughput_scale_sum is not None:
        if throughput_scale_sum <= 0:
            raise ValueError(
                f"throughput scale sum must be positive, got {throughput_scale_sum}"
            )
        return utilization * throughput_scale_sum * per_gpu_rate
    return utilization * n_gpus * per_gpu_rate
