"""Request records of the inference-serving simulator.

The discrete-event simulator works on NumPy arrays (one entry per
request) rather than Python objects; :class:`RequestBatch` is the
structure-of-arrays container for those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RequestBatch"]


@dataclass(frozen=True)
class RequestBatch:
    """Structure-of-arrays record of a simulated batch of requests."""

    arrival_s: np.ndarray
    start_s: np.ndarray
    finish_s: np.ndarray
    instance_index: np.ndarray

    def __post_init__(self) -> None:
        n = self.arrival_s.shape[0]
        for name in ("start_s", "finish_s", "instance_index"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if n and not (
            np.all(self.arrival_s <= self.start_s)
            and np.all(self.start_s <= self.finish_s)
        ):
            raise ValueError("request times must satisfy arrival <= start <= finish")

    def __len__(self) -> int:
        return int(self.arrival_s.shape[0])

    @property
    def service_s(self) -> np.ndarray:
        return self.finish_s - self.start_s

    @property
    def latency_s(self) -> np.ndarray:
        return self.finish_s - self.arrival_s

    @property
    def latency_ms(self) -> np.ndarray:
        return self.latency_s * 1e3

    def tail(self, skip_fraction: float) -> "RequestBatch":
        """Drop the first ``skip_fraction`` of requests (warm-up trimming)."""
        if not 0.0 <= skip_fraction < 1.0:
            raise ValueError(f"skip_fraction must be in [0, 1), got {skip_fraction}")
        k = int(len(self) * skip_fraction)
        return RequestBatch(
            arrival_s=self.arrival_s[k:],
            start_s=self.start_s[k:],
            finish_s=self.finish_s[k:],
            instance_index=self.instance_index[k:],
        )
