"""Per-request service-time jitter of a service instance.

A service instance is one model copy hosted on one MIG slice — "every
partition hosts one model copy".  Its mean service time comes from the
analytical performance model; :func:`sample_jitter` draws the
multiplicative spread around that mean that the discrete-event simulator
applies to each request.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["sample_jitter", "DEFAULT_JITTER_CV"]

#: Coefficient of variation of per-request service time.  GPU inference is
#: close to deterministic (same kernels every request); the residual spread
#: models input-size variation and host-side noise.
DEFAULT_JITTER_CV = 0.08


def sample_jitter(
    n: int,
    cv: float = DEFAULT_JITTER_CV,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Multiplicative service-time jitter with mean exactly 1.

    Lognormal with the requested coefficient of variation; ``cv = 0`` returns
    ones (fully deterministic service).
    """
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    if cv < 0:
        raise ValueError(f"jitter cv must be non-negative, got {cv}")
    if cv == 0.0:
        return np.ones(n)
    gen = as_generator(rng)
    sigma2 = np.log1p(cv * cv)
    mu = -0.5 * sigma2
    return gen.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=n)
