"""Closed-form steady-state estimator for the FIFO serving pipeline.

Clover's optimizer evaluates hundreds of candidate configurations per
48-hour run; simulating each one would dominate the runtime, so the search
uses this analytical estimator and the runner validates/reports with the
discrete-event simulator (:mod:`repro.serving.des`).

The model is an M/G/c approximation of the heterogeneous FIFO service:

* utilization ``rho = lambda / sum_j mu_j``; ``rho >= 1`` is overload
  (the queue grows without bound — the paper's "consumer cannot keep up
  with the producer" failure, an automatic SLA violation),
* the probability of queueing comes from the Erlang-C formula with ``c``
  homogenized servers, corrected for general service times with the
  Allen–Cunneen factor ``(ca^2 + cs^2) / 2``,
* conditional on queueing, the wait is approximated as exponential,
* the response-time CDF is the convolution of that wait with the discrete
  mixture of per-instance service times.  Between two consecutive service
  times it has the form ``A - C e^{-beta t}``, so its quantiles are
  inverted in closed form by one 1-D row solver: the scalar estimate
  calls it directly and the batched estimate once per row.

Accuracy against the DES is pinned by tests (see
``tests/serving/test_analytic.py``): a few percent on utilization and
request shares, ~10% on p95 in the load regimes the optimizer visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.serving.instance import DEFAULT_JITTER_CV

__all__ = [
    "QueueEstimate",
    "BatchQueueEstimate",
    "estimate_fifo",
    "estimate_fifo_batch",
    "erlang_c",
    "erlang_c_batch",
]

#: Utilization above which the estimator declares overload: queue estimates
#: explode as rho -> 1 and the DES cannot reach steady state either.
OVERLOAD_RHO = 0.98


@lru_cache(maxsize=65536)
def _erlang_c_cached(c: int, offered_load: float) -> float:
    """The O(c) Erlang-B recursion, memoized on exact ``(c, load)`` keys.

    SLA bisections probe the same deployed configuration at the same
    bracket rates epoch after epoch; the memo turns those repeats into
    dictionary lookups without touching the recursion's arithmetic, so
    cached and fresh answers are bit-for-bit identical.
    """
    rho = offered_load / c
    # Erlang-B via the stable recursion B_k = a B_{k-1} / (k + a B_{k-1}).
    b = 1.0
    for k in range(1, c + 1):
        b = offered_load * b / (k + offered_load * b)
    return b / (1.0 - rho * (1.0 - b))


def erlang_c(c: int, offered_load: float) -> float:
    """Erlang-C probability that an arriving request must queue.

    ``offered_load`` is in erlangs (``lambda / mu_per_server``).  Uses the
    numerically stable Erlang-B recursion; exact for M/M/c.
    """
    if c <= 0:
        raise ValueError(f"server count must be positive, got {c}")
    if offered_load < 0:
        raise ValueError(f"offered load must be non-negative, got {offered_load}")
    if offered_load == 0:
        return 0.0
    if offered_load / c >= 1.0:
        return 1.0
    return _erlang_c_cached(int(c), float(offered_load))


def erlang_c_batch(c: int, offered_load) -> np.ndarray:
    """Vectorized :func:`erlang_c` over an array of offered loads.

    Runs the Erlang-B recursion for ``c`` servers on every load at once;
    the per-element arithmetic is exactly the scalar recursion's, so
    results are bit-for-bit identical to :func:`erlang_c`.
    """
    if c <= 0:
        raise ValueError(f"server count must be positive, got {c}")
    a = np.asarray(offered_load, dtype=np.float64)
    if np.any(a < 0):
        raise ValueError("offered loads must be non-negative")
    rho = a / c
    b = np.ones_like(a)
    for k in range(1, int(c) + 1):
        b = a * b / (k + a * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = b / (1.0 - rho * (1.0 - b))
    out = np.where(rho >= 1.0, 1.0, out)
    return np.where(a == 0.0, 0.0, out)


def _mixture_quantile_s(q, shares, service_s, p_wait, mean_wait_s, overloaded):
    """``q``-quantile of one row's wait + service mixture, in closed form.

    ``shares`` and ``service_s`` are the row's ``(m,)`` arrays; the other
    parameters are its scalars.  The latency CDF is ``F(t) = sum_j w_j
    [t >= s_j] (1 - p e^{-beta (t - s_j)})`` with ``beta = p / mean_wait``.
    With the service times sorted, ``F(s_k) = A_k - p D_k`` at breakpoint
    ``k`` (``A_k = sum_{j<=k} w_j``, ``D_k = sum_{j<=k} w_j e^{-beta (s_k -
    s_j)}``) and ``F(t) = A_k - p D_k e^{-beta (t - s_k)}`` until the next
    one, which reaches ``q`` at ``t_k = s_k + ln(p D_k / (A_k - q)) / beta``.
    Every breakpoint with ``F(s_k) >= q`` and every ``t_k`` bounds the
    quantile from above (``F`` only grows past a breakpoint), and the first
    breakpoint reaching ``q`` or the crossing on the segment before it *is*
    the quantile, so the answer is the smallest candidate.  ``D_k`` comes
    from a running ``logaddexp`` so ``e^{beta s}`` never overflows.  A row
    without queueing reduces to the atoms and an overloaded row is ``inf``.
    The scalar estimate calls this directly and the batch calls it once
    per row, so both share every floating-point operation.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if overloaded:
        return float("inf")
    if p_wait > 0 and mean_wait_s > 0:
        p, beta = p_wait, p_wait / mean_wait_s
    else:
        p, beta = 0.0, 1.0
    order = service_s.argsort()
    s = service_s[order]
    w = shares[order]
    a = w.cumsum()
    with np.errstate(divide="ignore", invalid="ignore"):
        bs = beta * s
        pd = p * np.exp(np.logaddexp.accumulate(np.log(w) + bs) - bs)
        rise = np.maximum(np.log(pd / (a - q)), 0.0) / beta
    # An atom where F(s_k) already reaches q, else segment k's crossing
    # (none when the segment tops out at A_k <= q).
    candidates = np.where(a - pd >= q, s, np.where(a > q, s + rise, np.inf))
    return float(np.minimum.reduce(candidates))


@dataclass(frozen=True)
class QueueEstimate:
    """Steady-state estimate of the serving pipeline for one configuration."""

    rate_per_s: float
    utilization: float
    overloaded: bool
    p_wait: float
    mean_wait_s: float
    mean_service_s: float
    shares: np.ndarray
    service_s: np.ndarray

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency (wait + service)."""
        if self.overloaded:
            return float("inf")
        return self.mean_wait_s + self.mean_service_s

    def latency_cdf(self, t_s: float) -> float:
        """P(end-to-end latency <= t_s) under the mixture model."""
        if self.overloaded:
            return 0.0
        if self.p_wait <= 0 or self.mean_wait_s <= 0:
            return float(np.dot(self.shares, (self.service_s <= t_s)))
        beta = self.p_wait / self.mean_wait_s  # conditional wait rate
        x = t_s - self.service_s
        mask = x >= 0
        cdf_terms = np.where(mask, 1.0 - self.p_wait * np.exp(-beta * np.maximum(x, 0.0)), 0.0)
        return float(np.dot(self.shares, cdf_terms))

    def quantile_s(self, q: float) -> float:
        """The ``q``-quantile (q in (0, 1)) of end-to-end latency, seconds.

        At light load the p95 can sit exactly on a service-time atom — here
        the slowest instance's 50 ms:

        >>> import numpy as np
        >>> estimate_fifo(np.array([0.01, 0.02, 0.05]), 50.0).p95_ms() == 50.0
        True
        """
        return _mixture_quantile_s(
            q,
            self.shares,
            self.service_s,
            self.p_wait,
            self.mean_wait_s,
            self.overloaded,
        )

    def p95_ms(self) -> float:
        """p95 end-to-end latency in milliseconds (the paper's SLA metric)."""
        return self.quantile_s(0.95) * 1e3


def estimate_fifo(
    mean_service_s: np.ndarray,
    rate_per_s: float,
    jitter_cv: float = DEFAULT_JITTER_CV,
) -> QueueEstimate:
    """Estimate the steady state of a heterogeneous FIFO service.

    Parameters
    ----------
    mean_service_s:
        Mean service time of each instance.
    rate_per_s:
        Poisson arrival rate.
    jitter_cv:
        Service-time jitter, folded into the squared coefficient of
        variation used by the Allen–Cunneen wait correction.
    """
    service = np.asarray(mean_service_s, dtype=np.float64)
    if service.ndim != 1 or service.size == 0:
        raise ValueError("mean_service_s must be a non-empty 1-D array")
    if np.any(service <= 0):
        raise ValueError("all mean service times must be positive")
    if rate_per_s <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate_per_s}")

    m = service.size
    mu = 1.0 / service
    mu_total = float(mu.sum())
    rho = rate_per_s / mu_total

    if rho >= OVERLOAD_RHO:
        return QueueEstimate(
            rate_per_s=rate_per_s,
            utilization=rho,
            overloaded=True,
            p_wait=1.0,
            mean_wait_s=float("inf"),
            mean_service_s=float(service.mean()),
            shares=np.full(m, 1.0 / m),
            service_s=service,
        )

    # Request shares: earliest-free dispatch behaves like round-robin when
    # the system is mostly idle (equal shares) and like rate-proportional
    # work stealing when the queue is never empty; blend by utilization.
    shares = (1.0 - rho) / m + rho * (mu / mu_total)
    shares = shares / shares.sum()

    mean_service = float(np.dot(shares, service))
    second_moment = float(np.dot(shares, service**2)) * (1.0 + jitter_cv**2)
    cs2 = max(second_moment / mean_service**2 - 1.0, 0.0)

    # Homogenized Erlang-C with the Allen-Cunneen general-service correction
    # (ca^2 = 1 for Poisson arrivals).
    mu_bar = mu_total / m
    offered = rate_per_s / mu_bar
    p_wait = erlang_c(m, offered)
    mean_wait = p_wait / (mu_total - rate_per_s) * (1.0 + cs2) / 2.0

    return QueueEstimate(
        rate_per_s=rate_per_s,
        utilization=rho,
        overloaded=False,
        p_wait=p_wait,
        mean_wait_s=mean_wait,
        mean_service_s=mean_service,
        shares=shares,
        service_s=service,
    )


@dataclass(frozen=True)
class BatchQueueEstimate:
    """Row-wise steady-state estimates over a rate grid.

    Row ``i`` is exactly what ``estimate_fifo(service_s[i], rates_per_s[i])``
    would produce (the same formulas evaluated elementwise; agreement is
    within ~1e-12 relative, bounded only by summation-order rounding), but
    all rows share one pass through the Erlang recursion, and each row's
    quantile comes from the scalar estimate's closed-form solver.  This is
    the path :meth:`~repro.core.evaluator.ConfigEvaluator.evaluate_rates`
    takes when the fleet router probes one deployed configuration at many
    rates.
    """

    rates_per_s: np.ndarray
    utilization: np.ndarray
    overloaded: np.ndarray
    p_wait: np.ndarray
    mean_wait_s: np.ndarray
    mean_service_s: np.ndarray
    shares: np.ndarray
    service_s: np.ndarray

    def __len__(self) -> int:
        return int(self.rates_per_s.size)

    def quantile_s(self, q: float) -> np.ndarray:
        """Row-wise ``q``-quantile of end-to-end latency, seconds.

        Each row goes through the scalar estimate's solver, so row ``i``
        is bit for bit what the row's :class:`QueueEstimate` would return.
        """
        return np.array(
            [
                _mixture_quantile_s(q, w, s, p, mw, over)
                for w, s, p, mw, over in zip(
                    self.shares,
                    self.service_s,
                    self.p_wait.tolist(),
                    self.mean_wait_s.tolist(),
                    self.overloaded.tolist(),
                )
            ],
            dtype=np.float64,
        )

    def p95_ms(self) -> np.ndarray:
        """Row-wise p95 end-to-end latency in milliseconds."""
        return self.quantile_s(0.95) * 1e3


def estimate_fifo_batch(
    mean_service_s: np.ndarray,
    rates_per_s,
    jitter_cv: float = DEFAULT_JITTER_CV,
) -> BatchQueueEstimate:
    """Vectorized :func:`estimate_fifo` over equal-width rows.

    Parameters
    ----------
    mean_service_s:
        ``(m,)`` — one instance set shared by every row (a rate grid over
        one configuration) — or ``(n, m)`` — one row per configuration,
        each with ``m`` instances.
    rates_per_s:
        Scalar or ``(n,)`` Poisson arrival rates, one per row.
    jitter_cv:
        As in :func:`estimate_fifo`.

    Every row reproduces the scalar estimator's formulas and goes through
    the same closed-form quantile solver; the only divergence is float
    summation order (``np.dot`` vs row-wise sums), which stays below
    ~1e-12 relative on p95.
    """
    service = np.asarray(mean_service_s, dtype=np.float64)
    if service.ndim == 1:
        service = service[None, :]
    if service.ndim != 2 or service.shape[1] == 0:
        raise ValueError("mean_service_s must be (m,) or (n, m), m >= 1")
    rates = np.asarray(rates_per_s, dtype=np.float64)
    if rates.ndim == 0:
        rates = np.full(service.shape[0], float(rates))
    if service.shape[0] == 1 and rates.size > 1:
        service = np.broadcast_to(service, (rates.size, service.shape[1]))
    if rates.shape != (service.shape[0],):
        raise ValueError(
            f"{rates.size} rates for {service.shape[0]} service rows"
        )
    if np.any(service <= 0):
        raise ValueError("all mean service times must be positive")
    if np.any(rates <= 0):
        raise ValueError("all arrival rates must be positive")

    m = service.shape[1]
    mu = 1.0 / service
    mu_total = mu.sum(axis=1)
    rho = rates / mu_total
    overloaded = rho >= OVERLOAD_RHO

    shares = (1.0 - rho)[:, None] / m + rho[:, None] * (mu / mu_total[:, None])
    shares = shares / shares.sum(axis=1, keepdims=True)
    shares = np.where(overloaded[:, None], 1.0 / m, shares)

    mean_service = np.where(
        overloaded,
        service.sum(axis=1) / m,
        np.sum(shares * service, axis=1),
    )
    second_moment = np.sum(shares * service**2, axis=1) * (1.0 + jitter_cv**2)
    cs2 = np.maximum(second_moment / mean_service**2 - 1.0, 0.0)

    mu_bar = mu_total / m
    offered = rates / mu_bar
    with np.errstate(divide="ignore", invalid="ignore"):
        p_wait = erlang_c_batch(m, offered)
        mean_wait = p_wait / (mu_total - rates) * (1.0 + cs2) / 2.0
    p_wait = np.where(overloaded, 1.0, p_wait)
    mean_wait = np.where(overloaded, np.inf, mean_wait)

    return BatchQueueEstimate(
        rates_per_s=rates,
        utilization=rho,
        overloaded=overloaded,
        p_wait=p_wait,
        mean_wait_s=mean_wait,
        mean_service_s=mean_service,
        shares=shares,
        service_s=np.ascontiguousarray(service),
    )
