"""Inference-serving substrate: workload, simulation, estimates, metrics.

Replaces the paper's Flask + FIFO producer/consumer serving stack with a
discrete-event simulation of the same pipeline, plus a fast analytical
estimator the optimizer uses in its inner loop:

* :mod:`repro.serving.workload` — Poisson query arrivals and paper-style sizing,
* :mod:`repro.serving.requests` — the simulated requests as arrays,
* :mod:`repro.serving.instance` — per-request service-time jitter,
* :mod:`repro.serving.des` — exact discrete-event simulation,
* :mod:`repro.serving.analytic` — M/G/c-style closed-form estimates,
* :mod:`repro.serving.metrics` — tail latency, shares, utilization,
* :mod:`repro.serving.sla` — the p95 SLA policy (Eq. 5).
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "requests": ("RequestBatch",),
    "workload": ("PoissonWorkload", "default_rate", "DEFAULT_BASE_UTILIZATION"),
    "instance": ("sample_jitter", "DEFAULT_JITTER_CV"),
    "des": ("simulate_fifo",),
    "analytic": ("QueueEstimate", "estimate_fifo", "erlang_c"),
    "metrics": (
        "LatencySummary", "ServingMetrics", "summarize",
        "DEFAULT_WARMUP_FRACTION",
    ),
    "sla": ("SlaPolicy",),
})
