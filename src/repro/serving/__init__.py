"""Inference-serving substrate: workload, queueing, simulation, metrics.

Replaces the paper's Flask + FIFO producer/consumer serving stack with a
discrete-event simulation of the same pipeline, plus a fast analytical
estimator the optimizer uses in its inner loop:

* :mod:`repro.serving.workload` — Poisson query arrivals and paper-style sizing,
* :mod:`repro.serving.instance` — one model copy on one MIG slice,
* :mod:`repro.serving.queueing` — the producer/consumer FIFO queue,
* :mod:`repro.serving.des` — exact discrete-event simulation,
* :mod:`repro.serving.analytic` — M/G/c-style closed-form estimates,
* :mod:`repro.serving.metrics` — tail latency, shares, utilization,
* :mod:`repro.serving.sla` — the p95 SLA policy (Eq. 5).
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "requests": ("Request", "RequestBatch"),
    "workload": ("PoissonWorkload", "default_rate", "DEFAULT_BASE_UTILIZATION"),
    "instance": ("ServiceInstance", "sample_jitter", "DEFAULT_JITTER_CV"),
    "queueing": ("FifoQueue", "QueueStats"),
    "des": ("simulate_fifo",),
    "analytic": ("QueueEstimate", "estimate_fifo", "erlang_c"),
    "metrics": (
        "LatencySummary", "ServingMetrics", "summarize",
        "DEFAULT_WARMUP_FRACTION",
    ),
    "sla": ("SlaPolicy",),
})
