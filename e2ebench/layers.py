"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each boundary is a public function or method of a ``repro.*`` module.
Methods are wrapped on the named class and on every subclass that
overrides them (``CloverScheme.optimize``, each router's ``split``);
functions are wrapped at every module-level binding under ``repro``, so a
module that imported one by name (``repro.core.evaluator`` holds its own
``simulate_fifo``) records its calls too.
"""

from __future__ import annotations

import importlib
import math
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import Patcher, Span, SpanRecorder, self_times, subtree


def _des_requests(arrivals_s, *args, **kwargs) -> int:
    return len(arrivals_s)


def _batch_rows(mean_service_s, rates_per_s, *args, **kwargs) -> int:
    service = np.asarray(mean_service_s)
    return max(np.size(rates_per_s), service.shape[0] if service.ndim == 2 else 1)


@dataclass(frozen=True)
class Boundary:
    span: str
    module: str
    target: str  # "function" or "Class.method"
    count: Callable | None = None


#: The root of a traced run's span tree.
RUN_SPAN = "fleet.coordinator"

BOUNDARIES = (
    Boundary("scenarios.build", "repro.scenarios.scenario", "Scenario.build"),
    Boundary(RUN_SPAN, "repro.fleet.coordinator", "FleetCoordinator.run"),
    Boundary("fleet.regional.step", "repro.fleet.regional", "RegionalService.step"),
    Boundary(
        "fleet.regional.sla_safe_rates",
        "repro.fleet.regional",
        "RegionalService.sla_safe_rates",
    ),
    Boundary("fleet.routing.router", "repro.fleet.routing", "Router.split"),
    Boundary(
        "fleet.routing.router",
        "repro.fleet.routing",
        "Router.region_order",
    ),
    Boundary(
        "fleet.routing.router",
        "repro.fleet.routing",
        "Router.capacity_hint",
    ),
    Boundary(
        "fleet.routing.plan_origin_cells", "repro.fleet.routing", "plan_origin_cells"
    ),
    Boundary("fleet.capacity", "repro.fleet.capacity", "CapacityManager.settle"),
    Boundary(
        "fleet.capacity",
        "repro.fleet.capacity",
        "CapacityManager.begin_epoch",
    ),
    Boundary(
        "shifting.plan_epoch", "repro.shifting.scheduler", "TemporalScheduler.plan_epoch"
    ),
    Boundary("demand.rates", "repro.demand.diurnal", "DemandModel.rates"),
    Boundary("carbon.forecast", "repro.carbon.forecast", "PersistenceForecaster.predict"),
    Boundary(
        "carbon.forecast", "repro.carbon.forecast", "PersistenceForecaster.predict_many"
    ),
    Boundary("carbon.forecast", "repro.carbon.forecast", "DiurnalForecaster.predict"),
    Boundary(
        "carbon.forecast", "repro.carbon.forecast", "DiurnalForecaster.predict_many"
    ),
    Boundary(
        "carbon.monitor.observe", "repro.carbon.monitor", "CarbonIntensityMonitor.observe"
    ),
    Boundary("core.schemes.optimize", "repro.core.schemes", "Scheme.optimize"),
    Boundary(
        "core.evaluator.evaluate", "repro.core.evaluator", "ConfigEvaluator.evaluate"
    ),
    Boundary(
        "core.evaluator.evaluate_rates",
        "repro.core.evaluator",
        "ConfigEvaluator.evaluate_rates",
    ),
    Boundary(
        "core.evaluator.evaluate_batch",
        "repro.core.evaluator",
        "ConfigEvaluator.evaluate_batch",
    ),
    Boundary(
        "serving.analytic.estimate_fifo", "repro.serving.analytic", "estimate_fifo"
    ),
    Boundary(
        "serving.analytic.quantile_s", "repro.serving.analytic", "QueueEstimate.quantile_s"
    ),
    Boundary(
        "serving.analytic.estimate_fifo_batch",
        "repro.serving.analytic",
        "estimate_fifo_batch",
        count=_batch_rows,
    ),
    Boundary(
        "serving.analytic.batch_quantile_s",
        "repro.serving.analytic",
        "BatchQueueEstimate.quantile_s",
    ),
    Boundary(
        "serving.des.simulate_fifo",
        "repro.serving.des",
        "simulate_fifo",
        count=_des_requests,
    ),
)


def install(recorder: SpanRecorder) -> Patcher:
    """Wrap every boundary; the caller must call ``restore()`` on the result.

    Raises ``LookupError`` when a boundary no longer resolves or binds
    nowhere, so a renamed layer fails loudly instead of reading zero.
    """
    patcher = Patcher()
    try:
        for b in BOUNDARIES:
            module = importlib.import_module(b.module)

            def make(fn, b=b):
                return recorder.wrap(b.span, fn, count=b.count)

            if "." in b.target:
                cls_name, attr = b.target.split(".")
                patched = patcher.patch_method(getattr(module, cls_name), attr, make)
            else:
                patched = patcher.patch_function(
                    getattr(module, b.target), "repro", make
                )
            if not patched:
                raise LookupError(f"boundary {b.module}:{b.target} bound nowhere")
    except BaseException:
        patcher.restore()
        raise
    return patcher


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #

#: Every per-layer metric and its unit, in reporting order.  A metric
#: named ``<span>.calls`` or ``<span>.self_s`` is that span's call count
#: or summed self time within the run.
METRIC_UNITS = {
    "startup.import_s": "s",
    "startup.scipy_import_s": "s",
    "scenarios.build_s": "s",
    "fleet.coordinator.self_s": "s",
    "fleet.regional.step.calls": "count",
    "fleet.regional.step.self_s": "s",
    "fleet.regional.step.p50_ms": "ms",
    "fleet.regional.step.tail_ms": "ms",
    "fleet.regional.step.tail_pct": "%",
    "fleet.regional.sla_safe_rates.calls": "count",
    "fleet.regional.sla_safe_rates.self_s": "s",
    "fleet.routing.router.self_s": "s",
    "fleet.routing.plan_origin_cells.calls": "count",
    "fleet.routing.plan_origin_cells.self_s": "s",
    "fleet.capacity.self_s": "s",
    "shifting.plan_epoch.calls": "count",
    "shifting.plan_epoch.self_s": "s",
    "demand.rates.calls": "count",
    "demand.rates.self_s": "s",
    "carbon.forecast.calls": "count",
    "carbon.forecast.self_s": "s",
    "carbon.monitor.observe.calls": "count",
    "core.schemes.optimize.calls": "count",
    "core.schemes.optimize.self_s": "s",
    "core.schemes.evaluations": "count",
    "core.evaluator.evaluate.calls": "count",
    "core.evaluator.evaluate.self_s": "s",
    "core.evaluator.evaluate_rates.calls": "count",
    "core.evaluator.evaluate_rates.self_s": "s",
    "core.evaluator.evaluate_batch.calls": "count",
    "core.evaluator.opt_hit_ratio": "ratio",
    "core.evaluator.opt_lookups": "count",
    "core.evaluator.measure_hit_ratio": "ratio",
    "core.evaluator.measure_lookups": "count",
    "core.evaluator.batched_share": "ratio",
    "core.evaluator.opt_misses": "count",
    "serving.analytic.estimate_fifo.calls": "count",
    "serving.analytic.estimate_fifo.self_s": "s",
    "serving.analytic.quantile_s.calls": "count",
    "serving.analytic.quantile_s.self_s": "s",
    "serving.analytic.estimate_fifo_batch.calls": "count",
    "serving.analytic.estimate_fifo_batch.self_s": "s",
    "serving.analytic.estimate_fifo_batch.rows": "count",
    "serving.analytic.batch_quantile_s.calls": "count",
    "serving.analytic.batch_quantile_s.self_s": "s",
    "serving.des.simulate_fifo.calls": "count",
    "serving.des.simulate_fifo.self_s": "s",
    "serving.des.requests": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

#: Work counts summed from the spans' ``n``.
_WORK = {
    "serving.des.requests": "serving.des.simulate_fifo",
    "serving.analytic.estimate_fifo_batch.rows": "serving.analytic.estimate_fifo_batch",
}

#: Tail percentiles considered, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest ladder percentile with at least ``min_beyond`` samples above."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= min_beyond:
            return p
    return None


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0


def run_layers(spans: list[Span]) -> tuple[Span, dict[str, LayerStats]]:
    """The run's root span and per-span-name totals over its subtree.

    The self times of the subtree add up to the root's duration, so the
    totals account for all of the traced ``run_s``: the coordinator's own
    self time is the part no wrapped layer covers.
    """
    roots = [s for s in spans if s.name == RUN_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {RUN_SPAN} span, found {len(roots)}")
    run_spans = subtree(spans, roots[0].id)
    selfs = self_times(run_spans)
    stats: dict[str, LayerStats] = {}
    for s in run_spans:
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.self_s += selfs[s.id]
        st.work += s.n
    return roots[0], stats


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run from its spans."""
    root, stats = run_layers(spans)
    out: dict[str, float] = {
        "scenarios.build_s": sum(
            s.duration for s in spans if s.name == "scenarios.build"
        ),
        "trace.run_s": root.duration,
    }
    span_names = {b.span for b in BOUNDARIES}
    for metric in METRIC_UNITS:
        layer, _, kind = metric.rpartition(".")
        if layer in span_names and kind in ("calls", "self_s"):
            out[metric] = getattr(stats.get(layer, LayerStats()), kind)
    for metric, layer in _WORK.items():
        out[metric] = stats.get(layer, LayerStats()).work
    steps = [s.duration * 1e3 for s in spans if s.name == "fleet.regional.step"]
    pct = tail_percentile(len(steps))
    out["fleet.regional.step.p50_ms"] = statistics.median(steps)
    out["fleet.regional.step.tail_pct"] = pct
    out["fleet.regional.step.tail_ms"] = nearest_rank(steps, pct)
    return out


def counter_metrics(counters: dict[str, int]) -> dict[str, float]:
    """Evaluator and scheme metrics from the run's public ``RunResult``s."""
    opt = counters["opt_hits"] + counters["opt_misses"]
    measure = counters["measure_hits"] + counters["measure_misses"]
    misses = counters["opt_misses"]
    return {
        "core.schemes.evaluations": counters["evaluations"],
        "core.evaluator.opt_hit_ratio": counters["opt_hits"] / opt if opt else 0.0,
        "core.evaluator.opt_lookups": opt,
        "core.evaluator.measure_hit_ratio": (
            counters["measure_hits"] / measure if measure else 0.0
        ),
        "core.evaluator.measure_lookups": measure,
        "core.evaluator.batched_share": (
            counters["opt_batched"] / misses if misses else 0.0
        ),
        "core.evaluator.opt_misses": misses,
    }
