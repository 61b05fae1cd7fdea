"""Shared fixtures for the paper-reproduction benchmarks.

Each ``bench_figXX`` module regenerates one table/figure of the paper at
``default`` fidelity, prints the measured rows and asserts the paper's
qualitative shape.  One :class:`ExperimentRunner`, shared by every module,
memoizes every run by its scenario spec, so figures that read the same N=1
CISO-March runs (Figs. 9-14, 16 and the savings estimate) pay for each
once.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.runner import ExperimentRunner

#: Fidelity for all trace-driven benchmarks.  ``CLOVER_BENCH_FIDELITY=smoke``
#: drops to CI-speed fidelity — the shape assertions are tuned for
#: ``default``, so smoke runs are entry-point rot checks, not measurements
#: (see :func:`strict`).
FIDELITY = os.environ.get("CLOVER_BENCH_FIDELITY", "default")
SEED = 0


def strict() -> bool:
    """Whether quantitative shape assertions should be enforced.

    The paper-shape assertions (save percentages, orderings) are
    calibrated at ``default`` fidelity; at smoke fidelity the benchmarks
    still run end to end — catching import rot, API drift and crashes —
    but a coarse-grid measurement is not held to the calibrated bands.
    """
    return FIDELITY != "smoke"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner()


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    Experiment harness runs are deterministic and seconds-long; repeating
    them would only re-measure the memo cache.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
