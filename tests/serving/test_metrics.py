"""Serving metrics: summaries of simulated batches."""

import numpy as np
import pytest

from repro.serving.des import simulate_fifo
from repro.serving.metrics import LatencySummary, summarize
from repro.serving.requests import RequestBatch
from repro.serving.workload import PoissonWorkload


def run_batch(rate=100.0, service=(0.01, 0.02), n=5000, seed=0):
    arr = PoissonWorkload(rate).arrivals_fixed_count(n, seed)
    return simulate_fifo(arr, np.asarray(service), rng=seed + 1)


class TestLatencySummary:
    def test_percentile_ordering(self):
        b = run_batch()
        s = LatencySummary.from_batch(b)
        assert s.p50_ms <= s.p95_ms <= s.p99_ms <= s.max_ms
        assert s.count == len(b)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 5000])
    def test_one_partition_equals_separate_passes(self, n):
        """p50/p95/p99/max come from one partition; each must equal the
        separate ``np.percentile`` passes and ``max`` bit for bit."""
        b = run_batch(n=n, seed=n)
        lat = b.latency_ms
        s = LatencySummary.from_batch(b)
        assert s.count == lat.size
        assert s.mean_ms == float(lat.mean())
        for got, q in ((s.p50_ms, 50.0), (s.p95_ms, 95.0), (s.p99_ms, 99.0)):
            assert got == float(np.percentile(lat, q, method="inverted_cdf"))
        assert s.max_ms == float(lat.max())

    def test_empty_batch_raises(self):
        empty = RequestBatch(
            arrival_s=np.zeros(0), start_s=np.zeros(0),
            finish_s=np.zeros(0), instance_index=np.zeros(0, dtype=int),
        )
        with pytest.raises(ValueError):
            LatencySummary.from_batch(empty)


class TestSummarize:
    def test_shares_sum_to_one(self):
        m = summarize(run_batch(), n_instances=2)
        assert m.shares.sum() == pytest.approx(1.0)

    def test_idle_instance_gets_zero_share(self):
        # Third instance so slow it may serve almost nothing at light load.
        b = run_batch(rate=5.0, service=(0.001, 0.001, 10.0), n=300)
        m = summarize(b, n_instances=3)
        assert m.shares.size == 3

    def test_utilization_in_unit_interval(self):
        m = summarize(run_batch(), n_instances=2)
        assert np.all(m.utilization >= 0) and np.all(m.utilization <= 1)

    def test_throughput_near_rate_when_stable(self):
        m = summarize(run_batch(rate=100.0, n=20_000), n_instances=2)
        assert m.throughput_rps == pytest.approx(100.0, rel=0.05)

    def test_warmup_trimming(self):
        b = run_batch(n=1000)
        full = summarize(b, n_instances=2, warmup_fraction=0.0)
        trimmed = summarize(b, n_instances=2, warmup_fraction=0.5)
        assert trimmed.latency.count == 500
        assert full.latency.count == 1000

    def test_invalid_inputs(self):
        b = run_batch(n=100)
        with pytest.raises(ValueError):
            summarize(b, n_instances=0)
