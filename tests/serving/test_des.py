"""Discrete-event simulator: correctness against a reference implementation
and queueing-theory sanity properties."""

import heapq
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.des import simulate_fifo
from repro.serving.instance import sample_jitter
from repro.serving.workload import PoissonWorkload
from repro.utils.rng import as_generator


def window_arrivals(rate_per_s, duration_s, rng):
    """Poisson arrivals in ``[0, duration_s)``, sorted: the window's
    Poisson count, then that many uniform times."""
    gen = as_generator(rng)
    n = int(gen.poisson(rate_per_s * duration_s))
    times = gen.uniform(0.0, duration_s, size=n)
    times.sort()
    return times


def reference_simulation(arrivals, service_means):
    """Readable event-driven specification of the serving pipeline.

    Explicit event calendar + a FIFO queue, dispatching the queue head to
    whichever instance frees first (idle instances ranked by how long they
    have been free).  Deterministic service times.
    """
    m = len(service_means)
    free_time = [0.0] * m
    busy = [False] * m
    queue = deque()
    start = np.zeros(len(arrivals))
    finish = np.zeros(len(arrivals))
    assigned = np.zeros(len(arrivals), dtype=int)

    def idle_candidates(now):
        return [i for i in range(m) if not busy[i] and free_time[i] <= now]

    events = [(t, "arrival", k) for k, t in enumerate(arrivals)]
    completions = []  # (time, instance, request)
    k_done = 0
    while events or completions:
        # Next event: earliest completion or arrival (completions first on tie
        # so a freed instance can grab a simultaneous arrival).
        next_arr = events[0] if events else (np.inf, "", -1)
        next_comp = min(completions) if completions else (np.inf, -1, -1)
        if next_comp[0] <= next_arr[0]:
            t, i, req = next_comp
            completions.remove(next_comp)
            busy[i] = False
            free_time[i] = t
            if queue:
                nxt = queue.popleft()
                start[nxt] = t
                finish[nxt] = t + service_means[i]
                assigned[nxt] = i
                busy[i] = True
                completions.append((finish[nxt], i, nxt))
        else:
            t, _, k = next_arr
            events.pop(0)
            cands = idle_candidates(t)
            if cands:
                i = min(cands, key=lambda j: (free_time[j], j))
                start[k] = t
                finish[k] = t + service_means[i]
                assigned[k] = i
                busy[i] = True
                completions.append((finish[k], i, k))
            else:
                queue.append(k)
            k_done += 1
    return start, finish, assigned


def pop_push_simulation(arrivals, service_means):
    """The simulator's heap loop written as a pop followed by a push.

    Deterministic service times, so each finish is ``start + service``
    exactly as the simulator computes it with unit jitter.
    """
    n = len(arrivals)
    start = np.empty(n)
    finish = np.empty(n)
    assigned = np.empty(n, dtype=np.int64)
    free_heap = [(0.0, i) for i in range(len(service_means))]
    heapq.heapify(free_heap)
    for k, t in enumerate(arrivals.tolist()):
        free_t, i = heapq.heappop(free_heap)
        s = t if t > free_t else free_t
        f = s + float(service_means[i]) * 1.0
        start[k], finish[k], assigned[k] = s, f, i
        heapq.heappush(free_heap, (f, i))
    return start, finish, assigned


def item_write_simulation(arrivals, service_means, jitter_cv, seed):
    """The simulator's earlier heap loop, kept as a bit-for-bit oracle.

    It copies the arrivals, the jitter and the instance means into Python
    lists and writes every start, finish and instance as a numpy item.
    The jitter is drawn exactly as the simulator draws it.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    service = np.asarray(service_means, dtype=np.float64)
    n = arrivals.size
    jitter = sample_jitter(n, jitter_cv, np.random.default_rng(seed))
    start = np.empty(n, dtype=np.float64)
    finish = np.empty(n, dtype=np.float64)
    assigned = np.empty(n, dtype=np.int64)
    free_heap = [(0.0, i) for i in range(service.size)]
    heapq.heapify(free_heap)
    svc_means = service.tolist()
    arr_list = arrivals.tolist()
    jit_list = jitter.tolist()
    for k in range(n):
        free_t, i = free_heap[0]
        t = arr_list[k]
        s = t if t > free_t else free_t
        f = s + svc_means[i] * jit_list[k]
        start[k] = s
        finish[k] = f
        assigned[k] = i
        heapq.heapreplace(free_heap, (f, i))
    return start, finish, assigned


def assert_matches_item_writes(arrivals, service, jitter_cv, seed):
    batch = simulate_fifo(arrivals, service, jitter_cv, rng=seed)
    start, finish, assigned = item_write_simulation(
        arrivals, service, jitter_cv, seed
    )
    for got, want in (
        (batch.start_s, start),
        (batch.finish_s, finish),
        (batch.instance_index, assigned),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestAgainstItemWriteLoop:
    @given(
        m=st.integers(1, 16),
        n=st.integers(0, 3_000),
        load=st.floats(0.2, 1.5),
        jitter_cv=st.sampled_from((0.0, 0.08)),
        seed=st.integers(0, 2**32 - 1),
        strided=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_bit_for_bit(self, m, n, load, jitter_cv, seed, strided):
        rng = np.random.default_rng(seed)
        service = rng.uniform(0.005, 0.2, m)
        horizon = n / (load * float((1.0 / service).sum()))
        arrivals = np.sort(rng.uniform(0.0, horizon, 2 * n if strided else n))
        if strided:
            arrivals = arrivals[::2]
            assert n <= 1 or not arrivals.flags.c_contiguous
        assert_matches_item_writes(arrivals, service, jitter_cv, seed)

    @given(
        m=st.integers(1, 6),
        bursts=st.lists(st.integers(1, 12), min_size=1, max_size=20),
        gap_steps=st.integers(0, 4),
        jitter_cv=st.sampled_from((0.0, 0.08)),
        seed=st.integers(0, 1_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_tie_bursts_match_bit_for_bit(
        self, m, bursts, gap_steps, jitter_cv, seed
    ):
        service = np.full(m, 0.25)
        arrivals = np.repeat(
            np.arange(len(bursts)) * 0.125 * gap_steps, bursts
        )
        assert_matches_item_writes(arrivals, service, jitter_cv, seed)


class TestMemory:
    def test_peak_stays_near_the_output_arrays(self):
        """One 50k-request call holds the jitter and the three outputs
        (4 x 8n bytes), not boxed per-request copies of its buffers."""
        n = 50_000
        arrivals = PoissonWorkload(90.0).arrivals_fixed_count(n, 21)
        service = np.array([0.015, 0.02])
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            batch = simulate_fifo(arrivals, service, rng=22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(batch) == n
        assert peak - before < 6 * 8 * n


class TestAgainstReference:
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 5),
        n=st.integers(1, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_event_driven_reference(self, seed, m, n):
        rng = np.random.default_rng(seed)
        arrivals = np.sort(rng.uniform(0, 5.0, n))
        service = rng.uniform(0.05, 0.5, m)
        batch = simulate_fifo(arrivals, service, jitter_cv=0.0, rng=0)
        ref_start, ref_finish, _ = reference_simulation(arrivals, service)
        # Start/finish times must agree exactly (assignment may differ only
        # between instances with identical free times).
        np.testing.assert_allclose(np.sort(batch.start_s), np.sort(ref_start))
        np.testing.assert_allclose(np.sort(batch.finish_s), np.sort(ref_finish))

    @given(
        m=st.integers(1, 6),
        bursts=st.lists(st.integers(1, 12), min_size=1, max_size=20),
        gap_steps=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_ties_match_pop_push_bit_for_bit(self, m, bursts, gap_steps):
        """Identical instances and bursts of simultaneous arrivals make
        free-time ties everywhere; dispatch, start and finish must equal
        the pop+push loop exactly."""
        service = np.full(m, 0.25)  # dyadic: sums stay exact, ties stay ties
        arrivals = np.repeat(
            np.arange(len(bursts)) * 0.125 * gap_steps, bursts
        )
        batch = simulate_fifo(arrivals, service, jitter_cv=0.0, rng=0)
        start, finish, assigned = pop_push_simulation(arrivals, service)
        assert np.array_equal(batch.start_s, start)
        assert np.array_equal(batch.finish_s, finish)
        assert np.array_equal(batch.instance_index, assigned)


class TestInvariants:
    def test_all_requests_served(self):
        arr = window_arrivals(50.0, 20.0, rng=1)
        batch = simulate_fifo(arr, np.array([0.01, 0.02]), rng=2)
        assert len(batch) == arr.size

    def test_times_ordered(self):
        arr = window_arrivals(100.0, 5.0, rng=3)
        batch = simulate_fifo(arr, np.full(4, 0.03), rng=4)
        assert np.all(batch.start_s >= batch.arrival_s)
        assert np.all(batch.finish_s > batch.start_s)

    def test_instance_never_overlaps(self):
        """Work conservation: one instance processes one request at a time."""
        arr = window_arrivals(200.0, 3.0, rng=5)
        batch = simulate_fifo(arr, np.array([0.01, 0.05, 0.1]), rng=6)
        for i in range(3):
            mask = batch.instance_index == i
            starts = batch.start_s[mask]
            finishes = batch.finish_s[mask]
            order = np.argsort(starts)
            assert np.all(starts[order][1:] >= finishes[order][:-1] - 1e-12)

    def test_fifo_start_order(self):
        """Requests begin service in arrival order (the FIFO discipline)."""
        arr = window_arrivals(300.0, 2.0, rng=7)
        batch = simulate_fifo(arr, np.array([0.02, 0.02]), rng=8)
        assert np.all(np.diff(batch.start_s) >= -1e-12)

    def test_no_artificial_idling(self):
        """An instance must not sit idle while the queue is non-empty: each
        request starts at its arrival or at some instance's previous finish."""
        arr = window_arrivals(150.0, 3.0, rng=11)
        batch = simulate_fifo(arr, np.array([0.05, 0.09]), jitter_cv=0.0, rng=0)
        finish_set = set(np.round(batch.finish_s, 12))
        for k in range(len(batch)):
            s = batch.start_s[k]
            assert (
                abs(s - batch.arrival_s[k]) < 1e-12
                or np.round(s, 12) in finish_set
            )

    def test_deterministic_with_seed(self):
        arr = window_arrivals(100.0, 3.0, rng=9)
        b1 = simulate_fifo(arr, np.array([0.01, 0.02]), rng=42)
        b2 = simulate_fifo(arr, np.array([0.01, 0.02]), rng=42)
        assert np.array_equal(b1.finish_s, b2.finish_s)

    def test_empty_arrivals(self):
        batch = simulate_fifo(np.array([]), np.array([0.01]), rng=0)
        assert len(batch) == 0


class TestQueueingBehaviour:
    def test_single_slow_server_builds_queue(self):
        # Deterministic arrivals faster than service: waits must grow.
        arr = np.arange(0.0, 1.0, 0.01)  # 100 req/s
        batch = simulate_fifo(arr, np.array([0.02]), jitter_cv=0.0, rng=0)  # 50/s
        waits = batch.start_s - batch.arrival_s
        assert waits[-1] > waits[10] > 0

    def test_underloaded_has_no_wait(self):
        arr = np.arange(0.0, 10.0, 0.1)  # 10 req/s
        batch = simulate_fifo(arr, np.array([0.01]), jitter_cv=0.0, rng=0)
        assert np.allclose(batch.start_s - batch.arrival_s, 0.0)

    def test_littles_law(self):
        """L = lambda * W within sampling tolerance at moderate load."""
        rate, tau, m = 120.0, 0.04, 8
        arr = PoissonWorkload(rate).arrivals_fixed_count(40_000, 13)
        batch = simulate_fifo(arr, np.full(m, tau), rng=14)
        w = batch.latency_s.mean()
        makespan = batch.finish_s.max() - batch.arrival_s.min()
        # Mean number in system via area under the occupancy curve.
        area = batch.latency_s.sum()
        l_measured = area / makespan
        assert l_measured == pytest.approx(rate * w, rel=0.05)

    def test_faster_instances_serve_more(self):
        """Under saturation, request shares become throughput-proportional."""
        arr = PoissonWorkload(500.0).arrivals_fixed_count(20_000, 15)
        service = np.array([0.01, 0.04])  # 4x speed difference
        batch = simulate_fifo(arr, service, jitter_cv=0.0, rng=0)
        counts = np.bincount(batch.instance_index, minlength=2)
        assert counts[0] / counts[1] == pytest.approx(4.0, rel=0.1)


class TestValidation:
    def test_unsorted_arrivals_raise(self):
        with pytest.raises(ValueError, match="sorted"):
            simulate_fifo(np.array([1.0, 0.5]), np.array([0.01]))

    def test_empty_service_raises(self):
        with pytest.raises(ValueError):
            simulate_fifo(np.array([0.0]), np.array([]))

    def test_nonpositive_service_raises(self):
        with pytest.raises(ValueError):
            simulate_fifo(np.array([0.0]), np.array([0.0]))
