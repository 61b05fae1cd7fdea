"""Batched analytic estimator vs the scalar path, property-tested.

The vectorized paths (`erlang_c_batch`, `estimate_fifo_batch`) serve the
fleet router's rate-grid probes; the scalar functions stay the semantic
reference.
The recursion is bit-for-bit identical; the batch estimate is allowed
summation-order noise only (<= 1e-9 relative, typically ~1e-14).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.analytic import (
    _erlang_c_cached,
    erlang_c,
    erlang_c_batch,
    estimate_fifo,
    estimate_fifo_batch,
)

RTOL = 1e-9

@st.composite
def service_rows(draw):
    """Up to 8 configurations of one width: ``m`` instances each."""
    m = draw(st.integers(min_value=1, max_value=12))
    row = st.lists(
        st.floats(min_value=0.001, max_value=0.2), min_size=m, max_size=m
    )
    return draw(st.lists(row, min_size=1, max_size=8))


def _assert_rows_match(batch, rows, rates):
    """Every batch row equals its scalar twin within summation noise."""
    for i, (row, rate) in enumerate(zip(rows, rates)):
        scalar = estimate_fifo(np.asarray(row), float(rate))
        assert bool(batch.overloaded[i]) == scalar.overloaded
        np.testing.assert_allclose(
            batch.utilization[i], scalar.utilization, rtol=RTOL
        )
        np.testing.assert_allclose(batch.p_wait[i], scalar.p_wait, rtol=RTOL)
        np.testing.assert_allclose(
            batch.mean_wait_s[i], scalar.mean_wait_s, rtol=RTOL
        )
        np.testing.assert_allclose(
            batch.mean_service_s[i], scalar.mean_service_s, rtol=RTOL
        )
        np.testing.assert_allclose(
            batch.shares[i], scalar.shares, rtol=RTOL, atol=1e-15
        )
        if not scalar.overloaded:
            np.testing.assert_allclose(
                batch.p95_ms()[i], scalar.p95_ms(), rtol=RTOL
            )
        else:
            assert batch.p95_ms()[i] == np.inf


class TestErlangCBatch:
    @given(
        c=st.integers(min_value=1, max_value=40),
        load_fracs=st.lists(
            st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_to_scalar(self, c, load_fracs):
        # Spans the empty, stable and overloaded regimes.
        a = np.asarray(load_fracs) * c
        batch = erlang_c_batch(c, a)
        for i, ai in enumerate(a):
            assert batch[i] == erlang_c(c, float(ai))

    def test_broadcasts_scalar_c_over_loads(self):
        loads = np.linspace(0.0, 7.9, 17)
        batch = erlang_c_batch(8, loads)
        assert batch.shape == loads.shape
        for i, a in enumerate(loads):
            assert batch[i] == erlang_c(8, float(a))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            erlang_c_batch(0, np.array([1.0]))
        with pytest.raises(ValueError):
            erlang_c_batch(2, np.array([-0.1]))

    def test_empty_input(self):
        out = erlang_c_batch(3, np.zeros(0))
        assert out.shape == (0,)


class TestErlangCMemo:
    def test_cache_returns_identical_value(self):
        _erlang_c_cached.cache_clear()
        first = erlang_c(13, 9.25)
        misses = _erlang_c_cached.cache_info().misses
        second = erlang_c(13, 9.25)
        info = _erlang_c_cached.cache_info()
        assert second == first
        assert info.misses == misses  # second call was a hit
        assert info.hits >= 1

    def test_cached_matches_batch_recursion(self):
        # The memo must not change values, only skip recomputation.
        _erlang_c_cached.cache_clear()
        for c in (1, 3, 17):
            for a in (0.0, 0.4 * c, 0.95 * c):
                assert erlang_c(c, a) == float(
                    erlang_c_batch(c, np.array([a]))[0]
                )


class TestEstimateFifoBatch:
    @given(rows=service_rows(), load=st.floats(min_value=0.05, max_value=1.4))
    @settings(max_examples=60, deadline=None)
    def test_equal_width_rows_match_scalar(self, rows, load):
        rates = np.array(
            [load * sum(1.0 / s for s in row) for row in rows]
        )
        batch = estimate_fifo_batch(np.array(rows), rates)
        _assert_rows_match(batch, rows, rates)

    def test_zero_rate_rejected_like_scalar(self):
        # Both paths refuse non-positive arrival rates identically.
        with pytest.raises(ValueError):
            estimate_fifo(np.array([0.01]), 0.0)
        with pytest.raises(ValueError):
            estimate_fifo_batch(np.array([[0.01], [0.01]]), np.array([5.0, 0.0]))

    @given(rows=service_rows())
    @settings(max_examples=30, deadline=None)
    def test_near_idle_rows(self, rows):
        rates = np.full(len(rows), 1e-9)  # effectively idle, still valid
        batch = estimate_fifo_batch(np.array(rows), rates)
        assert not batch.overloaded.any()
        _assert_rows_match(batch, rows, rates)

    def test_overloaded_rows_match_scalar(self):
        rows = [[0.01, 0.02], [0.05, 0.03]]
        rates = np.array([1e6, 1e6])
        batch = estimate_fifo_batch(np.array(rows), rates)
        assert batch.overloaded.all()
        _assert_rows_match(batch, rows, rates)

    def test_mixed_overload_in_one_batch(self):
        rows = [[0.01, 0.01], [0.01, 0.01]]
        rates = np.array([50.0, 1e6])
        batch = estimate_fifo_batch(np.array(rows), rates)
        assert list(batch.overloaded) == [False, True]
        _assert_rows_match(batch, rows, rates)
