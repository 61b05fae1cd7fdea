"""Request batch records and views."""

import numpy as np
import pytest

from repro.serving.requests import RequestBatch


def make_batch(n=5):
    arrival = np.arange(n, dtype=float)
    start = arrival + 0.5
    finish = start + 1.0
    inst = np.zeros(n, dtype=np.int64)
    return RequestBatch(
        arrival_s=arrival, start_s=start, finish_s=finish, instance_index=inst
    )


class TestRequestBatch:
    def test_len_and_vector_views(self):
        b = make_batch(4)
        assert len(b) == 4
        assert np.allclose(b.start_s - b.arrival_s, 0.5)
        assert np.allclose(b.service_s, 1.0)
        assert np.allclose(b.latency_s, 1.5)
        assert np.allclose(b.latency_ms, 1500.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            RequestBatch(
                arrival_s=np.zeros(3), start_s=np.zeros(2),
                finish_s=np.zeros(3), instance_index=np.zeros(3, dtype=int),
            )

    def test_misordered_times_raise(self):
        with pytest.raises(ValueError):
            RequestBatch(
                arrival_s=np.array([1.0]), start_s=np.array([0.5]),
                finish_s=np.array([2.0]), instance_index=np.array([0]),
            )

    def test_tail_drops_warmup(self):
        b = make_batch(10)
        t = b.tail(0.3)
        assert len(t) == 7
        assert t.arrival_s[0] == 3.0

    def test_tail_zero_is_identity(self):
        b = make_batch(4)
        assert len(b.tail(0.0)) == 4

    def test_tail_invalid_fraction(self):
        with pytest.raises(ValueError):
            make_batch(4).tail(1.0)

    def test_empty_batch_allowed(self):
        b = RequestBatch(
            arrival_s=np.zeros(0), start_s=np.zeros(0),
            finish_s=np.zeros(0), instance_index=np.zeros(0, dtype=int),
        )
        assert len(b) == 0
