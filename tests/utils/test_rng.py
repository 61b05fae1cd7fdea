"""Deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import RngMixer, as_generator, spawn_child


class TestAsGenerator:
    def test_int_seeds_are_reproducible(self):
        a = as_generator(7).random(5)
        b = as_generator(7).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawnChild:
    def test_children_differ_by_tag(self):
        parent = as_generator(1)
        a = spawn_child(parent, "a").random(4)
        parent2 = as_generator(1)
        b = spawn_child(parent2, "b").random(4)
        assert not np.array_equal(a, b)


class TestRngMixer:
    def test_same_name_same_stream(self):
        m1, m2 = RngMixer(seed=3), RngMixer(seed=3)
        assert np.array_equal(
            m1.stream("workload").random(8), m2.stream("workload").random(8)
        )

    def test_different_names_independent(self):
        m = RngMixer(seed=3)
        a = m.stream("a").random(8)
        b = m.stream("b").random(8)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        m = RngMixer(seed=3)
        assert m.stream("x") is m.stream("x")

    def test_fork_indexed_substreams(self):
        m1, m2 = RngMixer(seed=5), RngMixer(seed=5)
        assert np.array_equal(
            m1.fork("sa", 3).random(4), m2.fork("sa", 3).random(4)
        )
        assert not np.array_equal(
            m1.fork("sa", 1).random(4), m2.fork("sa", 2).random(4)
        )

    def test_different_seeds_differ(self):
        a = RngMixer(seed=1).stream("s").random(4)
        b = RngMixer(seed=2).stream("s").random(4)
        assert not np.array_equal(a, b)


class TestRngMixerPins:
    """The first draws of named and indexed streams, pinned.

    A mixer's streams are functions of (seed, name, index) alone; an
    unset seed means entropy 0, so seed ``None`` reproduces seed 0.
    """

    @pytest.mark.parametrize("seed", [0, None])
    def test_fork_first_draws(self, seed):
        m = RngMixer(seed=seed)
        assert m.fork("des-eval", 7).random(3).tolist() == [
            0.9874745203695339,
            0.21304319497057034,
            0.022822317595336372,
        ]
        assert m.fork("sa", 0).integers(0, 1000, 3).tolist() == [887, 256, 99]

    @pytest.mark.parametrize("seed", [0, None])
    def test_stream_first_draws(self, seed):
        assert RngMixer(seed=seed).stream("workload").random(3).tolist() == [
            0.7147189879234822,
            0.08724620371440706,
            0.580681353233368,
        ]
