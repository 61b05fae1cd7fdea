"""Graph realization onto concrete GPUs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import uniform_config
from repro.core.feasibility import realize_graph
from repro.core.graph import ConfigGraph
from repro.core.moves import MoveGenerator


class TestRealizeGraph:
    def test_round_trip_preserves_graph(self, zoo):
        """realize(graph(config)) must map back to the identical graph."""
        fam = zoo.family("efficientnet")
        cfg = uniform_config(fam, 2, 10, 2)
        g = ConfigGraph.from_config(cfg, fam.num_variants)
        realized = realize_graph(g, 2)
        g2 = ConfigGraph.from_config(realized, fam.num_variants)
        assert g == g2

    def test_realization_is_deterministic(self, zoo):
        fam = zoo.family("efficientnet")
        cfg = uniform_config(fam, 3, 3, 1)
        g = ConfigGraph.from_config(cfg, fam.num_variants)
        assert realize_graph(g, 3) == realize_graph(g, 3)

    def test_unrealizable_graph_raises(self, zoo):
        fam = zoo.family("efficientnet")
        w = np.zeros((fam.num_variants, 5), dtype=np.int64)
        w[0, 4] = 3  # three 7g slices on two GPUs
        g = ConfigGraph(family=fam.name, weights=w)
        with pytest.raises(ValueError, match="not.*realizable|realizable"):
            realize_graph(g, 2)

    @given(seed=st.integers(0, 500), n_gpus=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_random_config_graphs_round_trip(self, zoo, seed, n_gpus):
        """Property: any raw-space config's graph realizes back to a config
        with the identical graph (the two representations are consistent)."""
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        cfg = moves.random_config(n_gpus, rng=seed)
        fam = zoo.family("efficientnet")
        g = ConfigGraph.from_config(cfg, fam.num_variants)
        realized = realize_graph(g, n_gpus)
        assert ConfigGraph.from_config(realized, fam.num_variants) == g
        realized.validate_against(zoo)
