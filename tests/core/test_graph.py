"""Configuration graph: GED metric axioms, compaction, additivity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ClusterConfig, GpuAssignment, uniform_config
from repro.core.graph import ConfigGraph, graph_edit_distance

weights_st = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=5, max_size=5),
    min_size=4,
    max_size=4,
).map(lambda w: np.array(w, dtype=np.int64))


def graph(w):
    return ConfigGraph(family="efficientnet", weights=np.asarray(w))


class TestConstruction:
    def test_from_config_counts_instances(self, zoo):
        fam = zoo.family("efficientnet")
        cfg = uniform_config(fam, 2, 3, 2)  # 2 GPUs of {4g,2g,1g}, all B3
        g = ConfigGraph.from_config(cfg, fam.num_variants)
        assert g.total_instances == 6
        # Variant 2 on slice types 4g (3), 2g (1), 1g (0): two each.
        assert g.weights[1, 3] == 2
        assert g.weights[1, 1] == 2
        assert g.weights[1, 0] == 2

    def test_compaction_placement_irrelevant(self, zoo):
        """The paper's key claim: different physical placements of the same
        variant-on-slice-type multiset give the same graph."""
        fam = zoo.family("efficientnet")
        a1 = GpuAssignment(partition_id=3, variant_ordinals=(4, 2, 1))
        a2 = GpuAssignment(partition_id=1, variant_ordinals=(3,))
        c1 = ClusterConfig(family=fam.name, assignments=(a1, a2))
        c2 = ClusterConfig(family=fam.name, assignments=(a2, a1))
        g1 = ConfigGraph.from_config(c1, fam.num_variants)
        g2 = ConfigGraph.from_config(c2, fam.num_variants)
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_ordinal_beyond_family_raises(self, zoo):
        fam = zoo.family("yolov5")
        cfg = uniform_config(zoo.family("efficientnet"), 1, 1, 4)
        with pytest.raises(ValueError, match="only 3 variants"):
            ConfigGraph.from_config(cfg, fam.num_variants)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            graph(-np.ones((4, 5), dtype=np.int64))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            ConfigGraph(family="f", weights=np.zeros((4, 4), dtype=np.int64))

    def test_weights_readonly(self):
        g = graph(np.zeros((4, 5), dtype=np.int64))
        with pytest.raises(ValueError):
            g.weights[0, 0] = 1


class TestGedMetricAxioms:
    @given(weights_st)
    @settings(max_examples=50, deadline=None)
    def test_identity(self, w):
        assert graph(w).ged(graph(w)) == 0

    @given(weights_st, weights_st)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, w1, w2):
        assert graph(w1).ged(graph(w2)) == graph(w2).ged(graph(w1))

    @given(weights_st, weights_st, weights_st)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, w1, w2, w3):
        a, b, c = graph(w1), graph(w2), graph(w3)
        assert a.ged(c) <= a.ged(b) + b.ged(c)

    @given(weights_st, weights_st)
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_discriminating(self, w1, w2):
        d = graph(w1).ged(graph(w2))
        assert d >= 0
        assert (d == 0) == np.array_equal(w1, w2)


class TestPaperGedArithmetic:
    def test_variant_swap_costs_two(self, zoo):
        """'swapping the model variant of one service instance incurs two
        GED'."""
        fam = zoo.family("efficientnet")
        c1 = uniform_config(fam, 1, 1, 4)
        c2 = uniform_config(fam, 1, 1, 3)
        g1 = ConfigGraph.from_config(c1, fam.num_variants)
        g2 = ConfigGraph.from_config(c2, fam.num_variants)
        assert g1.ged(g2) == 2

    def test_slice_switch_costs_two(self):
        """'switching a model copy to ... a different MIG slice type also
        incurs two GED'."""
        w1 = np.zeros((4, 5), dtype=np.int64)
        w2 = np.zeros((4, 5), dtype=np.int64)
        w1[0, 0] = 1  # variant 1 on 1g
        w2[0, 1] = 1  # variant 1 on 2g
        assert graph(w1).ged(graph(w2)) == 2

    def test_is_neighbor_threshold(self):
        w = np.zeros((4, 5), dtype=np.int64)
        w[0, 0] = 3
        g0 = graph(w)
        w2 = w.copy()
        w2[0, 0] = 1
        w2[1, 0] = 2
        assert g0.ged(graph(w2)) == 4
        assert g0.is_neighbor(graph(w2))
        w3 = w.copy()
        w3[0, 0] = 0
        w3[1, 1] = 3
        assert g0.ged(graph(w3)) == 6
        assert not g0.is_neighbor(graph(w3))

    def test_self_is_not_a_neighbor(self):
        g = graph(np.ones((4, 5), dtype=np.int64))
        assert not g.is_neighbor(g)


class TestAdditivity:
    @given(weights_st, weights_st)
    @settings(max_examples=50, deadline=None)
    def test_add_then_subtract_round_trips(self, w1, w2):
        """The paper's additivity property: adding GPUs adds edge weights;
        removing them subtracts."""
        a, b = graph(w1), graph(w2)
        assert (a + b) - b == a

    def test_add_matches_config_union(self, zoo):
        fam = zoo.family("efficientnet")
        c1 = uniform_config(fam, 2, 19, 1)
        c2 = uniform_config(fam, 3, 1, 4)
        g1 = ConfigGraph.from_config(c1, fam.num_variants)
        g2 = ConfigGraph.from_config(c2, fam.num_variants)
        union = ClusterConfig(
            family=fam.name, assignments=c1.assignments + c2.assignments
        )
        assert g1 + g2 == ConfigGraph.from_config(union, fam.num_variants)

    def test_subtract_below_zero_raises(self):
        small = graph(np.zeros((4, 5), dtype=np.int64))
        big = graph(np.ones((4, 5), dtype=np.int64))
        with pytest.raises(ValueError):
            small - big

    def test_family_mismatch_raises(self):
        a = ConfigGraph(family="x", weights=np.zeros((4, 5), dtype=np.int64))
        b = ConfigGraph(family="y", weights=np.zeros((4, 5), dtype=np.int64))
        with pytest.raises(ValueError):
            a.ged(b)


class TestViews:
    def test_histograms(self):
        w = np.zeros((4, 5), dtype=np.int64)
        w[0, 0] = 2
        w[3, 4] = 1
        g = graph(w)
        assert g.slice_histogram().tolist() == [2, 0, 0, 0, 1]
        assert g.variant_counts().tolist() == [2, 0, 0, 1]
        assert g.total_instances == 3

    def test_key_distinguishes_graphs(self):
        w1 = np.zeros((4, 5), dtype=np.int64)
        w2 = w1.copy()
        w2[0, 0] = 1
        assert graph(w1).key() != graph(w2).key()

    def test_module_level_alias(self):
        g = graph(np.zeros((4, 5), dtype=np.int64))
        assert graph_edit_distance(g, g) == 0
