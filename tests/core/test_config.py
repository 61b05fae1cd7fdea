"""Cluster configuration variables and canonicalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (
    ClusterConfig,
    GpuAssignment,
    base_config,
    co2opt_config,
    uniform_config,
)
from repro.core.moves import MoveGenerator


class TestGpuAssignment:
    def test_valid_assignment(self):
        a = GpuAssignment(partition_id=3, variant_ordinals=(1, 2, 3))
        assert a.partition.config_id == 3
        assert len(a.instances()) == 3

    def test_wrong_ordinal_count_raises(self):
        with pytest.raises(ValueError, match="3 slices"):
            GpuAssignment(partition_id=3, variant_ordinals=(1, 2))

    def test_nonpositive_ordinal_raises(self):
        with pytest.raises(ValueError):
            GpuAssignment(partition_id=1, variant_ordinals=(0,))

    def test_instances_align_with_slices(self):
        a = GpuAssignment(partition_id=3, variant_ordinals=(4, 2, 1))
        pairs = a.instances()
        assert [s.name for s, _ in pairs] == ["4g", "2g", "1g"]
        assert [o for _, o in pairs] == [4, 2, 1]

    def test_canonical_sorts_within_slice_type_runs(self):
        # Partition 19 is seven 1g slices: ordinal order is irrelevant.
        a = GpuAssignment(partition_id=19, variant_ordinals=(3, 1, 2, 1, 4, 1, 2))
        c = a.canonical()
        assert c.variant_ordinals == (1, 1, 1, 2, 2, 3, 4)

    def test_canonical_preserves_cross_type_alignment(self):
        a = GpuAssignment(partition_id=3, variant_ordinals=(4, 2, 1))
        assert a.canonical().variant_ordinals == (4, 2, 1)

    def test_validate_against_catches_oom(self, zoo):
        fam = zoo.family("albert")
        # xxlarge (ordinal 4) does not fit the 1g slice of partition 3.
        a = GpuAssignment(partition_id=3, variant_ordinals=(4, 4, 4))
        with pytest.raises(ValueError, match="does not fit"):
            a.validate_against(fam)

    def test_validate_against_catches_unknown_ordinal(self, zoo):
        fam = zoo.family("yolov5")  # 3 variants
        a = GpuAssignment(partition_id=1, variant_ordinals=(4,))
        with pytest.raises(ValueError):
            a.validate_against(fam)


class TestClusterConfig:
    def test_instance_count(self, zoo):
        fam = zoo.family("efficientnet")
        cfg = uniform_config(fam, 3, 19, 1)
        assert cfg.num_instances == 21
        assert cfg.n_gpus == 3

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(family="f", assignments=())

    def test_canonical_orders_gpus(self):
        a1 = GpuAssignment(partition_id=19, variant_ordinals=(1,) * 7)
        a2 = GpuAssignment(partition_id=1, variant_ordinals=(4,))
        cfg = ClusterConfig(family="efficientnet", assignments=(a1, a2))
        canon = cfg.canonical()
        assert canon.partition_ids == (1, 19)

    def test_canonical_equal_for_permuted_gpus(self, zoo):
        a1 = GpuAssignment(partition_id=3, variant_ordinals=(3, 2, 1))
        a2 = GpuAssignment(partition_id=1, variant_ordinals=(4,))
        c1 = ClusterConfig(family="efficientnet", assignments=(a1, a2))
        c2 = ClusterConfig(family="efficientnet", assignments=(a2, a1))
        assert c1.canonical() == c2.canonical()

    def test_with_assignment_is_functional(self):
        cfg = ClusterConfig(
            family="f",
            assignments=(
                GpuAssignment(partition_id=1, variant_ordinals=(1,)),
            ) * 2,
        )
        new = cfg.with_assignment(
            1, GpuAssignment(partition_id=1, variant_ordinals=(2,))
        )
        assert cfg.assignments[1].variant_ordinals == (1,)
        assert new.assignments[1].variant_ordinals == (2,)

    def test_with_assignment_bounds(self):
        cfg = ClusterConfig(
            family="f",
            assignments=(GpuAssignment(partition_id=1, variant_ordinals=(1,)),),
        )
        with pytest.raises(IndexError):
            cfg.with_assignment(
                5, GpuAssignment(partition_id=1, variant_ordinals=(1,))
            )


def sorted_config(config: ClusterConfig) -> ClusterConfig:
    """The cluster's canonical form by sorting, without the memo."""
    canon = sorted(
        (a.canonical() for a in config.assignments),
        key=lambda a: (a.partition_id, a.variant_ordinals),
    )
    return ClusterConfig(family=config.family, assignments=tuple(canon))


def shuffled(config: ClusterConfig, rng: np.random.Generator) -> ClusterConfig:
    """The same GPUs in another order, each GPU's ordinals shuffled."""
    order = rng.permutation(config.n_gpus)
    return ClusterConfig(
        family=config.family,
        assignments=tuple(
            GpuAssignment(
                partition_id=a.partition_id,
                variant_ordinals=tuple(
                    int(o) for o in rng.permutation(a.variant_ordinals)
                ),
            )
            for a in (config.assignments[i] for i in order)
        ),
    )


class TestCanonicalMemo:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 6),
        perturb=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_equals_the_sort(self, zoo, seed, n, perturb):
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        rng = np.random.default_rng(seed)
        config = moves.random_config(n, rng)
        if perturb:
            config = moves.perturb_config(config, rng)
        for cfg in (config, shuffled(config, rng)):
            want = sorted_config(cfg)
            assert cfg.canonical() == want
            assert cfg.canonical() == want  # the memoized answer
            assert want.canonical() == want

    def test_equal_configs_share_one_canonical_instance(self, zoo):
        """Later cache lookups on the canonical form match by identity."""
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        config = moves.random_config(4, np.random.default_rng(7))
        raw = shuffled(config, np.random.default_rng(8))
        twin = ClusterConfig(family=raw.family, assignments=raw.assignments)
        assert twin is not raw and twin == raw
        assert twin.canonical() is raw.canonical()


class TestNamedConfigs:
    def test_base_config(self, zoo):
        fam = zoo.family("efficientnet")
        cfg = base_config(fam, 10)
        assert cfg.partition_ids == (1,) * 10
        assert all(
            a.variant_ordinals == (fam.largest.ordinal,) for a in cfg.assignments
        )

    def test_co2opt_config_uses_finest_partition(self, zoo):
        fam = zoo.family("efficientnet")
        cfg = co2opt_config(fam, 10)
        assert cfg.partition_ids == (19,) * 10
        assert cfg.num_instances == 70
        assert all(a.variant_ordinals == (1,) * 7 for a in cfg.assignments)

    def test_co2opt_valid_for_all_families(self, zoo):
        for fam in zoo.families:
            cfg = co2opt_config(fam, 2)
            cfg.validate_against(zoo)

    def test_uniform_config_validates_memory(self, zoo):
        fam = zoo.family("yolov5")
        with pytest.raises(ValueError, match="does not fit"):
            uniform_config(fam, 1, 19, fam.largest.ordinal)  # x6 on 1g
