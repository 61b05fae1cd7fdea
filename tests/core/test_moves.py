"""Neighbourhood moves: every proposal stays feasible and within GED 4."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import base_config, co2opt_config
from repro.core.feasibility import realize_graph
from repro.core.graph import ConfigGraph, _graph_from_config
from repro.core.moves import GED_THRESHOLD, MoveGenerator, partition_neighbors
from repro.gpu.cluster import decompose_histogram
from repro.gpu.partitions import ALL_PARTITION_HISTOGRAMS, NUM_PARTITIONS


class TestPartitionNeighbors:
    def test_symmetric(self):
        adj = partition_neighbors()
        for a, neighbors in adj.items():
            for b in neighbors:
                assert a in adj[b]

    def test_no_self_loops(self):
        adj = partition_neighbors()
        for a, neighbors in adj.items():
            assert a not in neighbors

    def test_histogram_distance_bound(self):
        adj = partition_neighbors()
        for a, neighbors in adj.items():
            for b in neighbors:
                d = int(
                    np.abs(
                        ALL_PARTITION_HISTOGRAMS[a - 1]
                        - ALL_PARTITION_HISTOGRAMS[b - 1]
                    ).sum()
                )
                assert 0 < d <= GED_THRESHOLD

    def test_paper_adjacencies(self):
        adj = partition_neighbors()
        # {7g} <-> {4g,3g} (distance 3) and {7g} <-> {4g,2g,1g} (distance 4).
        assert 2 in adj[1]
        assert 3 in adj[1]
        # {7g} is far from {1g x 7} (distance 8): not a direct neighbour.
        assert 19 not in adj[1]

    def test_graph_is_connected(self):
        """Every partition is reachable from every other through GED <= 4
        hops — SA can traverse the whole space.  The adjacency is
        symmetric (``test_symmetric``), so one breadth-first search from
        any partition checks undirected connectivity."""
        adj = partition_neighbors()
        seen = {1}
        frontier = deque(seen)
        while frontier:
            for b in adj[frontier.popleft()]:
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        assert seen == set(adj) == set(range(1, 20))


class TestPropose:
    @given(seed=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_proposals_stay_in_neighborhood_and_feasible(self, zoo, seed):
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        fam = zoo.family("efficientnet")
        rng = np.random.default_rng(seed)
        config = moves.random_config(3, rng)
        proposal = moves.propose(config, rng)
        if proposal is None:
            return
        g0 = ConfigGraph.from_config(config, fam.num_variants)
        g1 = ConfigGraph.from_config(proposal, fam.num_variants)
        d = g0.ged(g1)
        assert 0 < d <= GED_THRESHOLD
        proposal.validate_against(zoo)
        assert decompose_histogram(
            g1.slice_histogram(), proposal.n_gpus
        ) is not None

    @given(seed=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_proposals_are_already_projected(self, zoo, seed):
        """``propose`` projects the canonical candidate it returns, so the
        evaluator's projection of that candidate is a memo hit."""
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        num_variants = zoo.family("efficientnet").num_variants
        rng = np.random.default_rng(seed)
        proposal = moves.propose(moves.random_config(3, rng), rng)
        if proposal is None:
            return
        assert proposal == proposal.canonical()
        before = _graph_from_config.cache_info()
        ConfigGraph.from_config(proposal, num_variants)
        after = _graph_from_config.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_propose_from_base_finds_neighbors(self, zoo):
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        fam = zoo.family("efficientnet")
        config = base_config(fam, 2)
        found = 0
        rng = np.random.default_rng(0)
        for _ in range(20):
            if moves.propose(config, rng) is not None:
                found += 1
        assert found >= 18  # base has plenty of neighbours

    def test_memory_respected_for_albert(self, zoo):
        """No proposal may place ALBERT-xxlarge on a 1g slice."""
        moves = MoveGenerator(zoo=zoo, family="albert")
        fam = zoo.family("albert")
        rng = np.random.default_rng(1)
        config = co2opt_config(fam, 2)
        for _ in range(50):
            proposal = moves.propose(config, rng)
            if proposal is None:
                continue
            proposal.validate_against(zoo)  # raises on OOM
            config = proposal

    def test_variant_only_family_move(self, zoo):
        """With one GPU at {7g}, variant swaps are always available."""
        moves = MoveGenerator(zoo=zoo, family="yolov5")
        fam = zoo.family("yolov5")
        config = base_config(fam, 1)
        rng = np.random.default_rng(2)
        proposals = [moves.propose(config, rng) for _ in range(10)]
        assert any(p is not None for p in proposals)

    def test_threshold_below_two_rejected(self, zoo):
        with pytest.raises(ValueError):
            MoveGenerator(zoo=zoo, family="efficientnet", threshold=1)


class TestRandomAndPerturb:
    @given(seed=st.integers(0, 200), n=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_random_config_always_valid(self, zoo, seed, n):
        moves = MoveGenerator(zoo=zoo, family="albert")
        cfg = moves.random_config(n, rng=seed)
        assert cfg.n_gpus == n
        cfg.validate_against(zoo)

    def test_random_config_reproducible(self, zoo):
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        assert moves.random_config(3, rng=7) == moves.random_config(3, rng=7)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_perturb_changes_something_and_stays_valid(self, zoo, seed):
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        fam = zoo.family("efficientnet")
        base = base_config(fam, 4)
        out = moves.perturb_config(base, rng=seed)
        assert out != base.canonical() or out == base.canonical()
        out.validate_against(zoo)
        assert out.n_gpus == 4

    def test_perturb_prob_bounds(self, zoo):
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        fam = zoo.family("efficientnet")
        with pytest.raises(ValueError):
            moves.perturb_config(base_config(fam, 2), rng=0, per_gpu_prob=0.0)

    def test_perturb_low_prob_touches_few_gpus(self, zoo):
        moves = MoveGenerator(zoo=zoo, family="efficientnet")
        fam = zoo.family("efficientnet")
        base = base_config(fam, 10).canonical()
        rng = np.random.default_rng(3)
        changed_counts = []
        for _ in range(30):
            out = moves.perturb_config(base, rng, per_gpu_prob=0.2)
            same = sum(
                1 for a in out.assignments
                if a.partition_id == 1 and a.variant_ordinals == (4,)
            )
            changed_counts.append(10 - same)
        assert 1 <= np.mean(changed_counts) <= 4


class TestPartitionGranularity:
    """A pool's granularity bounds every partition the search reaches."""

    @given(
        seed=st.integers(0, 10_000),
        n_gpus=st.integers(1, 4),
        family=st.sampled_from(["efficientnet", "albert", "yolov5"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_no_partition_above_the_granularity(self, zoo, seed, n_gpus, family):
        num_variants = zoo.family(family).num_variants
        rng = np.random.default_rng(seed)
        for k in range(1, NUM_PARTITIONS + 1):
            moves = MoveGenerator(zoo=zoo, family=family, max_partition_id=k)
            chain = [moves.random_config(n_gpus, rng)]
            for _ in range(4):
                proposal = moves.propose(chain[-1], rng)
                if proposal is not None:
                    chain.append(proposal)
            chain.append(moves.perturb_config(chain[0], rng))
            for config in chain:
                assert max(config.partition_ids) <= k
                graph = ConfigGraph.from_config(config, num_variants)
                realized = realize_graph(graph, n_gpus, max_partition_id=k)
                assert max(realized.partition_ids) <= k
                assert ConfigGraph.from_config(realized, num_variants) == graph
            # A graph from the unrestricted space realizes within the
            # granularity or not at all.
            free = MoveGenerator(zoo=zoo, family=family).random_config(n_gpus, rng)
            try:
                realized = realize_graph(
                    ConfigGraph.from_config(free, num_variants),
                    n_gpus,
                    max_partition_id=k,
                )
            except ValueError:
                continue
            assert max(realized.partition_ids) <= k
