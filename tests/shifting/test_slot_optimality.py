"""The slot planner against an exact optimum.

With one score per slot, placing lots into slot capacities inside their
deadline windows is a transportation problem — the slot assignment
CarbonShift-ML's scheduler poses over a per-slot CO2 table.
``min_cost_placement`` solves small instances exactly: successive
shortest paths on source → lot → eligible slot → sink.  Every window
starts at slot 0, so the windows are nested, and EDF with the cleanest
slot first is then cost-optimal for preemptible lots; the property pins
that wherever every lot fits.  Whole lots are bin packing, where greedy
can lose, so for non-preemptible lots the oracle is only a lower bound.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.shifting import plan_batch_slots

#: Path costs that differ by less than this are equal to the oracle:
#: rounding must never look like a cheaper path.
COST_TOL = 1e-9


def min_cost_placement(requests, deadline_slots, slot_caps, slot_scores):
    """``(placed, cost)`` of the cheapest placement of as many requests
    as the windows can hold, by successive shortest paths (Bellman-Ford
    on the residual network)."""
    n_lots, n_slots = len(requests), len(slot_caps)
    source, sink = n_lots + n_slots, n_lots + n_slots + 1
    # Residual edges out of each node: [head, capacity, cost, reverse index].
    edges = [[] for _ in range(sink + 1)]

    def add(u, v, capacity, cost):
        edges[u].append([v, capacity, cost, len(edges[v])])
        edges[v].append([u, 0.0, -cost, len(edges[u]) - 1])

    for li in range(n_lots):
        add(source, li, float(requests[li]), 0.0)
        last = max(0, min(int(deadline_slots[li]), n_slots - 1))
        for s in range(last + 1):
            add(li, n_lots + s, math.inf, float(slot_scores[s]))
    for s in range(n_slots):
        add(n_lots + s, sink, float(slot_caps[s]), 0.0)

    placed = cost = 0.0
    for _ in range(1000):
        dist = [math.inf] * (sink + 1)
        via = [None] * (sink + 1)
        dist[source] = 0.0
        for _ in range(sink):
            relaxed = False
            for u, out in enumerate(edges):
                if dist[u] == math.inf:
                    continue
                for k, (v, capacity, c, _) in enumerate(out):
                    if capacity > 0.0 and dist[u] + c < dist[v] - COST_TOL:
                        dist[v], via[v] = dist[u] + c, (u, k)
                        relaxed = True
            if not relaxed:
                break
        if via[sink] is None:
            return placed, cost
        path, v = [], sink
        while v != source:
            u, k = via[v]
            path.append(edges[u][k])
            v = u
            assert len(path) <= sink, "a cycle in the shortest-path tree"
        push = min(edge[1] for edge in path)
        for edge in path:
            edge[1] -= push
            edges[edge[0]][edge[3]][1] += push
        placed += push
        cost += push * dist[sink]
    raise AssertionError("successive shortest paths did not terminate")


@st.composite
def small_slot_problems(draw):
    """Up to 5 lots over up to 7 slots; half the draws size the slots so
    every lot fits by construction, and half round every number to an
    integer so that ties between slots and needs are exact."""
    n_lots = draw(st.integers(min_value=1, max_value=5))
    n_slots = draw(st.integers(min_value=1, max_value=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    requests = rng.uniform(0.5, 30.0, n_lots)
    deadline_slots = rng.integers(0, n_slots, n_lots)
    caps = rng.uniform(0.0, 40.0, n_slots)
    if draw(st.booleans()):
        np.add.at(caps, deadline_slots, requests)
    scores = rng.uniform(20.0, 400.0, n_slots)
    if draw(st.booleans()):
        requests, caps, scores = requests.round(), caps.round(), scores.round()
    return requests, deadline_slots, caps, scores


def plan_cost(problem, preemptible):
    """The planner's plan, whether it placed every lot, and its cost."""
    requests, deadline_slots, caps, scores = problem
    alloc = plan_batch_slots(
        requests, deadline_slots, caps, scores, preemptible=preemptible
    )
    placed_all = bool(
        np.all(alloc.sum(axis=1) >= requests * (1.0 - 1e-12))
    )
    return placed_all, math.fsum((alloc * scores).ravel())


class TestPlannerCostIsOptimal:
    @given(problem=small_slot_problems())
    @settings(max_examples=150, deadline=None)
    def test_preemptible_plans_cost_the_minimum(self, problem):
        requests = problem[0]
        placed, optimum = min_cost_placement(*problem)
        fits = placed >= math.fsum(requests) * (1.0 - 1e-12)
        placed_all, cost = plan_cost(problem, preemptible=True)
        # EDF is feasibility-optimal: it places every lot exactly when
        # the windows can hold them all.
        assert placed_all == fits
        if fits:
            assert abs(cost - optimum) <= 1e-9 * optimum

    @given(problem=small_slot_problems())
    @settings(max_examples=100, deadline=None)
    def test_whole_lots_cost_no_less_than_the_minimum(self, problem):
        """A whole-lot plan that places every lot is one feasible
        placement, so it can cost more than the optimum but never less."""
        _, optimum = min_cost_placement(*problem)
        placed_all, cost = plan_cost(problem, preemptible=False)
        if placed_all:
            assert cost >= optimum * (1.0 - 1e-9)

    def test_a_known_instance(self):
        """Two lots over three slots: the tight lot takes the cleaner of
        its two slots, the loose lot what is left of it and then the next
        cleanest."""
        problem = (
            np.array([4.0, 6.0]), np.array([1, 2]),
            np.array([5.0, 5.0, 5.0]), np.array([300.0, 100.0, 200.0]),
        )
        placed, optimum = min_cost_placement(*problem)
        assert placed == 10.0
        assert optimum == 5.0 * 100.0 + 5.0 * 200.0
        assert plan_cost(problem, preemptible=True) == (True, optimum)
