"""Reverse shortest-path trees against a Bellman-Ford reference."""

from __future__ import annotations

import random
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from drcr import Edge, Network, TreeCache, build_reverse_trees, enumerate_paths

from conftest import bellman_ford_to_target, random_network


def test_single_edge():
    net = Network(2, [Edge(0, 1, 5, 7)])
    trees = build_reverse_trees(net, 1)
    assert trees.min_cost_to_target == [5, 0]
    assert trees.min_delay_to_target == [7, 0]


def test_unreachable_node_carries_inf():
    net = Network(3, [Edge(0, 1, 1, 1)])
    trees = build_reverse_trees(net, 1)
    assert trees.min_cost_to_target[2] == inf
    assert trees.min_delay_to_target[2] == inf


def test_min_cost_and_min_delay_routes_diverge():
    # 0->1->4 is the cheap route (cost 2, delay 20);
    # 0->2->3->4 is the fast route (cost 30, delay 3)
    net = Network(5, [
        Edge(0, 1, 1, 10), Edge(1, 4, 1, 10),
        Edge(0, 2, 10, 1), Edge(2, 3, 10, 1), Edge(3, 4, 10, 1),
    ])
    trees = build_reverse_trees(net, 4)
    assert trees.min_cost_to_target[0] == 2
    assert trees.min_delay_to_target[0] == 3

    def next_hop(bounds, weight):
        best = None
        for eid in net.adjacency[0]:
            e = net.edges[eid]
            est = weight(e) + bounds[e.dst]
            if best is None or est < best[0]:
                best = (est, e.dst)
        return best[1]

    assert next_hop(trees.min_cost_to_target, lambda e: e.cost) == 1
    assert next_hop(trees.min_delay_to_target, lambda e: e.delay) == 2


def test_matches_bellman_ford():
    rng = random.Random(17)
    for seed in range(60):
        rng.seed(seed)
        net = random_network(rng, max_nodes=64, max_edges=150)
        target = rng.randrange(net.node_count)
        trees = build_reverse_trees(net, target)
        assert trees.min_cost_to_target == bellman_ford_to_target(net, target, "cost")
        assert trees.min_delay_to_target == bellman_ford_to_target(net, target, "delay")


def test_parallel_edges_and_unreachable_nodes_match_bellman_ford():
    # 0->1 twice (cheap-slow and costly-fast), 1->3 twice, 2 only reaches
    # 0 (so it reaches 3 the long way), 4 and 5 cannot reach 3 at all
    net = Network(6, [
        Edge(0, 1, 1, 9), Edge(0, 1, 8, 2), Edge(1, 3, 4, 4),
        Edge(1, 3, 2, 7), Edge(2, 0, 3, 3), Edge(3, 4, 1, 1),
        Edge(4, 5, 1, 1), Edge(5, 4, 2, 2),
    ])
    for target in range(net.node_count):
        trees = build_reverse_trees(net, target)
        assert trees.min_cost_to_target == bellman_ford_to_target(net, target, "cost")
        assert trees.min_delay_to_target == bellman_ford_to_target(net, target, "delay")
    trees = build_reverse_trees(net, 3)
    assert trees.min_cost_to_target == [3, 2, 6, 0, inf, inf]
    assert trees.min_delay_to_target == [6, 4, 9, 0, inf, inf]


@st.composite
def _network_and_target(draw):
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    raw = draw(st.lists(st.tuples(node, node, st.integers(1, 9),
                                  st.integers(1, 9)), max_size=30))
    edges = [Edge(u, v, c, d) for u, v, c, d in raw if u != v]
    # repeat some edges verbatim or with new weights: parallel edges
    for i in draw(st.lists(st.integers(0, max(0, len(edges) - 1)),
                           max_size=5 if edges else 0)):
        u, v, _, _ = edges[i]
        edges.append(Edge(u, v, draw(st.integers(1, 9)), draw(st.integers(1, 9))))
    return Network(n, edges), draw(node)


@settings(max_examples=300, deadline=None)
@given(_network_and_target())
def test_property_matches_bellman_ford(case):
    net, target = case
    trees = build_reverse_trees(net, target)
    assert trees.min_cost_to_target == bellman_ford_to_target(net, target, "cost")
    assert trees.min_delay_to_target == bellman_ford_to_target(net, target, "delay")


def test_triangle_relaxation_fixpoint():
    rng = random.Random(29)
    for seed in range(30):
        rng.seed(seed)
        net = random_network(rng)
        target = rng.randrange(net.node_count)
        trees = build_reverse_trees(net, target)
        assert trees.min_cost_to_target[target] == 0
        assert trees.min_delay_to_target[target] == 0
        for e in net.edges:
            assert trees.min_cost_to_target[e.src] <= e.cost + trees.min_cost_to_target[e.dst]
            assert trees.min_delay_to_target[e.src] <= e.delay + trees.min_delay_to_target[e.dst]


def test_lower_bound_soundness_for_all_paths():
    rng = random.Random(31)
    for seed in range(20):
        rng.seed(seed)
        net = random_network(rng, max_nodes=8, max_edges=16)
        s, t = 0, net.node_count - 1
        if s == t:
            continue
        trees = build_reverse_trees(net, t)
        for p in enumerate_paths(net, s, t, limit=5000):
            assert p.total_cost >= trees.min_cost_to_target[s]
            assert p.total_delay >= trees.min_delay_to_target[s]


def test_cache_builds_once_per_target():
    net = Network(3, [Edge(0, 1, 1, 1), Edge(1, 2, 1, 1)])
    cache = TreeCache(net)
    first = cache.get(2)
    assert cache.get(2) is first
    assert cache.get(1) is not first
