"""Reverse shortest-path trees against a Bellman-Ford reference."""

from __future__ import annotations

import random
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from drcr import Edge, Network, TreeCache, build_reverse_trees, enumerate_paths
from drcr import trees as trees_mod

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
def _network_and_target(draw, caps=(3, 20, 100, 10 ** 15)):
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    # small weights tie often and keep the ring, large ones need exact sums;
    # each metric draws its own cap, so one may take the ring and one the heap
    cost = st.integers(1, draw(st.sampled_from(caps)))
    delay = st.integers(1, draw(st.sampled_from(caps)))
    raw = draw(st.lists(st.tuples(node, node, cost, delay), max_size=30))
    edges = [Edge(u, v, c, d) for u, v, c, d in raw if u != v]
    # repeat some edges verbatim or with new weights: parallel edges
    for i in draw(st.lists(st.integers(0, max(0, len(edges) - 1)),
                           max_size=5 if edges else 0)):
        u, v, _, _ = edges[i]
        edges.append(Edge(u, v, draw(cost), draw(delay)))
    return Network(n, edges), draw(node)


@settings(max_examples=300, deadline=None)
@given(_network_and_target())
def test_property_matches_bellman_ford(case):
    net, target = case
    trees = build_reverse_trees(net, target)
    assert trees.min_cost_to_target == bellman_ford_to_target(net, target, "cost")
    assert trees.min_delay_to_target == bellman_ford_to_target(net, target, "delay")


@settings(max_examples=300, deadline=None)
@given(_network_and_target())
def test_property_every_queue_matches_bellman_ford(case):
    # the limit picks the queue: below RING_SHARE * (W + 1) the heap; for W
    # up to 100, at it the ring, handing off once it walks past that
    # distance, and at n times it, above any distance, the whole ring.
    # Each expands every reachable node once, so a hand-off neither loses
    # nor repeats a live entry
    net, target = case
    share = trees_mod.RING_SHARE
    for weight, metric, max_weight in ((trees_mod._COST, "cost", net.max_edge_cost),
                                       (trees_mod._DELAY, "delay", net.max_edge_delay)):
        expected = bellman_ford_to_target(net, target, metric)
        size = (max_weight or 0) + 1
        limits = [share * size - 1]
        if size <= 101:
            limits += [share * size, share * net.node_count * size]
        for limit in limits:
            rows = _CountingRows(net.reverse_adjacency)
            dist = trees_mod._reverse_dijkstra(rows, target, weight, max_weight, limit)
            assert dist == expected
            assert rows.reads == [int(d != inf) for d in expected]


@settings(max_examples=200, deadline=None)
@given(_network_and_target(caps=(3, 20)), st.integers(1, 10 ** 12))
def test_scaled_weights_scale_the_distances_through_the_heap(case, j):
    # k exceeds n + m, so every scaled weight is past the switch and both
    # scaled trees take the heap: they must be exactly k times the originals
    net, target = case
    k = net.node_count + len(net.edges) + j
    scaled = Network(net.node_count, [Edge(e.src, e.dst, e.cost * k, e.delay * k)
                                      for e in net.edges])
    small = build_reverse_trees(net, target)
    large = build_reverse_trees(scaled, target)
    assert large.min_cost_to_target == [d * k for d in small.min_cost_to_target]
    assert large.min_delay_to_target == [d * k for d in small.min_delay_to_target]
    assert all(type(d) is int for d in large.min_cost_to_target if d != inf)


def _heap_calls(monkeypatch) -> list[int]:
    """Record the weight position of every run that reaches the heap."""
    calls: list[int] = []
    heap = trees_mod._heap_queue

    def recording(rev, weight, dist, level):
        calls.append(weight)
        return heap(rev, weight, dist, level)

    monkeypatch.setattr(trees_mod, "_heap_queue", recording)
    return calls


def test_ring_up_to_a_share_of_the_network_size_then_heap(monkeypatch):
    # a star of 9 nodes into node 0, node 2 by two edges: n + m = 20, so a
    # largest cost of 4 keeps the ring (4 * 5 = 20) and 5 takes the heap
    # (4 * 6 > 20); delays stay 1
    assert trees_mod.RING_SHARE * (4 + 1) == 20 < trees_mod.RING_SHARE * (5 + 1)
    calls = _heap_calls(monkeypatch)
    for top, heap in ((4, []), (5, [trees_mod._COST])):
        net = Network(10, [Edge(1, 0, top, 1), Edge(2, 0, 3, 1)]
                      + [Edge(i, 0, 1, 1) for i in range(2, 10)])
        trees = build_reverse_trees(net, 0)
        assert trees.min_cost_to_target == [0, top] + [1] * 8
        assert trees.min_delay_to_target == [0] + [1] * 9
        assert calls == heap
        calls.clear()


def test_sparse_distances_hand_the_ring_to_the_heap(monkeypatch):
    # a 50-node chain into node 49 with costs 10: the ring (4 * 11 <= n + m
    # = 99) meets its first empty bucket past 99 at distance 101 and hands
    # node 38, at 110, to the heap; the delays of 1 stay on the ring
    n = 50
    net = Network(n, [Edge(i, i + 1, 10, 1) for i in range(n - 1)])
    calls = _heap_calls(monkeypatch)
    trees = build_reverse_trees(net, n - 1)
    assert trees.min_cost_to_target == [10 * (n - 1 - i) for i in range(n)]
    assert trees.min_delay_to_target == [n - 1 - i for i in range(n)]
    assert calls == [trees_mod._COST]
    rows = _CountingRows(net.reverse_adjacency)
    trees_mod._reverse_dijkstra(rows, n - 1, trees_mod._COST, 10, n + n - 1)
    assert rows.reads == [1] * n


def test_hand_off_skips_stale_ring_entries(monkeypatch):
    # W = 10 and a limit of 44 (4 * 11): a chain puts node 4 at 40, nodes 5
    # and 6 settle at 45 and 46, node 7 is queued at 55 through 5 and then
    # at 51 through 6, and node 8 at 54, in the ring's last slot; distance
    # 47 is empty and past 44, so the ring hands off holding all three
    # entries, and the one of node 7 at 55 is stale
    net = Network(9, [Edge(1, 0, 10, 1), Edge(2, 1, 10, 1), Edge(3, 2, 10, 1),
                      Edge(4, 3, 10, 1), Edge(5, 4, 5, 1), Edge(6, 4, 6, 1),
                      Edge(7, 5, 10, 1), Edge(7, 6, 5, 1), Edge(8, 6, 8, 1)])
    calls = _heap_calls(monkeypatch)
    rows = _CountingRows(net.reverse_adjacency)
    dist = trees_mod._reverse_dijkstra(rows, 0, trees_mod._COST, 10, 44)
    assert dist == [0, 10, 20, 30, 40, 45, 46, 51, 54]
    assert dist == bellman_ford_to_target(net, 0, "cost")
    assert rows.reads == [1] * 9
    assert calls == [trees_mod._COST]


def test_many_nodes_tied_at_one_distance():
    # 300 nodes reach the target at cost 5; 300 more reach it at cost 8
    # both through them and by a direct edge: two crowded buckets, and a
    # tie at every node of the second
    width = 300
    edges = [Edge(i, 0, 5, 2) for i in range(1, width + 1)]
    edges += [Edge(width + i, i, 3, 1) for i in range(1, width + 1)]
    edges += [Edge(width + i, 0, 8, 9) for i in range(1, width + 1)]
    net = Network(2 * width + 1, edges)
    trees = build_reverse_trees(net, 0)
    assert trees.min_cost_to_target == [0] + [5] * width + [8] * width
    assert trees.min_delay_to_target == [0] + [2] * width + [3] * width
    assert trees.min_cost_to_target == bellman_ford_to_target(net, 0, "cost")


def test_long_chain():
    n = 600
    rng = random.Random(5)
    weights = [(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(n - 1)]
    net = Network(n, [Edge(i, i + 1, c, d) for i, (c, d) in enumerate(weights)])
    trees = build_reverse_trees(net, n - 1)
    cost_to = [0] * n
    delay_to = [0] * n
    for i in range(n - 2, -1, -1):
        cost_to[i] = cost_to[i + 1] + weights[i][0]
        delay_to[i] = delay_to[i + 1] + weights[i][1]
    assert trees.min_cost_to_target == cost_to
    assert trees.min_delay_to_target == delay_to
    # the chain's head is reachable from nowhere but itself
    assert build_reverse_trees(net, 0).min_cost_to_target == [0] + [inf] * (n - 1)


def test_weights_near_and_above_2_63_are_exact():
    big = 2 ** 63
    # 0->2 direct costs 2**64 + 1; 0->1->2 costs (2**63 - 1) + (2**63 + 1),
    # one less, which a float sum could not tell apart
    net = Network(3, [Edge(0, 2, 2 * big + 1, 1), Edge(0, 1, big - 1, big),
                      Edge(1, 2, big + 1, big + 3)])
    trees = build_reverse_trees(net, 2)
    assert trees.min_cost_to_target == [2 * big, big + 1, 0]
    assert trees.min_delay_to_target == [1, big + 3, 0]
    assert all(type(d) is int for d in trees.min_cost_to_target)
    assert float(2 * big) == float(2 * big + 1)


class _CountingRows(list):
    """Ingress rows that count how often each node's row is read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = [0] * len(rows)

    def __getitem__(self, v):
        self.reads[v] += 1
        return super().__getitem__(v)


def test_stale_bucket_entry_is_skipped():
    # the costly parallel edge 1->2 puts node 1 in bucket 9 first; the
    # cheap one moves it to bucket 1, and bucket 9 must not expand it again;
    # checked on the heap (a limit of 20, below 4 * 21) and on the whole
    # ring (a limit of 84, above every distance)
    net = Network(4, [Edge(1, 2, 9, 1), Edge(1, 2, 1, 9), Edge(0, 1, 1, 1),
                      Edge(3, 2, 20, 20)])
    for limit in (20, 84):
        rows = _CountingRows(net.reverse_adjacency)
        dist = trees_mod._reverse_dijkstra(rows, 2, trees_mod._COST, 20, limit)
        assert dist == [2, 1, 0, 20]
        assert rows.reads == [1, 1, 1, 1]
        assert dist == bellman_ford_to_target(net, 2, "cost")
    assert build_reverse_trees(net, 2).min_delay_to_target == [2, 1, 0, 20]


def test_network_without_edges():
    trees = build_reverse_trees(Network(2, []), 1)
    assert trees.min_cost_to_target == trees.min_delay_to_target == [inf, 0]


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
