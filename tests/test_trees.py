"""Reverse shortest-path trees against a Bellman-Ford reference."""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcr import (DrcrTask, Edge, IntegrityError, Network, TreeCache,
                  build_reverse_trees, build_search_order, pulse_optimal)
from drcr import trees as trees_mod
from drcr.bench import run_suite
from drcr.netgen import GenSpec, gen_graph
from drcr.trees import COST, DELAY

from conftest import bellman_ford_to_target, diamond, random_network

_UNREACHED = trees_mod._UNREACHED

# read orders: cost first walks the stacked pair, delay first the delay
# half and then the cost half, each alone
_ORDERS = (("cost", "delay"), ("delay", "cost"))


def _read(trees, order=_ORDERS[0]):
    """The trees, with both halves read in ``order``."""
    for metric in order:
        getattr(trees, f"min_{metric}_to_target")
    return trees


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
    target = draw(node)
    # small weights tie often, large ones need exact sums; each metric
    # draws its own cap
    cost = st.integers(1, draw(st.sampled_from(caps)))
    delay = st.integers(1, draw(st.sampled_from(caps)))
    raw = draw(st.lists(st.tuples(node, node, cost, delay), max_size=30))
    edges = [Edge(u, v, c, d) for u, v, c, d in raw if u != v]
    # repeat some edges verbatim or with new weights: parallel edges
    for i in draw(st.lists(st.integers(0, max(0, len(edges) - 1)),
                           max_size=5 if edges else 0)):
        u, v, _, _ = edges[i]
        edges.append(Edge(u, v, draw(cost), draw(delay)))
    if draw(st.booleans()):
        edges = [e for e in edges if target not in (e.src, e.dst)]
    return Network(n, edges), target


@settings(max_examples=300, deadline=None)
@given(_network_and_target())
def test_property_both_routes_match_bellman_ford(case):
    # each route on its own: the frontier route on the stacked arcs, and
    # the heap on the stacked rows in one queue, reading each reachable
    # stacked node's row exactly once (a stale entry is skipped)
    net, target = case
    cost = bellman_ford_to_target(net, target, "cost")
    delay = bellman_ford_to_target(net, target, "delay")
    trees = _frontier(net, target)
    assert trees.min_cost_to_target == cost
    assert trees.min_delay_to_target == delay
    _assert_python_ints(trees)
    rows = _CountingRows(trees_mod._rows(net))
    assert _heap(rows, target) == cost + delay
    assert rows.reads == [int(d != inf) for d in cost + delay]


@settings(max_examples=300, deadline=None)
@given(_network_and_target(), st.integers(0, 12), st.sampled_from(_ORDERS))
def test_property_walk_cut_anywhere_matches_bellman_ford(case, cut, order):
    # the frontier route with its walk cut after ``cut`` rounds: the heap
    # goes on from the frontier left, whatever the labels handed over, for
    # the pair and for each half walked alone
    net, target = case
    trees = _frontier(net, target, rounds=cut, order=order)
    assert trees.min_cost_to_target == bellman_ford_to_target(net, target, "cost")
    assert trees.min_delay_to_target == bellman_ford_to_target(net, target, "delay")
    _assert_python_ints(trees)


@settings(max_examples=200, deadline=None)
@given(_network_and_target(caps=(3, 20)), st.integers(1, 10 ** 12),
       st.sampled_from(_ORDERS))
def test_scaled_weights_scale_the_distances_through_the_heap(case, j, order):
    # n * k exceeds 2**62, so the scaled trees sum only large weights, on
    # the heap once there is an edge, whichever half is read first: they
    # must be exactly k times the originals
    net, target = case
    n = net.node_count
    k = 2 ** 62 // n + j
    scaled = Network(n, [Edge(e.src, e.dst, e.cost * k, e.delay * k)
                         for e in net.edges])
    if net.edges:
        assert n * scaled.max_edge_cost >= trees_mod._INT64_GUARD
        assert trees_mod._arcs(scaled) is None
    small = build_reverse_trees(net, target)
    large = _read(build_reverse_trees(scaled, target), order)
    assert large.min_cost_to_target == [d * k for d in small.min_cost_to_target]
    assert large.min_delay_to_target == [d * k for d in small.min_delay_to_target]
    _assert_python_ints(large)


def _assert_python_ints(trees):
    assert all(type(d) is int
               for d in trees.min_cost_to_target + trees.min_delay_to_target
               if d != inf)


def _frontier(net, target, rounds=None, order=_ORDERS[0]):
    """Both trees by the frontier route (the weights must be below the
    int64 guard), its walk cut after ``rounds`` rounds (FRONTIER_MAX_ROUNDS
    if None) and handed to the heap if not done by then, read in
    ``order``."""
    assert trees_mod._arcs(net) is not None
    with pytest.MonkeyPatch.context() as patch:
        if rounds is not None:
            patch.setattr(trees_mod, "FRONTIER_MAX_ROUNDS", rounds)
        return _read(build_reverse_trees(net, target), order)


def _pair_walk(net, target, rounds):
    """The frontier walk of the stacked pair: all 2m arcs, from the
    target's two stacked nodes."""
    n = net.node_count
    return trees_mod._frontier_walk(trees_mod._arcs(net), n,
                                    [target, n + target], rounds)


def _heap(rev, target) -> list[float]:
    """A fresh heap walk over the stacked rows ``rev``: the target's two
    stacked nodes queued, at 0.  Returns the 2n stacked labels."""
    n = len(rev) // 2
    labels = [inf] * (2 * n)
    labels[target] = labels[n + target] = 0
    trees_mod._heap_walk(rev, labels, [target, n + target])
    return labels


def _routes(monkeypatch) -> list[str]:
    """Record which route each tree pair took: ``frontier``, then ``heap``
    if the walk handed over, or ``heap`` alone."""
    calls: list[str] = []
    frontier, heap = trees_mod._frontier_walk, trees_mod._heap_walk

    def frontier_recording(*args):
        calls.append("frontier")
        return frontier(*args)

    def heap_recording(*args):
        calls.append("heap")
        return heap(*args)

    monkeypatch.setattr(trees_mod, "_frontier_walk", frontier_recording)
    monkeypatch.setattr(trees_mod, "_heap_walk", heap_recording)
    return calls


def test_route_by_weight_range_then_heap_past_the_rounds(monkeypatch):
    # whatever the size: a 3-node graph takes the frontier route, the same
    # graph with one weight at ceil(2**62 / n) the heap, and a 34-node
    # chain, whose walk needs 34 rounds, the frontier and then the heap
    calls = _routes(monkeypatch)
    n, big = 3, -(-2 ** 62 // 3)
    for weight, route in ((1, ["frontier"]), (big, ["heap"])):
        calls.clear()
        net = Network(n, [Edge(1, 0, 2, 3), Edge(2, 1, weight, 1)])
        trees = build_reverse_trees(net, 0)
        assert calls == []
        assert trees.min_cost_to_target == [0, 2, 2 + weight]
        assert calls == route
        assert trees.min_delay_to_target == [0, 3, 4]
        _assert_python_ints(trees)
    n = trees_mod.FRONTIER_MAX_ROUNDS + 2
    calls.clear()
    chain = Network(n, [Edge(i, i + 1, 2, 1) for i in range(n - 1)])
    trees = build_reverse_trees(chain, n - 1)
    assert trees.min_cost_to_target == [2 * (n - 1 - i) for i in range(n)]
    assert calls == ["frontier", "heap"]
    assert trees.min_delay_to_target == [n - 1 - i for i in range(n)]
    _assert_python_ints(trees)


def test_int64_guard_below_and_at_2_62(monkeypatch):
    # n * W is 2**62 - 256, just below the guard (the frontier route, in
    # int64), and then 2**62 (the heap).  Node i > 1 reaches the target
    # cheapest through node 1, at the sum of two weights near W / 2: past
    # 2**53, where floats space their values 4 apart, and exact either way
    n = 256
    calls = _routes(monkeypatch)
    for top, route in ((2 ** 54 - 1, "frontier"), (2 ** 54, "heap")):
        assert n * top - 2 ** 62 == (-n if route == "frontier" else 0)
        half = top // 2
        net = Network(n, [Edge(1, 0, half + 1, top)]
                      + [Edge(i, 1, half - i, 1) for i in range(2, n)]
                      + [Edge(i, 0, top, 2) for i in range(2, n)])
        trees = build_reverse_trees(net, 0)
        cost = [0, half + 1] + [2 * half + 1 - i for i in range(2, n)]
        assert trees.min_cost_to_target == cost
        assert calls == [route]
        assert trees.min_delay_to_target == [0, top] + [2] * (n - 2)
        assert cost == bellman_ford_to_target(net, 0, "cost")
        assert any(float(d) != d for d in cost)
        _assert_python_ints(trees)
        calls.clear()


def test_long_walk_goes_on_in_the_heap(monkeypatch):
    # a 450-node chain: rooted at node k, the walk takes k + 1 rounds, the
    # last finding nothing to relax.  At k = MAX - 1 the frontier route
    # ends it; at k = MAX and beyond the heap goes on from the walk's last
    # frontier, node k - MAX, and keeps the walk's labels
    bound = trees_mod.FRONTIER_MAX_ROUNDS
    n = 450
    net = Network(n, [Edge(i, i + 1, 10, 1 + i % 3) for i in range(n - 1)])
    walk = trees_mod._frontier_walk
    calls = _routes(monkeypatch)
    for root, route in ((bound - 1, ["frontier"]), (bound, ["frontier", "heap"]),
                        (n - 1, ["frontier", "heap"])):
        calls.clear()
        trees = build_reverse_trees(net, root)
        assert trees.min_cost_to_target == (
            [10 * (root - i) for i in range(root + 1)] + [inf] * (n - root - 1))
        assert calls == route
        assert (trees.min_cost_to_target + trees.min_delay_to_target
                == _heap(trees_mod._rows(net), root))
        _assert_python_ints(trees)
        _, frontier = walk(trees_mod._arcs(net), n, [root, n + root], bound)
        left = root - bound
        assert frontier.tolist() == ([left, n + left] if left >= 0 else [])
    assert trees.min_cost_to_target == bellman_ford_to_target(net, n - 1, "cost")
    assert trees.min_delay_to_target == bellman_ford_to_target(net, n - 1, "delay")


def test_each_half_is_walked_on_its_first_read(tree_walks):
    # delay first walks the delay half alone and cost then the cost half
    # alone; cost first walks the pair, after which delay walks nothing.
    # A read walks at most once, and the target is checked before any walk
    net = diamond()
    with pytest.raises(IntegrityError):
        build_reverse_trees(net, 4)
    for order, expected in zip(_ORDERS, ([(COST, DELAY)],
                                         [(DELAY,), (COST,)])):
        tree_walks.clear()
        trees = build_reverse_trees(net, 3)
        assert tree_walks == []
        first = getattr(trees, f"min_{order[0]}_to_target")
        assert tree_walks == expected[:1]
        second = getattr(trees, f"min_{order[1]}_to_target")
        assert tree_walks == expected
        assert getattr(trees, f"min_{order[0]}_to_target") is first
        assert getattr(trees, f"min_{order[1]}_to_target") is second
        assert tree_walks == expected
        assert trees.min_cost_to_target == [2, 1, 5, 0]
        assert trees.min_delay_to_target == [2, 10, 1, 0]
    # the cache walks the pair before it hands new trees out
    tree_walks.clear()
    cache = TreeCache(net)
    _read(cache.get(3), _ORDERS[1])
    _read(cache.get(3), _ORDERS[0])
    assert tree_walks == [(COST, DELAY)]


@pytest.mark.parametrize("order", _ORDERS)
def test_every_read_order_matches_bellman_ford_on_every_route(
        monkeypatch, tree_walks, order):
    # each walk takes its route as the pair does: the frontier below the
    # int64 guard, the heap at it (n * W = 2**62), and the frontier handed
    # to the heap on a chain deeper than FRONTIER_MAX_ROUNDS
    calls = _routes(monkeypatch)
    net = gen_graph(GenSpec("er", 30, 3, seed=1))
    k = trees_mod._INT64_GUARD // (net.node_count * net.max_edge_cost) + 1
    scaled = Network(net.node_count, [
        Edge(e.src, e.dst, e.cost * k, e.delay * k) for e in net.edges])
    n = trees_mod.FRONTIER_MAX_ROUNDS + 5
    chain = Network(n, [Edge(i, i + 1, 1 + i % 4, 1 + i % 3)
                        for i in range(n - 1)])
    for graph, target, route in ((net, 0, ["frontier"]),
                                 (scaled, 0, ["heap"]),
                                 (chain, n - 1, ["frontier", "heap"])):
        tree_walks.clear()
        trees = build_reverse_trees(graph, target)
        for metric in order:
            calls.clear()
            assert getattr(trees, f"min_{metric}_to_target") == (
                bellman_ford_to_target(graph, target, metric))
            assert calls == (route if (metric, order[0]) != ("delay", "cost")
                             else [])
        assert tree_walks == (
            [(COST, DELAY)] if order[0] == "cost" else [(DELAY,), (COST,)])
        _assert_python_ints(trees)


@pytest.mark.parametrize("solver", ["pulse", "btbu1", "btbu2"])
def test_a_single_path_solve_makes_one_stacked_walk(tree_walks, solver):
    # every single-path solver reads cost first, through the search order
    # or the bound of its first probe: the pair in one walk, and nothing more
    task = DrcrTask(0, 3, 0, 15)
    records = run_suite(diamond(), [task], solver)
    assert records[0].outcome == "optimal" and records[0].ap_cost == 10
    assert tree_walks == [(COST, DELAY)]
    tree_walks.clear()
    trees = build_reverse_trees(diamond(), 3)
    order = build_search_order(diamond(), trees)
    assert pulse_optimal(diamond(), trees, task, order=order).total_cost == 10
    assert tree_walks == [(COST, DELAY)]


def _deep_graph(n: int, seed: int) -> Network:
    """An ER digraph at mean out-degree 1 (n edges between random distinct
    nodes, weights 1..100): near the critical degree, so some reverse trees
    are deep, with long paths whose labels keep falling."""
    rng = random.Random(seed)
    edges = []
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n - 1)
        edges.append(Edge(u, v + (v >= u), rng.randint(1, 100), rng.randint(1, 100)))
    return Network(n, edges)


def test_walk_handed_to_the_heap_at_any_round_is_exact(monkeypatch):
    # the walk to target 510 takes 39 rounds, more than FRONTIER_MAX_ROUNDS.
    # Cut after any of them, it hands over labels that are not all final
    # yet, and from every cut the heap must end at Bellman-Ford's distances
    net, target = _deep_graph(1000, seed=4), 510
    n = net.node_count
    cost = bellman_ford_to_target(net, target, "cost")
    delay = bellman_ford_to_target(net, target, "delay")
    rounds = 0
    while _pair_walk(net, target, rounds)[1].size:
        rounds += 1
    assert rounds == 39 > trees_mod.FRONTIER_MAX_ROUNDS
    unsettled = 0
    for cut in range(rounds + 1):
        monkeypatch.setattr(trees_mod, "FRONTIER_MAX_ROUNDS", cut)
        trees = build_reverse_trees(net, target)
        assert trees.min_cost_to_target == cost
        assert trees.min_delay_to_target == delay
        _assert_python_ints(trees)
        dist, _ = _pair_walk(net, target, cut)
        unsettled += sum(d != c for d, c in zip(dist[:n].tolist(), cost)
                         if c != inf)
    assert unsettled


def test_frontier_route_with_most_nodes_unreached():
    # at mean out-degree 1 every sampled target is reached from at most 225
    # of the 1000 nodes, so most labels are math.inf
    net = _deep_graph(1000, seed=4)
    for target in range(0, net.node_count, 37):
        trees = _frontier(net, target)
        cost = bellman_ford_to_target(net, target, "cost")
        assert trees.min_cost_to_target == cost
        assert trees.min_delay_to_target == bellman_ford_to_target(
            net, target, "delay")
        assert 2 * sum(c != inf for c in cost) < net.node_count
        _assert_python_ints(trees)
    # half the nodes reached, then fewer
    for n in (4, 5):
        trees = _frontier(Network(n, [Edge(1, 0, 2, 3)]), 0)
        assert trees.min_cost_to_target == [0, 2] + [inf] * (n - 2)
        assert trees.min_delay_to_target == [0, 3] + [inf] * (n - 2)
        _assert_python_ints(trees)


def test_labels_are_python_ints_and_inf_where_unreached():
    # none, one, half, three of four and all of the nodes unreached
    big, x = 2 ** 62 - 1, _UNREACHED
    for dist in ([0, 5, big, 7], [0, x, 3, big], [0, x, 2, x], [x, 4, x, x],
                 [x] * 3):
        labels = trees_mod._as_labels(np.array(dist, dtype=np.int64))
        assert len(labels) == len(dist)
        for d, label in zip(dist, labels):
            if d == _UNREACHED:
                assert label is inf
            else:
                assert type(label) is int and label == d


def test_concurrent_walks_on_one_network_match_bellman_ford():
    # two threads walk trees on one shared network, its arcs built by
    # whichever walks first: the round's buffers belong to each walk
    net = gen_graph(GenSpec("scale-free", 200, 2, seed=3))
    targets = range(0, net.node_count, 25)
    expected = {(t, metric): bellman_ford_to_target(net, t, metric)
                for t in targets for metric in ("cost", "delay")}

    def walk(job):
        target, order = job
        trees = _read(build_reverse_trees(net, target), order)
        return [((target, metric), getattr(trees, f"min_{metric}_to_target"))
                for metric in order]

    jobs = [(t, order) for _ in range(3) for t in targets for order in _ORDERS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(walk, jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        for key, tree in result:
            assert tree == expected[key]


def test_a_label_that_falls_twice_reenters_the_frontier():
    # cost: node 1 reaches the target 0 at 10 directly, then at 2 through
    # node 2, one round later; node 3, behind node 1, falls with it.
    # delay: every label is final when first set
    n = 4
    net = Network(n, [Edge(1, 0, 10, 1), Edge(2, 0, 1, 1), Edge(1, 2, 1, 1),
                      Edge(3, 1, 2, 1)])
    walks = [_pair_walk(net, 0, r) for r in range(5)]
    assert [f.tolist() for _, f in walks] == [
        [0, n], [1, 2, n + 1, n + 2], [1, 3, n + 3], [3], []]
    assert [d[:n].tolist() for d, _ in walks[1:]] == [
        [0, 10, 1, _UNREACHED], [0, 2, 1, 12], [0, 2, 1, 4], [0, 2, 1, 4]]
    assert walks[-1][0][n:].tolist() == [0, 1, 1, 2]
    trees = _frontier(net, 0)
    assert trees.min_cost_to_target == bellman_ford_to_target(net, 0, "cost")
    assert trees.min_delay_to_target == bellman_ford_to_target(net, 0, "delay")


def test_frontier_nodes_without_ingress_arcs():
    # the second round's frontier, nodes 1..3 in both halves, heads 2, 0
    # and 1 arcs; the third's, nodes 5..7, heads no arc at all and ends the
    # walk, as does a target without ingress arcs at once
    n = 8
    net = Network(n, [Edge(1, 0, 1, 2), Edge(2, 0, 3, 4), Edge(3, 0, 5, 6),
                      Edge(5, 1, 7, 8), Edge(6, 1, 9, 10), Edge(7, 3, 11, 12)])
    heads = [0, 0, 0, 1, 1, 3]
    assert trees_mod._arcs(net)[0].tolist() == heads + [n + h for h in heads]
    walks = [_pair_walk(net, 0, r) for r in range(4)]
    assert [f.tolist() for _, f in walks] == [
        [0, n], [1, 2, 3, n + 1, n + 2, n + 3], [5, 6, 7, n + 5, n + 6, n + 7], []]
    trees = _frontier(net, 0)
    assert trees.min_cost_to_target == [0, 1, 3, 5, inf, 8, 10, 16]
    assert trees.min_delay_to_target == [0, 2, 4, 6, inf, 10, 12, 18]
    assert trees.min_cost_to_target == bellman_ford_to_target(net, 0, "cost")
    dist, frontier = _pair_walk(net, 5, 1)
    assert frontier.size == 0
    assert _frontier(net, 5).min_cost_to_target == (
        [inf] * 5 + [0, inf, inf])


def test_frontier_route_builds_only_the_shared_arcs(monkeypatch):
    # the frontier route reads the arcs, never the heap's tuple rows, and
    # a with_srlgs copy shares the arcs whichever network builds them first
    net = Network(3, [Edge(1, 0, 3, 2), Edge(2, 1, 1, 1)])
    monkeypatch.setattr(trees_mod, "_rows", lambda net: pytest.fail(
        "the frontier route built the heap's rows"))
    copy = net.with_srlgs([{0}])
    trees = build_reverse_trees(copy, 0)
    assert trees.min_cost_to_target == build_reverse_trees(net, 0).min_cost_to_target
    assert trees_mod._arcs(net) is trees_mod._arcs(copy)
    assert trees_mod._arcs(net.with_srlgs([])) is trees_mod._arcs(net)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from((20, 10 ** 15)))
def test_property_rows_are_arcs_range_by_range(rng, top):
    # the stacked arcs, 2m of them, sorted by head: every edge once as a
    # cost arc at its head v and once, n nodes and m arcs up, as a delay arc
    # at v + n; within a head in edge order.  The heap's rows and the
    # frontier's arrays are one stacked graph: the row of stacked node h
    # holds exactly the tails and weights of the arcs whose head is h, in
    # arc order
    net = random_network(rng, max_cost=top, max_delay=top)
    head, tail, weight = (a.tolist() for a in trees_mod._arcs(net))
    n, m = net.node_count, len(net.edges)
    assert len(head) == len(tail) == len(weight) == 2 * m
    assert head == sorted(head)
    assert list(zip(tail[:m], head[:m], weight[:m], weight[m:])) == [
        tuple(e) for e in sorted(net.edges, key=lambda e: e.dst)]
    assert head[m:] == [v + n for v in head[:m]]
    assert tail[m:] == [u + n for u in tail[:m]]
    rows = trees_mod._rows(net)
    assert len(rows) == 2 * n
    for h, row in enumerate(rows):
        assert row == tuple((tail[a], weight[a])
                            for a in range(len(head)) if head[a] == h)
        assert all(type(u) is int and type(w) is int for u, w in row)


def test_stacked_layouts_built_once_and_shared_by_srlg_copies(monkeypatch):
    # each layout is built on its first use, memoised, and shared by every
    # with_srlgs copy, whichever network builds it; past the int64 guard
    # the arcs are None, memoised too.  Walks in every read order, and one
    # handed to the heap, leave the memoised arrays as they were built
    net = Network(3, [Edge(0, 1, 2, 5), Edge(0, 1, 3, 4), Edge(2, 1, 1, 1),
                      Edge(1, 2, 7, 7)])
    rows = trees_mod._rows(net)
    assert rows == ((), ((0, 2), (0, 3), (2, 1)), ((1, 7),),
                    (), ((3, 5), (3, 4), (5, 1)), ((4, 7),))
    copy = net.with_srlgs([{0, 3}])
    arcs = trees_mod._arcs(copy)
    built = [[1, 1, 1, 2, 4, 4, 4, 5], [0, 0, 2, 1, 3, 3, 5, 4],
             [2, 3, 1, 7, 5, 4, 1, 7]]
    assert [a.tolist() for a in arcs] == built
    for order in (("delay",), ("cost",), ("delay", "cost")):
        for target in range(net.node_count):
            _read(build_reverse_trees(net, target), order)
    calls = _routes(monkeypatch)
    monkeypatch.setattr(trees_mod, "FRONTIER_MAX_ROUNDS", 1)
    _read(build_reverse_trees(copy, 1))
    assert calls == ["frontier", "heap"]
    assert [a.tolist() for a in arcs] == built
    _read(build_reverse_trees(copy, 2))
    assert trees_mod._rows(net) is trees_mod._rows(copy) is rows
    assert trees_mod._arcs(net) is trees_mod._arcs(copy) is arcs
    assert copy.srlg_groups == (frozenset({0, 3}),)
    huge = Network(2, [Edge(0, 1, 2 ** 61, 1)])
    assert trees_mod._arcs(huge) is None
    assert huge.with_srlgs([])._memo == {"arcs": None}


def test_many_nodes_tied_at_one_distance():
    # 300 nodes reach the target at cost 5; 300 more reach it at cost 8
    # both through them and by a direct edge: two crowded distances, and a
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
    """Stacked rows that count how often each stacked node's row is read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = [0] * len(rows)

    def __getitem__(self, v):
        self.reads[v] += 1
        return super().__getitem__(v)


def test_stale_bucket_entry_is_skipped():
    # the costly parallel edge 1->2 queues cost node 1 at 9 first; the
    # cheap one queues it again at 1, and the entry at 9 must not expand it.
    # The delay nodes share the queue, the first delay arc already cheapest
    net = Network(4, [Edge(1, 2, 9, 1), Edge(1, 2, 1, 9), Edge(0, 1, 1, 1),
                      Edge(3, 2, 20, 20)])
    rows = _CountingRows(trees_mod._rows(net))
    dist = _heap(rows, 2)
    assert dist == [2, 1, 0, 20] * 2
    assert rows.reads == [1] * 8
    assert dist[:4] == bellman_ford_to_target(net, 2, "cost")
    assert build_reverse_trees(net, 2).min_delay_to_target == [2, 1, 0, 20]


def test_network_without_edges():
    trees = build_reverse_trees(Network(2, []), 1)
    assert trees.min_cost_to_target == trees.min_delay_to_target == [inf, 0]


def test_cache_builds_once_per_target():
    net = Network(3, [Edge(0, 1, 1, 1), Edge(1, 2, 1, 1)])
    cache = TreeCache(net)
    first = cache.get(2)
    assert cache.get(2) is first
    assert cache.get(1) is not first
