"""Reverse shortest-path trees: per-node cost and delay lower bounds.

Both prunings of the pulse search need, for every node u, the minimum cost
and the minimum delay of any path from u to the task target: two
single-criterion shortest-path trees on the reversed edge orientation.  The
trees depend on the target and are built afresh on every call, so a task's
preprocessing covers all of its target-dependent work; their inputs depend
on the edges alone and are built once per network.  Unreachable nodes carry
math.inf, and every finite distance is a Python int.

Two routes compute the same trees, chosen from the data with no option to
set.  Let n be the node count, m the edge count and W the largest edge
weight of either metric.

* The frontier route: both trees in one vectorised relaxation (Bellman, "On
  a routing problem", 1958, run as a frontier walk) over
  ``Network.reverse_arcs``, a stacked graph of 2n nodes whose nodes
  0..n-1 carry cost and n..2n-1 carry delay.  Each round relaxes the arcs
  whose head fell in the last round, keeps the arcs that improve a label
  and takes per-node minima over them with ``np.minimum.at``, and makes
  the nodes whose label fell the next frontier; the walk ends when a round
  finds no arc to relax.  A label is always the length of a simple path,
  so it stays below n * W; the route runs only while n * W < 2**62, so
  int64 sums and their sentinel cannot overflow.
* The heap route: one Dijkstra per metric over ``Network.reverse_adjacency``,
  whose queue is a dict from distance to the nodes reached at it and a heap
  of the distinct distances, so many nodes at one distance cost one heap
  operation.  Costs and delays are positive integers, so a bucket is never
  extended while it is drained; an entry whose node has since moved to a
  smaller distance is stale and skipped.  Python ints keep it exact at any
  magnitude.

The frontier route runs when n + m is at least FRONTIER_MIN_SIZE: below
it numpy's fixed cost per call loses to the heap (on generated ER and
scale-free graphs the two tie between n + m of 350 and 450).  Its round
count follows the hop depth of the trees, the last round finding nothing
to relax.  Generated graphs of up to 5000 nodes need at most 33 rounds
from a mean out-degree of 2 up, and ER graphs at mean out-degree 1 up to
62; a 1000-node chain needs 1000, at about 18 us a round against about
1.6 ms for the heap's whole pair.  So a walk not done after
FRONTIER_MAX_ROUNDS rounds is dropped and the heap restarts from the
target; the 1000-node chain then takes 1.8 times the heap alone.  Dial's
bucket ring, once a third route, was 3-15% faster than the frontier route
on dense graphs of 60 to 100 nodes and lost to it from 200 nodes up
(``BENCH_14.json``), too little to keep a third route for.

Trees computed on the full network stay valid lower bounds on any
edge-excluded view of it (removing edges can only increase true distances),
so protection-path searches reuse them unchanged.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf

import numpy as np

from .network import Network

# n + m from which the frontier route runs (measured crossover)
FRONTIER_MIN_SIZE = 400
# rounds after which a frontier walk gives way to the heap: past every
# generated graph from mean out-degree 2 up, and 48 rounds cost a 1000-node
# chain less than the heap's own time (measured)
FRONTIER_MAX_ROUNDS = 48
# the frontier route runs while n * W is below this
_INT64_GUARD = 2 ** 62
_UNREACHED = np.iinfo(np.int64).max

# positions of the weights in a reverse_adjacency triple (src, cost, delay)
_COST = 1
_DELAY = 2


class ReverseTrees:
    """Minimum cost-to-target and delay-to-target for every node."""

    __slots__ = ("min_cost_to_target", "min_delay_to_target")

    def __init__(self, min_cost_to_target: list[float],
                 min_delay_to_target: list[float]):
        self.min_cost_to_target = min_cost_to_target
        self.min_delay_to_target = min_delay_to_target


def _frontier_trees(arcs: tuple[np.ndarray, np.ndarray, np.ndarray], n: int,
                    target: int) -> ReverseTrees | None:
    """Both trees by the frontier route over the stacked ``arcs``, or None
    if the walk is not done after FRONTIER_MAX_ROUNDS rounds."""
    head, tail, weight = arcs
    dist = np.full(2 * n, _UNREACHED, dtype=np.int64)
    dist[target] = dist[n + target] = 0
    frontier = dist == 0
    for _ in range(FRONTIER_MAX_ROUNDS):
        live = np.flatnonzero(frontier[head])
        if not live.size:
            cost, delay = dist[:n].tolist(), dist[n:].tolist()
            # both metrics share the edges, so they share the unreached nodes
            for v in np.flatnonzero(dist[:n] == _UNREACHED).tolist():
                cost[v] = delay[v] = inf
            return ReverseTrees(cost, delay)
        # in place, so that a round holds fewer arc-sized temporaries
        tails = tail[live]
        relaxed = dist[head[live]]
        relaxed += weight[live]
        better = relaxed < dist[tails]
        tails = tails[better]
        np.minimum.at(dist, tails, relaxed[better])
        frontier = np.zeros(2 * n, dtype=bool)
        frontier[tails] = True
    return None


def _heap_tree(rev: tuple[tuple[tuple[int, int, int], ...], ...],
               target: int, weight: int) -> list[float]:
    """Distances to ``target``; ``weight`` indexes the (src, cost, delay)
    triples.  ``level`` maps each queued distance to the nodes reached at
    it, and ``keys`` is a heap of those distances."""
    dist: list[float] = [inf] * len(rev)
    dist[target] = 0
    level = {0: [target]}
    keys = [0]
    while keys:
        d = heappop(keys)
        for v in level.pop(d):
            if dist[v] != d:
                continue
            for arc in rev[v]:
                nd = d + arc[weight]
                u = arc[0]
                if nd < dist[u]:
                    dist[u] = nd
                    bucket = level.get(nd)
                    if bucket is None:
                        level[nd] = [u]
                        heappush(keys, nd)
                    else:
                        bucket.append(u)
    return dist


def build_reverse_trees(net: Network, target: int) -> ReverseTrees:
    """Exact shortest distances to ``target``, for cost and delay separately."""
    n = net.node_count
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range")
    top = max(net.max_edge_cost or 0, net.max_edge_delay or 0)
    if n + len(net.edges) >= FRONTIER_MIN_SIZE and n * top < _INT64_GUARD:
        trees = _frontier_trees(net.reverse_arcs, n, target)
        if trees is not None:
            return trees
    rev = net.reverse_adjacency
    return ReverseTrees(_heap_tree(rev, target, _COST),
                        _heap_tree(rev, target, _DELAY))


class TreeCache:
    """Per-network cache of reverse trees keyed by target node.

    Several tasks on one network often share a target: the task generator
    and filter, and the CLI solve commands, build each target's trees once
    through it.  Every solver takes its trees once per task, so the cache
    saves work only across tasks.  Benchmark timing deliberately bypasses
    it so every task pays its own preprocessing.
    """

    def __init__(self, net: Network):
        self.net = net
        self._by_target: dict[int, ReverseTrees] = {}

    def get(self, target: int) -> ReverseTrees:
        trees = self._by_target.get(target)
        if trees is None:
            trees = build_reverse_trees(self.net, target)
            self._by_target[target] = trees
        return trees
