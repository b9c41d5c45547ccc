"""Reverse shortest-path trees: per-node cost and delay lower bounds.

Both prunings of the pulse search need, for every node u, the minimum cost
and the minimum delay of any path from u to the task target.  These are two
independent single-criterion Dijkstra runs on the reversed edge orientation,
both reading the network's ``reverse_adjacency``.  That adjacency depends on
the edges alone and is built once per network; the trees depend on the
target and are built afresh on every call, so a task's preprocessing covers
all of its target-dependent work.  Unreachable nodes carry math.inf.

Each run keeps its queue as distance buckets (Dial, "Algorithm 360:
shortest-path forest with topological ordering", CACM 1969): the nodes
reached at one distance share a list, and a heap holds only the distinct
distances, so many nodes at one distance cost one heap operation.  Costs
and delays are validated positive integers, so every arc adds at least 1,
a bucket is never extended while it is drained, and the popped distance is
final for every node still at it.  Python ints keep the sums exact at any
magnitude.

Trees computed on the full network stay valid lower bounds on any
edge-excluded view of it (removing edges can only increase true distances),
so protection-path searches reuse them unchanged.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf

from .network import Network

# positions of the weights in a reverse_adjacency triple (src, cost, delay)
_COST = 1
_DELAY = 2


class ReverseTrees:
    """Minimum cost-to-target and delay-to-target for every node."""

    __slots__ = ("target", "min_cost_to_target", "min_delay_to_target")

    def __init__(self, target: int, min_cost_to_target: list[float],
                 min_delay_to_target: list[float]):
        self.target = target
        self.min_cost_to_target = min_cost_to_target
        self.min_delay_to_target = min_delay_to_target


def _reverse_dijkstra(node_count: int,
                      rev: tuple[tuple[tuple[int, int, int], ...], ...],
                      target: int, weight: int) -> list[float]:
    """Distances to ``target``; ``weight`` indexes the (src, cost, delay) triples.

    ``level`` maps a distance to the nodes reached at it and ``keys`` is a
    heap of the distinct distances.  A node whose ``dist`` fell below the
    bucket's distance was settled from an earlier bucket and is skipped.
    """
    dist: list[float] = [inf] * node_count
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
    if not 0 <= target < net.node_count:
        raise ValueError(f"target {target} out of range")
    rev = net.reverse_adjacency
    return ReverseTrees(target,
                        _reverse_dijkstra(net.node_count, rev, target, _COST),
                        _reverse_dijkstra(net.node_count, rev, target, _DELAY))


class TreeCache:
    """Per-network cache of reverse trees keyed by target node.

    Several tasks on one network usually share targets, and the corridor
    search re-enters the pulse engine many times with the same target; the
    cache makes the preprocessing a one-off per target.  Benchmark timing
    deliberately bypasses it so every task pays its own preprocessing.
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
