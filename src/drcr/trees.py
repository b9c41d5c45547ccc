"""Reverse shortest-path trees: per-node cost and delay lower bounds.

Both prunings of the pulse search need, for every node u, the minimum cost
and the minimum delay of any path from u to the task target.  These are two
independent single-criterion Dijkstra runs on the reversed edge orientation,
both reading the network's ``reverse_adjacency``: per node, one
``(src, cost, delay)`` triple per ingress edge.  That layout depends on the
edges alone and is built once per network; the trees depend on the target
and are built afresh on every call, so a task's preprocessing covers all of
its target-dependent work.  Unreachable nodes carry math.inf.

Each run keeps its queue as distance buckets (Dial, "Algorithm 360:
shortest-path forest with topological ordering", CACM 1969).  Costs and
delays are validated positive integers, so every arc adds at least 1, a
bucket is never extended while it is drained, and a node still at the
drained distance is settled; an entry whose node has since moved to a
smaller distance is stale and skipped.  The queue is chosen from the data,
with no option to set.  Let W be the metric's largest edge weight and
L = n + m the size of the network:

* Dial's ring of W + 1 buckets, while 4 * (W + 1) <= L.  A node reached at
  distance nd goes into bucket ``nd % (W + 1)``; every queued distance lies
  within W of the cursor, so no two live distances share a bucket.  The
  cursor walks the distances one by one until the ring is empty, so a run
  costs O(m + D), D being the largest finite distance, with no heap and no
  dict.  D can reach (n - 1) * W on a long path, so a walk that passes
  distance L with entries left hands its live entries to the heap.
* Otherwise, and after such a hand-off: a dict from distance to bucket and
  a heap of the distinct distances, so many nodes at one distance cost one
  heap operation and the cost does not grow with W or D.

The ring's allocation and its walk are thus each O(L) beyond the heap's
work.  On 1000-node generated ER and scale-free graphs D is 2.4 to 3.3
times W at every W from 100 to 4096, so while W + 1 is at most a quarter
of L the ring runs whole, and it was the faster queue there in most
measurements, by up to a fifth; past that point the walk would hand off
and lose to the heap alone.  A long path hands off whatever W is.

Python ints keep the sums exact at any magnitude on both paths; weights
near and above 2**63 take the heap.

Trees computed on the full network stay valid lower bounds on any
edge-excluded view of it (removing edges can only increase true distances),
so protection-path searches reuse them unchanged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf

from .network import Network

# the ring runs while RING_SHARE times its W + 1 buckets is at most n + m
RING_SHARE = 4

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


def _reverse_dijkstra(rev: tuple[tuple[tuple[int, int, int], ...], ...],
                      target: int, weight: int, max_weight: int | None,
                      limit: int) -> list[float]:
    """Distances to ``target``; ``weight`` indexes the (src, cost, delay) triples.

    ``max_weight`` is the metric's largest edge weight (None without edges)
    and ``limit`` is n + m: the ring needs RING_SHARE * (max_weight + 1) <=
    limit, and hands off to the heap once it walks past distance limit.
    """
    dist: list[float] = [inf] * len(rev)
    dist[target] = 0
    size = (max_weight or 0) + 1
    if RING_SHARE * size > limit:
        return _heap_queue(rev, weight, dist, {0: [target]})
    ring: list[list[int]] = [[] for _ in range(size)]
    ring[0].append(target)
    queued = 1  # entries in the ring, stale ones included
    d = 0
    while queued:
        bucket = ring[d % size]
        if bucket:
            queued -= len(bucket)
            for v in bucket:
                if dist[v] != d:
                    continue
                for arc in rev[v]:
                    nd = d + arc[weight]
                    u = arc[0]
                    if nd < dist[u]:
                        dist[u] = nd
                        ring[nd % size].append(u)
                        queued += 1
            bucket.clear()
        elif d > limit:
            # distances too sparse for the ring: hand its live entries to
            # the heap.  An entry queued at x lies in slot x % size, and its
            # node's distance has since fallen by less than size if at all,
            # so the entry is live exactly when that distance is still in
            # its slot
            level: dict[int, list[int]] = {}
            for slot, entries in enumerate(ring):
                for u in entries:
                    du = dist[u]
                    if du % size == slot:
                        level.setdefault(du, []).append(u)
            return _heap_queue(rev, weight, dist, level)
        d += 1
    return dist


def _heap_queue(rev: tuple[tuple[tuple[int, int, int], ...], ...],
                weight: int, dist: list[float],
                level: dict[int, list[int]]) -> list[float]:
    """The heap queue, for wide weights and for a ring's hand-off: ``level``
    maps each queued distance to the nodes reached at it, and ``keys`` is a
    heap of those distances."""
    keys = list(level)
    heapify(keys)
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
    limit = net.node_count + len(net.edges)
    return ReverseTrees(
        _reverse_dijkstra(rev, target, _COST, net.max_edge_cost, limit),
        _reverse_dijkstra(rev, target, _DELAY, net.max_edge_delay, limit))


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
