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
  0..n-1 carry cost and n..2n-1 carry delay, its arcs grouped by head.
  The frontier is the sorted array of the nodes whose label fell in the
  last round, at first the target in both halves.  A round lays the
  frontier's arc ranges end to end (``np.repeat`` of their first arcs over
  their counts, plus ``np.arange``), relaxes every gathered arc with
  ``np.minimum.at`` and takes the nodes whose label fell as the next
  frontier, so its work follows the frontier's own arcs and not all 2m.
  The walk ends when a round finds no arc to relax.  A label is always
  the length of a simple path, so it stays below n * W; the route runs
  only while n * W < 2**62, so int64 sums and their sentinel cannot
  overflow.
* The heap route: Dijkstra over ``Network.reverse_adjacency``, the same
  stacked graph in Python tuples, both trees in one queue: a dict from
  distance to the nodes reached at it and a heap of the distinct
  distances, so many nodes at one distance cost one heap operation.  Costs
  and delays are positive integers, so a bucket is never extended while it
  is drained; an entry whose node has since moved to a smaller distance is
  stale and skipped.  Python ints keep it exact at any magnitude.

The heap starts from the target's two stacked nodes at 0, or goes on from
a frontier walk not done after FRONTIER_MAX_ROUNDS rounds, with the walk's
labels and its last frontier as its queue: only the arcs leaving the
frontier can still break the triangle inequality, and a node is queued
again on every fall of its label, so the trees stay exact (the generic
label-correcting method).  The trees are the two halves of the labels.

Both constants were measured per tree pair on a shared 2-core VM (CPython
3.11.7, numpy 2.4.6).  The frontier route runs when n + m is at least
FRONTIER_MIN_SIZE: below it numpy's fixed cost per call loses to the heap.
Frontier time over heap time on generated graphs (median over 12 targets,
best of 7 interleaved passes):

    graph        n + m: frontier / heap                 crossover
    ER k=2       735: 1.08   913: 0.97    1220: 0.83     about 850
    ER k=3       639: 1.03   795: 0.93    1192: 0.71     about 700
    ER k=5       742: 1.01   976: 0.91    1226: 0.78     about 750
    ER k=7       637: 1.23   782: 0.99    1297: 0.75     about 780
    SF m=1       298: 1.42   388: 1.00     598: 0.80     about 400
    SF m=2       392: 1.21   492: 0.99     992: 0.91     500 to 800
    SF m=4       508: 1.04   688: 0.95    1138: 0.81     about 600

A walk's round count follows the hop depth of the trees.  Generated
graphs of 5000 nodes need up to 28 rounds at ER mean out-degree 2 and up
to 19 on scale-free m=1; at 20 000 nodes up to 35 and 23.  A 1000-node
chain needs 1000, at about 12 us a round against 0.67 ms for the heap's
whole pair.  Milliseconds per pair by FRONTIER_MAX_ROUNDS (10 spread
targets, the chain rooted at its end; best of 15 interleaved passes, 7 at
20 000 nodes):

    graph           heap    16      24      32      48
    chain-1000      0.67    0.95    1.04    1.14    1.33
    ER-5000 k=2     2.99    1.76    1.39    1.38    1.40
    ER-20000 k=2    23.0    15.7    6.90    6.20    6.11
    SF-20000 m=1    24.2    4.02    3.99    3.99    3.88

32 rounds is within 2% of the best on each generated graph and saves the
chain 14% against 48; the chain still takes 1.7 times the heap alone.
Dial's bucket ring, once a third route, was 3-15% faster than the frontier
route on dense graphs of 60 to 100 nodes and lost to it from 200 nodes up
(``BENCH_14.json``), too little to keep a third route for.

Trees computed on the full network stay valid lower bounds on any
edge-excluded view of it (removing edges can only increase true distances),
so protection-path searches reuse them unchanged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf

import numpy as np

from .network import IntegrityError, Network

# n + m from which the frontier route runs (measured crossover)
FRONTIER_MIN_SIZE = 700
# rounds after which a frontier walk hands over to the heap (measured)
FRONTIER_MAX_ROUNDS = 32
# the frontier route runs while n * W is below this
_INT64_GUARD = 2 ** 62
_UNREACHED = np.iinfo(np.int64).max


class ReverseTrees:
    """Minimum cost-to-target and delay-to-target for every node."""

    __slots__ = ("min_cost_to_target", "min_delay_to_target")

    def __init__(self, min_cost_to_target: list[float],
                 min_delay_to_target: list[float]):
        self.min_cost_to_target = min_cost_to_target
        self.min_delay_to_target = min_delay_to_target


def _frontier_walk(arcs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                   n: int, target: int, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked labels after at most ``rounds`` frontier rounds over
    ``arcs`` from ``target``, and the frontier left: the sorted nodes whose
    label fell in the last round, empty once a round finds no arc to relax."""
    first, count, tail, weight = arcs
    dist = np.full(2 * n, _UNREACHED, dtype=np.int64)
    dist[target] = dist[n + target] = 0
    frontier = np.array([target, n + target])
    for _ in range(rounds):
        counts = count[frontier]
        ends = np.cumsum(counts)
        if not ends.size or not ends[-1]:
            return dist, frontier[:0]
        # the frontier's arc ranges laid end to end: gathered arc i of node
        # j is arc first[j] + i - (ends[j] - counts[j])
        arc = np.repeat(first[frontier] - ends + counts, counts)
        arc += np.arange(ends[-1])
        relaxed = np.repeat(dist[frontier], counts)
        relaxed += weight[arc]
        before = dist.copy()
        np.minimum.at(dist, tail[arc], relaxed)
        frontier = np.flatnonzero(dist < before)
    return dist, frontier


def _heap_walk(rev: tuple[tuple[tuple[int, int], ...], ...],
               labels: list[float], start: list[int]) -> None:
    """Exact stacked distances to the target over the rows ``rev``, in
    place in ``labels``, from those labels and the queued nodes ``start``.

    Every arc that leaves a node outside ``start`` must already hold (the
    label of its tail is at most the label of its head plus its weight).
    A node is queued again on every fall of its label, so the result is
    exact.  ``level`` maps each queued distance to the nodes reached at
    it, and ``keys`` is a heap of those distances."""
    level: dict[float, list[int]] = {}
    for v in start:
        level.setdefault(labels[v], []).append(v)
    keys = list(level)
    heapify(keys)
    while keys:
        d = heappop(keys)
        for v in level.pop(d):
            if labels[v] != d:
                continue
            for u, w in rev[v]:
                nd = d + w
                if nd < labels[u]:
                    labels[u] = nd
                    bucket = level.get(nd)
                    if bucket is None:
                        level[nd] = [u]
                        heappush(keys, nd)
                    else:
                        bucket.append(u)


def build_reverse_trees(net: Network, target: int) -> ReverseTrees:
    """Exact shortest distances to ``target``, for cost and delay separately;
    IntegrityError when ``target`` is not a node of ``net``."""
    n = net.node_count
    if not 0 <= target < n:
        raise IntegrityError(f"target {target} is not a node of the "
                             f"{n}-node network")
    top = max(net.max_edge_cost or 0, net.max_edge_delay or 0)
    if n + len(net.edges) >= FRONTIER_MIN_SIZE and n * top < _INT64_GUARD:
        dist, frontier = _frontier_walk(net.reverse_arcs, n, target,
                                        FRONTIER_MAX_ROUNDS)
        labels = dist.tolist()
        # a node's label turns finite in the round of its hop count to the
        # target, in both halves, so the halves share the unreached nodes
        for v in np.flatnonzero(dist[:n] == _UNREACHED).tolist():
            labels[v] = labels[n + v] = inf
        start = frontier.tolist()
    else:
        labels = [inf] * (2 * n)
        labels[target] = labels[n + target] = 0
        start = [target, n + target]
    if start:
        _heap_walk(net.reverse_adjacency, labels, start)
    return ReverseTrees(labels[:n], labels[n:])


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
