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
  ``Network.reverse_arcs``, the heads, tails and weights of the arcs of a
  stacked graph of 2n nodes whose nodes 0..n-1 carry cost and n..2n-1
  carry delay.  The frontier is the mask of the nodes whose label fell in
  the last round, at first the target in both halves.  A round selects
  the arcs whose head is in the mask with one gather of the mask over the
  2m heads, relaxes every selected arc with ``np.minimum.at`` and takes
  the mask of the labels that fell as the next frontier: ten numpy calls,
  whose only work over all 2m arcs is that gather and its scan.  The walk
  ends when a round finds no arc to relax.  A label is always
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
Frontier time over heap time on generated graphs (median over 12 targets on
each of three graphs, best of 7 interleaved passes):

    graph        n + m: frontier / heap                 crossover
    ER k=2       388: 1.12   509: 0.83     601: 0.75    about 450
    ER k=3       286: 1.01   400: 0.91     528: 0.80    about 300
    ER k=5       197: 1.27   324: 1.00     399: 0.93    about 320
    ER k=7       321: 1.18   423: 0.96     510: 0.92    about 410
    SF m=1       298: 0.70   448: 0.62     598: 0.55    below 300
    SF m=2       327: 0.89   492: 0.78     657: 0.71    below 330
    SF m=4       328: 1.02   508: 0.91     688: 0.86    about 340

A walk's round count follows the hop depth of the trees.  Generated
graphs of 5000 nodes need up to 28 rounds at ER mean out-degree 2 and up
to 19 on scale-free m=1; at 20 000 nodes up to 35 and 23.  A 1000-node
chain needs 1000, each about a ninetieth of the heap's whole pair (21 us
against 1.9 ms).  Milliseconds per pair by FRONTIER_MAX_ROUNDS (10 spread
targets, the chain rooted at its end; best of 15 interleaved passes, 7 at
20 000 nodes):

    graph           heap    16      24      32      48
    chain-1000      0.91    1.12    1.20    1.42    2.75
    ER-5000 k=2     9.96    5.22    2.99    3.01    2.99
    ER-20000 k=2    47.9    36.3    13.0    13.3    13.6
    SF-20000 m=1    66.0    11.5    12.4    12.4    12.6

32 rounds is within 2% of the best from 24 to 48 on each generated graph
(16 takes 7% off SF-20000 m=1 but 2.7 times as long on ER-20000 k=2) and
saves the chain 48% against 48; the chain takes 1.6 times the heap alone.
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
FRONTIER_MIN_SIZE = 450
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


def _frontier_walk(arcs: tuple[np.ndarray, np.ndarray, np.ndarray],
                   n: int, target: int, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked labels after at most ``rounds`` frontier rounds over
    ``arcs`` from ``target``, and the frontier left: the sorted nodes whose
    label fell in the last round, empty once a round finds no arc to relax."""
    head, tail, weight = arcs
    dist = np.full(2 * n, _UNREACHED, dtype=np.int64)
    dist[target] = dist[n + target] = 0
    fell = dist == 0
    for _ in range(rounds):
        arc = np.flatnonzero(fell.take(head))
        if not arc.size:
            return dist, arc
        relaxed = dist.take(head.take(arc)) + weight.take(arc)
        before = dist.copy()
        np.minimum.at(dist, tail.take(arc), relaxed)
        fell = dist < before
    return dist, np.flatnonzero(fell)


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
        # the halves share the unreached nodes (a label turns finite in the
        # round of its hop count); the list is filled from the smaller side
        unreached = np.flatnonzero(dist[:n] == _UNREACHED)
        if 2 * unreached.size <= n:
            labels = dist.tolist()
            for v in unreached.tolist():
                labels[v] = labels[n + v] = inf
        else:
            labels = [inf] * (2 * n)
            reached = np.flatnonzero(dist != _UNREACHED)
            for v, d in zip(reached.tolist(), dist.take(reached).tolist()):
                labels[v] = d
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
