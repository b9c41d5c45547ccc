"""Reverse shortest-path trees: per-node cost and delay lower bounds.

Both prunings of the pulse search need, for every node u, the minimum cost
and the minimum delay of any path from u to the task target: two
single-criterion shortest-path trees on the reversed edge orientation.  The
trees depend on the target and are built afresh for every task, so a
task's preprocessing covers all of its target-dependent work; their inputs
depend on the edges alone and are built once per network.  Unreachable
nodes carry math.inf, and every finite distance is a Python int.

``build_reverse_trees`` checks the target and walks nothing: each tree is
walked on its first read, so a task pays only for the trees it reads.

* Reading the delay tree first walks the delay half alone.  The SRLG-cut
  test reads only the delay tree (the delay-bounded trap test of
  ``drcr.btcs``), so a cut verdict builds no cost tree.
* Any other first read walks every tree still missing in one walk.  Read
  first, the cost tree walks both trees together, as the single-path
  solvers and the search order do; read after the delay tree, it walks the
  cost half alone, as stage 1 of the corridor solver does.

Every walk goes through ``build_halves``, which ``ReverseTrees`` looks up
on this module at call time, so a wrapper set there sees every walk.  A
delay half alone takes 0.54-0.73 and a cost half alone 0.60-0.68 of the
pair's time (SF-200 m=4, SF-500 m=2, SF-1000 m=2, ER-1000 k=7 at weights
1..100, ``BENCH_30.json``), since the pair shares every numpy call of a
round; a task that reads delay and then cost pays 1.15-1.42 pairs.

Two routes compute the same trees, chosen from the weights with no option
to set.  Let n be the node count, m the edge count and W the largest edge
weight of either metric.  Both walk one stacked reverse graph of 2n nodes:
an edge from u to v is a cost arc from v to u and a delay arc from n + v
to n + u, so nodes 0..n-1 carry cost, n..2n-1 delay, and the metrics never
meet.  It depends on the edges alone, so its two layouts are built at most
once per network, on first use, into the network's ``_memo``, which
``with_srlgs`` copies share: ``_arcs``, three int64 arrays ``(head,
tail, weight)`` sorted by head and within a head in edge order (the first
m arcs the cost tree's, the last m the delay tree's), and
``_rows``, the same arcs per head as ``(tail, weight)`` pairs in Python
ints.

* The frontier route, whenever n * W < 2**62, whatever the graph's size:
  one vectorised relaxation (Bellman, "On a routing problem", 1958, run as
  a frontier walk) over ``_arcs``: all 2m arcs for both trees, the first m
  for the cost tree alone and the last m for the delay tree alone.  The
  frontier is the mask of the nodes whose label fell in the last round, at
  first the target in each half walked.  A round selects the arcs whose
  head is in the mask with one gather of the mask over the walk's heads,
  relaxes every selected arc with ``np.minimum.at`` and takes the mask of
  the labels that fell as the next frontier: ten numpy calls, whose only
  work over all the walk's arcs is that gather and its scan.  None goes
  through a Python wrapper (``nonzero`` in place of ``np.flatnonzero``),
  and none allocates the labels' copy or the mask: the walk allocates them
  once and each round refills them in place.  The arcs stay writeable,
  as ``ndarray.take`` copies a read-only index array on every call, and
  no walk writes them.  The walk ends when a round finds no arc to relax.
  A label is always the length of a simple path, so it stays below n * W,
  and int64 sums and their sentinel cannot overflow.
* The heap route, for n * W at or past 2**62, where ``_arcs`` is None: a
  lazy-deletion Dijkstra over ``_rows``, every half walked in one heap of
  ``(label, node)`` pairs that skips an entry whose label has since
  fallen.  Python ints keep it exact at any magnitude.

The heap starts from the target's stacked node in each half walked, at 0,
or goes on from a frontier walk not done after FRONTIER_MAX_ROUNDS rounds,
with the walk's labels and its last frontier as its queue: only the arcs
leaving the frontier can still break the triangle inequality, and a node
is queued again on every fall of its label, so the trees stay exact (the
generic label-correcting method).  The trees are the halves of the labels.

No graph size chooses the route: numpy's fixed cost per call makes the
frontier route up to some 70 us a pair slower than the heap below n + m of
about 340 (shared 2-core VM, CPython 3.11.7, numpy 2.4.6), and no
benchmark workload is that small (``BENCH_14.json``, ``BENCH_24.json``).
FRONTIER_MAX_ROUNDS = 32 is within 2% of the best round count on generated
graphs of 5000 and 20 000 nodes (up to 35 rounds) and holds a 1000-node
chain, which needs 1000 rounds, to 1.6 times the heap's time
(``BENCH_24.json``).

Trees computed on the full network stay valid lower bounds on any
edge-excluded view of it (removing edges can only increase true distances),
so protection-path searches reuse them unchanged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf

import numpy as np

from .network import IntegrityError, Network

# rounds after which a frontier walk hands over to the heap (measured)
FRONTIER_MAX_ROUNDS = 32
# the frontier route runs while n * W is below this
_INT64_GUARD = 2 ** 62
_UNREACHED = np.iinfo(np.int64).max
# the halves of the stacked graph: stacked node h * n + v is node v of half h
COST, DELAY = 0, 1


class ReverseTrees:
    """Minimum cost-to-target and delay-to-target for every node, each half
    walked on its first read.

    Reading ``min_delay_to_target`` first walks the delay half alone.  Any
    other first read walks every half still missing in one walk: cost read
    first walks the stacked pair, cost read after delay the cost half alone.
    Each walk goes through the module's ``build_halves``, looked up at call
    time.  Both reads then return the same list every time.
    """

    __slots__ = ("_net", "_target", "_cost", "_delay")

    def __init__(self, net: Network, target: int):
        self._net = net
        self._target = target
        self._cost: list[float] | None = None
        self._delay: list[float] | None = None

    @property
    def min_cost_to_target(self) -> list[float]:
        cost = self._cost
        if cost is None:
            if self._delay is None:
                cost, self._delay = build_halves(self._net, self._target,
                                                 (COST, DELAY))
            else:
                cost, = build_halves(self._net, self._target, (COST,))
            self._cost = cost
        return cost

    @property
    def min_delay_to_target(self) -> list[float]:
        delay = self._delay
        if delay is None:  # then cost is unbuilt too: cost builds the pair
            delay, = build_halves(self._net, self._target, (DELAY,))
            self._delay = delay
        return delay


def _frontier_walk(arcs: tuple[np.ndarray, np.ndarray, np.ndarray],
                   n: int, seeds: list[int], rounds: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The 2n stacked labels after at most ``rounds`` frontier rounds over
    ``arcs`` from the stacked nodes ``seeds`` at 0, and the frontier left:
    the sorted nodes whose label fell in the last round, empty once a round
    finds no arc to relax."""
    head, tail, weight = arcs
    dist = np.full(2 * n, _UNREACHED, dtype=np.int64)
    dist[seeds] = 0
    fell = dist == 0
    before = np.empty_like(dist)
    for _ in range(rounds):
        arc = fell.take(head).nonzero()[0]
        if not arc.size:
            return dist, arc
        relaxed = dist.take(head.take(arc)) + weight.take(arc)
        np.copyto(before, dist)
        np.minimum.at(dist, tail.take(arc), relaxed)
        np.less(dist, before, out=fell)
    return dist, fell.nonzero()[0]


def _heap_walk(rev: tuple[tuple[tuple[int, int], ...], ...],
               labels: list[float], start: list[int]) -> None:
    """Exact stacked distances to the target over the rows ``rev``, in
    place in ``labels``, from those labels and the queued nodes ``start``.

    Every arc that leaves a node outside ``start`` must already hold (the
    label of its tail is at most the label of its head plus its weight).
    A node is queued again on every fall of its label, and an entry whose
    label has since fallen is skipped, so the result is exact."""
    heap = [(labels[v], v) for v in start]
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        if d != labels[v]:
            continue
        for u, w in rev[v]:
            nd = d + w
            if nd < labels[u]:
                labels[u] = nd
                heappush(heap, (nd, u))


def _as_labels(dist: np.ndarray) -> list[float]:
    """``dist`` as a list of Python ints, math.inf where unreached."""
    labels = dist.tolist()
    for v in (dist == _UNREACHED).nonzero()[0].tolist():
        labels[v] = inf
    return labels


def _arcs(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The stacked arcs of ``net`` as int64 arrays ``(head, tail, weight)``,
    or None once n * W reaches ``_INT64_GUARD``; memoised in ``net._memo``.
    Walks never write them."""
    memo = net._memo
    if "arcs" not in memo:
        edges, n, m = net.edges, net.node_count, len(net.edges)
        top = max((max(e.cost, e.delay) for e in edges), default=0)
        arcs = None
        if n * top < _INT64_GUARD:
            dst = np.fromiter((e.dst for e in edges), np.int64, m)
            order = np.argsort(dst, kind="stable")
            head = dst[order]
            tail = np.fromiter((e.src for e in edges), np.int64, m)[order]
            cost = np.fromiter((e.cost for e in edges), np.int64, m)[order]
            delay = np.fromiter((e.delay for e in edges), np.int64, m)[order]
            arcs = (np.concatenate((head, head + n)),
                    np.concatenate((tail, tail + n)),
                    np.concatenate((cost, delay)))
        memo["arcs"] = arcs
    return memo["arcs"]


def _rows(net: Network) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per stacked node, the ``(tail, weight)`` pairs of the stacked arcs it
    heads, in ``_arcs`` order, in Python ints; memoised in ``net._memo``."""
    rows = net._memo.get("rows")
    if rows is None:
        n = net.node_count
        lists: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
        for u, v, cost, delay in net.edges:
            lists[v].append((u, cost))
            lists[n + v].append((n + u, delay))
        rows = net._memo["rows"] = tuple(map(tuple, lists))
    return rows


def build_halves(net: Network, target: int,
                 halves: tuple[int, ...]) -> list[list[float]]:
    """Exact shortest distances to ``target`` in each of ``halves`` (COST,
    DELAY or both, ascending), all in one walk, one list per half.

    One half walks its own m arcs of ``_arcs`` (cost the first, delay the
    last) from its own stacked copy of the target; both walk all 2m from
    both.  The heap walks ``_rows`` where ``_arcs`` is None, or goes on
    over them from a walk past FRONTIER_MAX_ROUNDS rounds.  ``target`` must
    be a node of ``net``."""
    n = net.node_count
    lo, hi = halves[0] * n, (halves[-1] + 1) * n
    seeds = [h * n + target for h in halves]
    arcs = _arcs(net)
    if arcs is not None:
        if len(halves) == 1:
            m = len(net.edges)
            arcs = [a[halves[0] * m:(halves[0] + 1) * m] for a in arcs]
        dist, frontier = _frontier_walk(arcs, n, seeds, FRONTIER_MAX_ROUNDS)
        labels = _as_labels(dist[lo:hi])
        start = frontier.tolist()
        if start:  # the heap goes on over all 2n stacked nodes
            labels = [inf] * lo + labels + [inf] * (2 * n - hi)
    else:
        labels = [inf] * (2 * n)
        for v in seeds:
            labels[v] = 0
        start = seeds
    if start:
        _heap_walk(_rows(net), labels, start)
        labels = labels[lo:hi]
    return [labels[k * n:(k + 1) * n] for k in range(len(halves))]


def build_reverse_trees(net: Network, target: int) -> ReverseTrees:
    """The reverse trees of ``target``, each half walked on its first read
    (see ``ReverseTrees``); IntegrityError when ``target`` is not a node of
    ``net``."""
    n = net.node_count
    if not 0 <= target < n:
        raise IntegrityError(f"target {target} is not a node of the "
                             f"{n}-node network")
    return ReverseTrees(net, target)


class TreeCache:
    """Per-network cache of reverse trees keyed by target node.

    Several tasks on one network often share a target: the task generator
    and filter, and the CLI solve commands, build each target's trees once
    through it.  Every solver takes its trees once per task, so the cache
    saves work only across tasks.  Benchmark timing deliberately bypasses
    it so every task pays its own preprocessing.

    ``get`` reads the cost half before it returns new trees, so a target is
    one stacked walk whatever its callers read: the task generator reads
    delay and the filter then cost, and walking the two halves apart would
    cost more than the pair.
    """

    def __init__(self, net: Network):
        self.net = net
        self._by_target: dict[int, ReverseTrees] = {}

    def get(self, target: int) -> ReverseTrees:
        trees = self._by_target.get(target)
        if trees is None:
            trees = build_reverse_trees(self.net, target)
            trees.min_cost_to_target  # the stacked pair, in one walk
            self._by_target[target] = trees
        return trees
