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
delay half alone takes 0.54-0.72 and a cost half alone 0.61-0.70 of the
pair's time (SF-200 m=4, SF-500 m=2, SF-1000 m=2, ER-1000 k=7 at weights
1..100, ``BENCH_35.json``), since the pair shares every numpy call of a
round; a task that reads delay and then cost pays 1.16-1.41 pairs.

Each walk runs one pipeline over one layout.  Let n be the node count and
W the largest edge weight of either metric.  The layout is cut from a
stacked reverse graph of 2n nodes: an edge from u to v is a cost arc from
v to u and a delay arc from n + v to n + u, so nodes 0..n-1 carry cost,
n..2n-1 delay, and the metrics never meet.  It depends on the edges alone,
so it is built at most once per network, on first use, into the network's
``_memo``, which ``with_srlgs`` copies share: ``_arcs``, the
series-reduced core below (a ``_Core``), and ``_rows``, the same arcs per
head as ``(tail, weight)`` pairs in Python ints, which only a walk handed
to the heap builds.

The core leaves out the series nodes.  A series node v has exactly two
distinct neighbours a and b, exactly one edge each way to each and no
self-loop; in ascending id order a node that fits is taken unless a
neighbour already was, so no two series nodes are adjacent.  About half
the nodes of a scale-free m=2 graph are series nodes (246 of 500 on the
``srlg-star`` graph), as are the inner nodes of chains and rings; an ER
graph at mean degree 7 has none.  In place of v's four edges the core has
two shortcuts (node contraction: Geisberger, Sanders, Schultes and
Delling, WEA 2008), a -> b at w(a -> v) + w(v -> b) and b -> a at
w(b -> v) + w(v -> a) in each metric, so the two halves keep blocks of
equal length, the cost block first; each block is sorted by head and
within a head holds the other edges in edge order and then the
shortcuts.  A shortcut is a two-edge path, and a simple path of the core
expands to a simple path of the graph, so the core's distances between
its own nodes are the graph's.

Only the core's dtype depends on the weights, with no option to set.
While n * W is below 2**62 its weights are int64 and a label is unreached
at int64's largest value: a label is always the length of a simple path,
and one filled in adds an edge to such a label, so every label stays at
most n * W and no sum overflows.  Otherwise the weights are Python ints
(numpy ``object`` arrays), exact at any magnitude, and a label is
unreached at math.inf.  The core's ``top`` is that unreached label.

1. The walk starts from the target in each half walked, at 0, or from a
   series target's two neighbours, at the weights of their edges into it.
2. It is one vectorised relaxation (Bellman, "On a routing problem", 1958,
   run as a frontier walk) over the core's arcs: both blocks for both
   trees, one block for a tree alone.  The frontier is the mask of the
   nodes whose label fell in the last round, at first the seeds.  A round
   selects the arcs whose head is in the mask with one gather of the mask
   over the walk's heads, relaxes every selected arc with
   ``np.minimum.at`` and takes the mask of the labels that fell as the
   next frontier: ten numpy calls, whose only work over all the walk's
   arcs is that gather and its scan.  None goes through a Python wrapper
   (``nonzero`` in place of ``np.flatnonzero``), and none allocates the
   labels' copy or the mask: the walk allocates them once and each round
   refills them in place.  The arrays stay writeable, as ``ndarray.take``
   copies a read-only index array on every call, and no walk writes them.
   The walk ends when a round finds no arc to relax, or after
   FRONTIER_MAX_ROUNDS rounds.  On ``srlg-star``'s first graph the core
   drops a quarter of the arcs (3984 to 3000), and the median delay walk
   two of its twelve rounds, the last of which finds nothing to relax.
3. A walk not done by then goes on in a lazy-deletion Dijkstra over
   ``_rows``, queued with the walk's last frontier alone: only the arcs
   leaving those nodes can still break the triangle inequality, and a
   node is queued again on every fall of its label, so the labels end
   exact (the generic label-correcting method).
4. One masked relaxation fills in every series node from its two
   neighbours (unreached stays unreached), and a series target is reset
   to 0.  The trees are the halves of the labels.

No graph size chooses how to walk: numpy's fixed cost per call makes the
frontier walk up to some 70 us a pair slower than a heap below n + m of
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
from itertools import chain
from math import inf
from typing import NamedTuple

import numpy as np

from .network import Edge, IntegrityError, Network

# rounds after which a frontier walk hands over to the heap (measured)
FRONTIER_MAX_ROUNDS = 32
# a core's weights are int64 while n * W is below this, else Python ints
_INT64_GUARD = 2 ** 62
_UNREACHED = np.iinfo(np.int64).max
# the halves of the stacked graph: stacked node h * n + v is node v of half h
COST, DELAY = 0, 1


class _Core(NamedTuple):
    """The series-reduced stacked graph that every walk runs on.

    ``head``, ``tail`` and ``weight`` are the core's stacked arcs, sorted by
    head, the cost half's block first and the delay half's, n nodes up,
    second.  The next five fields run over the halves (axis 0) and the
    series nodes v in ascending order (the last axis): ``series`` holds
    v's stacked node, ``via`` its two stacked neighbours a and b (axis 1),
    ``step`` the weights of v -> a and v -> b, ``cap`` is ``top - step``,
    and ``into`` holds the weights of a -> v and b -> v.  Node ids are
    int64; the weights are int64 with ``top`` at int64's largest value, or
    Python ints with ``top`` at math.inf.  ``slot`` maps each series node
    to its index on the last axis, and ``alone`` holds the core of each
    half walked alone, its own block of every array (empty in such a
    core)."""
    head: np.ndarray
    tail: np.ndarray
    weight: np.ndarray
    series: np.ndarray
    via: np.ndarray
    step: np.ndarray
    cap: np.ndarray
    into: np.ndarray
    top: int | float
    slot: dict[int, int]
    alone: tuple[_Core, ...]


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


def _frontier_walk(core: _Core, n: int, seeds: list[int], values: list[int],
                   rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2n stacked labels after at most ``rounds`` frontier rounds over
    the arcs of ``core`` from the stacked nodes ``seeds`` at ``values``, and
    the frontier left: the sorted nodes whose label fell in the last round,
    empty once a round finds no arc to relax.  Series nodes stay unreached
    (see ``_fill``)."""
    head, tail, weight = core.head, core.tail, core.weight
    dist = np.full(2 * n, core.top, dtype=weight.dtype)
    dist[seeds] = values
    fell = dist != core.top
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


def _fill(core: _Core, dist: np.ndarray) -> None:
    """Set each series node of ``core`` in ``dist`` to the least of its two
    edges out plus its neighbour's label, in one masked relaxation: an
    unreached neighbour is capped at the core's ``top`` less the edge, so
    it adds up to ``top`` again and nothing overflows."""
    if core.series.size:
        reach = dist.take(core.via)
        np.minimum(reach, core.cap, out=reach)
        reach += core.step
        dist[core.series] = np.minimum(reach[:, 0], reach[:, 1])


def _heap_walk(rev: tuple[tuple[tuple[int, int], ...], ...],
               labels: list[float], start: list[int]) -> None:
    """Exact stacked distances to the target over the rows ``rev`` (see
    ``_rows``), in place in ``labels``, from those labels and the queued
    nodes ``start``.

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


def _as_labels(dist: np.ndarray, top: int | float) -> list[float]:
    """``dist`` as a list of Python ints, math.inf where it holds ``top``."""
    labels = dist.tolist()
    for v in (dist == top).nonzero()[0].tolist():
        labels[v] = inf
    return labels


def _arcs(net: Network) -> _Core:
    """The series-reduced stacked graph of ``net`` (see ``_Core``),
    memoised in ``net._memo``.  Walks never write it."""
    memo = net._memo
    if "arcs" not in memo:
        memo["arcs"] = _core(net.node_count, net.edges)
    return memo["arcs"]


def _core(n: int, edges: tuple[Edge, ...]) -> _Core:
    """The ``_Core`` of the ``n``-node graph of ``edges``, its weights in
    Python ints once n * W reaches ``_INT64_GUARD``."""
    m = len(edges)
    try:
        cols = np.fromiter(chain.from_iterable(edges), np.int64, 4 * m)
    except OverflowError:  # a weight past int64, and n * W past the guard
        cols = np.fromiter(chain.from_iterable(edges), object, 4 * m)
    src, dst, *weights = cols.reshape(m, 4).T
    src, dst = (c.astype(np.int64, copy=False) for c in (src, dst))
    weight = np.stack(weights)  # (metric, edge)
    top = _UNREACHED
    if m and n * int(weight.max()) >= _INT64_GUARD:
        weight, top = weight.astype(object, copy=False), inf
    v, a, b, to_a, to_b, from_a, from_b = _series(n, src, dst)
    gone = np.zeros(n, dtype=bool)
    gone[v] = True
    kept = (~(gone.take(src) | gone.take(dst))).nonzero()[0]
    # the kept edges, then the shortcuts a -> b and b -> a through each v
    core_src = np.concatenate((src[kept], a, b))
    core_dst = np.concatenate((dst[kept], b, a))
    core_weight = np.concatenate((weight[:, kept],
                                  weight[:, from_a] + weight[:, to_b],
                                  weight[:, from_b] + weight[:, to_a]), axis=1)
    order = np.argsort(core_dst, kind="stable")
    shift = n * np.arange(2).reshape(2, 1)  # each half's node offset
    step = weight[:, np.stack((to_a, to_b))]
    pair = _Core((core_dst[order] + shift).ravel(),
                 (core_src[order] + shift).ravel(),
                 core_weight[:, order].ravel(), v + shift,
                 np.stack((a, b)) + shift[:, :, None], step, top - step,
                 weight[:, np.stack((from_a, from_b))], top,
                 dict(zip(v.tolist(), range(v.size))), ())
    mc = core_dst.size
    return pair._replace(alone=tuple(
        _Core(*(x[h * mc:(h + 1) * mc] for x in pair[:3]),
              *(x[h:h + 1] for x in pair[3:8]), *pair[8:10], ())
        for h in (COST, DELAY)))


def _series(n: int, src: np.ndarray, dst: np.ndarray) -> list[np.ndarray]:
    """The series nodes v of the ``n``-node graph of the edges ``src`` ->
    ``dst``, ascending, with their neighbours a and b and the edge ids of
    v -> a, v -> b, a -> v and b -> v.

    A node fits when it has exactly two distinct neighbours, neither of
    them itself, and exactly one edge each way to each.  In ascending id
    order, a node that fits is taken unless a neighbour was taken before
    it, so no two series nodes are adjacent."""
    ids = np.arange(src.size)
    ends = []  # per node its first and last edge out, then in
    for node in (src, dst):
        first = np.full(n, src.size)
        np.minimum.at(first, node, ids)
        last = np.zeros(n, dtype=np.int64)
        np.maximum.at(last, node, ids)
        ends += first, last
    v = ((np.bincount(src, minlength=n) == 2)
         & (np.bincount(dst, minlength=n) == 2)).nonzero()[0]
    to_a, to_b, from_x, from_y = (end[v] for end in ends)
    a, b = dst[to_a], dst[to_b]
    swap = src[from_x] == b
    from_a = np.where(swap, from_y, from_x)
    from_b = np.where(swap, from_x, from_y)
    fits = ((a != b) & (a != v) & (b != v)
            & (src[from_a] == a) & (src[from_b] == b)).nonzero()[0]
    taken = bytearray(n)
    pick = []
    for k, x, y, z in zip(fits.tolist(), v[fits].tolist(), a[fits].tolist(),
                          b[fits].tolist()):
        if not (taken[y] or taken[z]):
            taken[x] = 1
            pick.append(k)
    return [c[pick] for c in (v, a, b, to_a, to_b, from_a, from_b)]


def _rows(net: Network) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per stacked node, the ``(tail, weight)`` pairs of the core's arcs it
    heads, in the core's order, in Python ints (none for a series node);
    memoised in ``net._memo``."""
    rows = net._memo.get("rows")
    if rows is None:
        core = _arcs(net)
        lists: list[list[tuple[int, int]]] = [
            [] for _ in range(2 * net.node_count)]
        for v, u, w in zip(core.head.tolist(), core.tail.tolist(),
                           core.weight.tolist()):
            lists[v].append((u, w))
        rows = net._memo["rows"] = tuple(map(tuple, lists))
    return rows


def build_halves(net: Network, target: int,
                 halves: tuple[int, ...]) -> list[list[float]]:
    """Exact shortest distances to ``target`` in each of ``halves`` (COST,
    DELAY or both, ascending), all in one walk, one list per half.

    One half walks its own block of the core's arcs from its own stacked
    copy of the target; both walk both blocks from both.  A series target
    is seeded at its two neighbours instead, and reset to 0 after the
    fill-in.  A walk past FRONTIER_MAX_ROUNDS rounds goes on in the heap
    over ``_rows``, from its last frontier.  ``target`` must be a node of
    ``net``."""
    n = net.node_count
    core = _arcs(net)
    if len(halves) == 1:
        core = core.alone[halves[0]]
    k = core.slot.get(target)
    if k is None:
        seeds, values = [h * n + target for h in halves], [0] * len(halves)
    else:
        seeds = core.via[:, :, k].ravel().tolist()
        values = core.into[:, :, k].ravel().tolist()
    dist, frontier = _frontier_walk(core, n, seeds, values,
                                    FRONTIER_MAX_ROUNDS)
    if frontier.size:
        labels = dist.tolist()
        _heap_walk(_rows(net), labels, frontier.tolist())
        dist[:] = labels
    _fill(core, dist)
    if k is not None:
        dist[[h * n + target for h in halves]] = 0
    lo = halves[0] * n
    labels = _as_labels(dist[lo:lo + len(halves) * n], core.top)
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
