"""Shared instance builders, reference implementations and the golden-table
writer for the tests.

The reference implementations here (Bellman-Ford distances, plain
reachability, a plain Dijkstra on delay) are deliberately written
independently of the package internals so the comparisons mean something.
"""

from __future__ import annotations

import json
import random
from heapq import heappop, heappush
from math import inf
from pathlib import Path
from typing import Callable

import pytest

import drcr.pulse
import drcr.trees
from drcr import DrcrTask, Edge, Network, SrlgTask


def diamond() -> Network:
    """Two routes 0->3: cheap-but-slow via 1, costly-but-fast via 2."""
    return Network(4, [
        Edge(0, 1, 1, 10), Edge(1, 3, 1, 10),
        Edge(0, 2, 5, 1), Edge(2, 3, 5, 1),
    ])


def trap_network() -> Network:
    """Avoidable trap 0->5: cheapest route conflicts with both alternatives.

    Route A (cost 2) shares one SRLG with route B (cost 4) and another with
    route C (cost 30); B conflicts only with A, so the answer is (B, C).
    """
    edges = [
        Edge(0, 1, 1, 1), Edge(1, 5, 1, 1),
        Edge(0, 2, 2, 1), Edge(2, 5, 2, 1),
        Edge(0, 3, 10, 1), Edge(3, 4, 10, 1), Edge(4, 5, 10, 1),
    ]
    return Network(6, edges, [{0, 2}, {1, 4}])


def random_network(rng: random.Random, max_nodes: int = 12,
                   max_edges: int = 30, max_cost: int = 20,
                   max_delay: int = 20, srlg_count: int = 0,
                   min_edges: int = 1) -> Network:
    n = rng.randint(2, max_nodes)
    edge_total = rng.randint(min_edges, max_edges)
    edges = []
    for _ in range(edge_total):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.append(Edge(u, v, rng.randint(1, max_cost), rng.randint(1, max_delay)))
    if not edges:
        edges.append(Edge(0, 1, rng.randint(1, max_cost), rng.randint(1, max_delay)))
    groups = []
    for _ in range(srlg_count):
        size = rng.randint(1, max(1, len(edges) // 2))
        groups.append(set(rng.sample(range(len(edges)), min(size, len(edges)))))
    return Network(n, edges, groups)


def random_task(rng: random.Random, net: Network,
                srlg: bool = False) -> DrcrTask | SrlgTask:
    n = net.node_count
    s = rng.randrange(n)
    t = rng.randrange(n)
    while t == s:
        t = rng.randrange(n)
    max_total_delay = sum(e.delay for e in net.edges)
    d_low = rng.randint(0, max(1, max_total_delay // 3))
    d_up = d_low + rng.randint(0, max(1, max_total_delay // 2))
    if not srlg:
        return DrcrTask(s, t, d_low, d_up)
    return SrlgTask(s, t, d_low, d_up, rng.randint(0, max(1, d_up)))


def bellman_ford_to_target(net: Network, target: int, metric: str) -> list[float]:
    """Reference distances-to-target by |V|-1 rounds of full relaxation."""
    dist: list[float] = [inf] * net.node_count
    dist[target] = 0
    for _ in range(net.node_count - 1):
        changed = False
        for e in net.edges:
            w = e.cost if metric == "cost" else e.delay
            if dist[e.dst] + w < dist[e.src]:
                dist[e.src] = dist[e.dst] + w
                changed = True
        if not changed:
            break
    return dist


def eager_search_rows(net: Network, min_cost: list[float],
                      min_delay: list[float]) -> list[list[tuple]]:
    """Reference search order: every node's egress row, sorted up front.

    Entries are (cost_lb, delay_lb, cost, delay, dst, eid), ordered by
    (cost_lb, eid); edges whose head cannot reach the target are left out.
    """
    rows: list[list[tuple]] = [[] for _ in range(net.node_count)]
    for eid, e in enumerate(net.edges):
        if min_cost[e.dst] != inf:
            rows[e.src].append((e.cost + min_cost[e.dst],
                                e.delay + min_delay[e.dst],
                                e.cost, e.delay, e.dst, eid))
    return [sorted(row, key=lambda r: (r[0], r[5])) for row in rows]


class CountingStop:
    """A stop event that counts how often it is polled; it is never set, or,
    with ``after=k``, set from the k-th poll on."""

    def __init__(self, after: float = inf):
        self.polls = 0
        self.after = after

    def is_set(self) -> bool:
        self.polls += 1
        return self.polls >= self.after


def write_golden(path: Path, table: dict[str, list],
                 answer: Callable[[list], list]) -> None:
    """Overwrite the golden table at ``path`` with ``table``, one entry a
    line with keys sorted.

    First print what moved against the committed file: the number of
    entries whose answer (``answer(entry)``) changed, counting added and
    dropped keys, and their keys; and the number whose work counts alone
    changed.
    """
    table = json.loads(json.dumps(table))
    old = json.loads(path.read_text()) if path.exists() else {}
    moved = sorted(key for key in old.keys() | table.keys()
                   if key not in old or key not in table
                   or answer(old[key]) != answer(table[key]))
    counts_only = sum(old[key] != entry for key, entry in table.items()
                      if key in old and key not in moved)
    print(f"{path.name}: {len(moved)} answers changed, {counts_only} "
          f"entries changed in their work counts alone")
    for key in moved:
        print(f"  answer changed: {key}")
    path.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table))
        + "\n}\n")


def reachable(net: Network, s: int, excluded: frozenset[int] = frozenset()) -> set[int]:
    """Reference reachability by naive fixpoint iteration."""
    seen = {s}
    while True:
        grew = False
        for eid, e in enumerate(net.edges):
            if eid not in excluded and e.src in seen and e.dst not in seen:
                seen.add(e.dst)
                grew = True
        if not grew:
            return seen


def least_delay(net: Network, s: int, t: int,
                excluded: frozenset[int] = frozenset()) -> float:
    """Reference least delay of a path s -> t avoiding ``excluded``, or inf:
    a plain Dijkstra that scans every edge at each settled node."""
    dist = {s: 0}
    heap = [(0, s)]
    while heap:
        d, u = heappop(heap)
        if u == t:
            return d
        if d > dist[u]:
            continue
        for eid, e in enumerate(net.edges):
            if e.src == u and eid not in excluded and \
                    d + e.delay < dist.get(e.dst, inf):
                dist[e.dst] = d + e.delay
                heappush(heap, (d + e.delay, e.dst))
    return inf


@pytest.fixture
def poll_each_pulse(monkeypatch):
    """Every walk polls its SearchControl at each pulse, and the protection
    loop before each attempt: ``drcr.pulse.POLL_EVERY`` is 1."""
    monkeypatch.setattr(drcr.pulse, "POLL_EVERY", 1)


@pytest.fixture
def tree_walks(monkeypatch) -> list[tuple[int, ...]]:
    """The halves of every reverse-tree walk, in order, recorded through
    ``drcr.trees.build_halves`` as ``ReverseTrees`` looks it up."""
    walks: list[tuple[int, ...]] = []
    build = drcr.trees.build_halves

    def recording(net, target, halves):
        walks.append(halves)
        return build(net, target, halves)

    monkeypatch.setattr(drcr.trees, "build_halves", recording)
    return walks


@pytest.fixture
def diamond_net() -> Network:
    return diamond()


@pytest.fixture
def trap_net() -> Network:
    return trap_network()
