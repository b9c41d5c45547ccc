"""Network data model, SRLG index and the on-disk text formats.

The network is a directed graph over dense 0-based node ids.  Every edge
carries a positive integer cost and delay and is identified by its dense
0-based EdgeId (file line order).  SRLGs (shared risk link groups) are sets
of EdgeIds with dense 0-based group ids; ``edge_srlgs`` is the exact inverse
index.  Parallel edges are allowed and get distinct EdgeIds.

File formats (ASCII text; an integer is an optional ``-`` and the digits 0-9):

* graph file:  first line ``nodes,<N>``, then one edge per line
  ``from,to,cost,delay``.
* SRLG file:   one group per line ``srlg_id:e0,e1,...`` with EdgeId
  references; group ids must appear in order 0,1,2,...
* task file:   one task per line ``src,dst,d_low,d_up[,d_diff]`` -- the
  fifth column is present exactly for SRLG (disjoint-pair) tasks.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from typing import Iterable, NamedTuple, Sequence, Union


class ParseError(ValueError):
    """A line of an input file does not match the expected grammar."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class IntegrityError(ValueError):
    """Structurally valid input that references nonexistent nodes or edges."""


class Edge(NamedTuple):
    src: int
    dst: int
    cost: int
    delay: int


def _edge_fault(e: Edge, node_count: int) -> str:
    """Why ``e``, which fails the check of ``Network``, is no edge of a
    ``node_count``-node network: its node ids must be ints (not bool) below
    ``node_count``, and its weights positive ints."""
    for node in e[:2]:
        if type(node) is not int:
            return f"references node {node!r}, which is not an integer"
        if not 0 <= node < node_count:
            return f"references node {node} outside 0..{node_count - 1}"
    cost_ok = type(e.cost) is int and e.cost >= 1
    what, value = ("delay", e.delay) if cost_ok else ("cost", e.cost)
    return f"{what} must be a positive integer, got {value!r}"


_NO_SRLGS: frozenset[int] = frozenset()


class Network:
    """Immutable directed network with per-edge cost/delay and SRLG index.

    Attributes:
        node_count: number of nodes (ids 0..node_count-1).
        edges: tuple of Edge, indexed by EdgeId; Edge instances passed in
            are kept as they are, other tuples are converted.
        adjacency: per-node tuple of egress EdgeIds.
        min_edge_cost, max_edge_cost: cost extremes, None without edges.
        srlg_groups: tuple of frozensets of EdgeId, indexed by SrlgId.
        edge_srlgs: per-edge frozenset of SrlgIds (inverse of srlg_groups);
            every edge in no group holds the same shared empty frozenset.

    ``_memo`` is the per-network memo that ``drcr.trees`` fills with the
    stacked reverse graph of the trees on first use.  ``with_srlgs`` copies
    share everything but the SRLG index with their source network, the memo
    included, whichever of them fills it.  Instances never change after
    construction but for that memo, so any number of concurrent readers is
    safe.
    """

    __slots__ = ("node_count", "edges", "adjacency", "srlg_groups",
                 "edge_srlgs", "min_edge_cost", "max_edge_cost", "_memo")

    def __init__(self, node_count: int, edges: Iterable[Edge],
                 srlg_groups: Iterable[Iterable[int]] = ()):
        if not isinstance(node_count, int) or node_count < 1:
            raise IntegrityError(f"node count must be >= 1, got {node_count!r}")
        self.node_count = node_count
        self.edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)

        adjacency: list[list[int]] = [[] for _ in range(node_count)]
        for eid, e in enumerate(self.edges):
            src, dst, cost, delay = e
            if (type(src) is not int or type(dst) is not int
                    or type(cost) is not int or type(delay) is not int
                    or not 0 <= src < node_count or not 0 <= dst < node_count
                    or cost < 1 or delay < 1):
                raise IntegrityError(f"edge {eid} {_edge_fault(e, node_count)}")
            adjacency[src].append(eid)
        self.adjacency = tuple(tuple(a) for a in adjacency)
        self._memo: dict[str, object] = {}

        costs = [e.cost for e in self.edges]
        self.min_edge_cost = min(costs) if costs else None
        self.max_edge_cost = max(costs) if costs else None
        self._index_srlgs(srlg_groups)

    def _index_srlgs(self, srlg_groups: Iterable[Iterable[int]]) -> None:
        """Validate the groups and set ``srlg_groups`` and ``edge_srlgs``."""
        groups = tuple(frozenset(g) for g in srlg_groups)
        edge_count = len(self.edges)
        inverse: dict[int, list[int]] = {}
        for gid, group in enumerate(groups):
            if not group:
                raise IntegrityError(f"srlg group {gid} is empty")
            for eid in group:
                if type(eid) is not int or not 0 <= eid < edge_count:
                    raise IntegrityError(
                        f"srlg group {gid} references unknown edge {eid!r}")
                inverse.setdefault(eid, []).append(gid)
        edge_srlgs = [_NO_SRLGS] * edge_count
        for eid, gids in inverse.items():
            edge_srlgs[eid] = frozenset(gids)
        self.srlg_groups = groups
        self.edge_srlgs = tuple(edge_srlgs)

    def with_srlgs(self, srlg_groups: Iterable[Iterable[int]]) -> "Network":
        """A copy of this network with the SRLG index replaced.

        SRLGs do not change the edges, so the copy is shallow: it shares
        this network's node count, edges, adjacency, cost extremes and
        ``_memo``, the per-network memo that ``drcr.trees`` fills; only the
        SRLG index is built and validated.
        """
        twin = copy.copy(self)
        twin._index_srlgs(srlg_groups)
        return twin

    def path(self, edge_ids: Sequence[int]) -> "Path":
        """Build a Path from EdgeIds, computing the cached totals."""
        es = self.edges
        return Path(tuple(edge_ids),
                    sum(es[eid].cost for eid in edge_ids),
                    sum(es[eid].delay for eid in edge_ids))

    def __repr__(self):
        return (f"Network(nodes={self.node_count}, edges={len(self.edges)}, "
                f"srlgs={len(self.srlg_groups)})")


class NetworkView:
    """Non-destructive overlay of a Network with some edges masked out.

    Views are cheap per-search values; the underlying network is shared and
    never mutated.  An empty exclusion set makes the view equivalent to the
    full network.
    """

    __slots__ = ("net", "excluded")

    def __init__(self, net: Network, excluded: frozenset[int] = frozenset()):
        self.net = net
        self.excluded = frozenset(excluded)

    def __repr__(self):
        return f"NetworkView({self.net!r}, excluded={len(self.excluded)})"


NetLike = Union[Network, NetworkView]


def as_view(net: NetLike) -> NetworkView:
    if isinstance(net, NetworkView):
        return net
    return NetworkView(net)


@dataclass(frozen=True, slots=True)
class Path:
    """An edge sequence with cached cost/delay totals."""

    edges: tuple[int, ...]
    total_cost: int
    total_delay: int


def check_path(net: Network, path: Path, source: int | None = None,
               target: int | None = None) -> None:
    """Verify all Path invariants from raw edge data; raise IntegrityError.

    Checks head-to-tail chaining, elementarity, the cached totals and
    (when given) the endpoint nodes.
    """
    if not path.edges:
        raise IntegrityError("empty path")
    edges = net.edges
    cost = delay = 0
    seen_nodes = set()
    prev_dst = None
    for eid in path.edges:
        if not 0 <= eid < len(edges):
            raise IntegrityError(f"path references unknown edge {eid}")
        e = edges[eid]
        if prev_dst is not None and e.src != prev_dst:
            raise IntegrityError(f"edge {eid} does not chain: {prev_dst} != {e.src}")
        if e.src in seen_nodes:
            raise IntegrityError(f"path revisits node {e.src}")
        seen_nodes.add(e.src)
        prev_dst = e.dst
        cost += e.cost
        delay += e.delay
    if prev_dst in seen_nodes:
        raise IntegrityError(f"path revisits node {prev_dst}")
    if cost != path.total_cost or delay != path.total_delay:
        raise IntegrityError(
            f"cached totals ({path.total_cost},{path.total_delay}) do not match "
            f"recomputed ({cost},{delay})")
    if source is not None and edges[path.edges[0]].src != source:
        raise IntegrityError(f"path does not start at {source}")
    if target is not None and prev_dst != target:
        raise IntegrityError(f"path does not end at {target}")


@dataclass(frozen=True, slots=True)
class DrcrTask:
    """A single-path routing request: min-cost path with delay in [d_low, d_up].

    d_up may be math.inf for internal delay-relaxed searches; tasks read from
    files always carry finite integers.  A NaN bound raises IntegrityError:
    every delay comparison with it is false, so a search would prove a
    false "infeasible".
    """

    source: int
    target: int
    d_low: int
    d_up: int

    def __post_init__(self):
        if self.source < 0 or self.target < 0:
            raise IntegrityError(f"task node ids must be >= 0, got "
                                 f"{self.source} -> {self.target}")
        if self.source == self.target:
            raise IntegrityError("task source equals target")
        if not 0 <= self.d_low <= self.d_up:  # also false for NaN
            raise IntegrityError(f"bad delay window [{self.d_low}, {self.d_up}]")


@dataclass(frozen=True, slots=True)
class SrlgTask(DrcrTask):
    """A disjoint-pair request: its window, plus the delay-difference limit.

    The active path is a DRCR path of this window, so the task goes as it
    is to every single-path search.  A task never equals the DrcrTask of
    its window.
    """

    d_diff: int

    def __post_init__(self):
        # by name: a zero-argument super() fails in a slots dataclass
        DrcrTask.__post_init__(self)
        if not self.d_diff >= 0:  # also true for NaN
            raise IntegrityError(f"d_diff must be >= 0, got {self.d_diff}")


Task = Union[DrcrTask, SrlgTask]


def check_task_nodes(net: Network, task: Task) -> None:
    """Raise IntegrityError unless the task's source and target are nodes of net."""
    for name, node in (("source", task.source), ("target", task.target)):
        if node >= net.node_count:
            raise IntegrityError(f"task {name} {node} is not a node of the "
                                 f"{net.node_count}-node network")


def remove_conflicting_edges(net: Network, ap: Path) -> NetworkView:
    """View of ``net`` without any edge that conflicts with the given path.

    An edge conflicts when it shares an SRLG with any edge of ``ap``; the
    edges of ``ap`` itself are always excluded as well (an edge conflicts
    with itself even without SRLG membership, so disjoint pairs are also
    link-disjoint).
    """
    excluded = set(ap.edges)
    groups = net.srlg_groups
    edge_srlgs = net.edge_srlgs
    for eid in ap.edges:
        if not 0 <= eid < len(net.edges):
            raise IntegrityError(f"path references unknown edge {eid}")
        for gid in edge_srlgs[eid]:
            excluded.update(groups[gid])
    return NetworkView(net, frozenset(excluded))


def find_path(net: NetLike, s: int, t: int,
              delay_lb: Sequence[float] | None = None,
              d_up: float = inf) -> list[int] | None:
    """EdgeIds of a least-delay path s -> t of delay at most ``d_up``, or None.

    A* on delay (Hart, Nilsson and Raphael, 1968) with ``delay_lb`` as the
    potential: a lower bound on each node's delay to ``t`` that no edge
    breaks (``delay_lb[u] <= delay + delay_lb[dst]``), such as the delay
    tree of the full network, which stays one on every view of it.  None
    means all zeros, a plain Dijkstra.  A node whose delay from ``s`` plus
    its bound passes ``d_up`` is never queued, so the search stays inside
    the delay window.  The path is elementary, and empty when s == t.
    """
    view = as_view(net)
    base = view.net
    if not (0 <= s < base.node_count and 0 <= t < base.node_count):
        raise IntegrityError(f"node out of range: s={s}, t={t}")
    lb = [0] * base.node_count if delay_lb is None else delay_lb
    if lb[s] > d_up:
        return None
    if s == t:
        return []
    excluded, edges, adjacency = view.excluded, base.edges, base.adjacency
    dist = {s: 0}
    via = {}  # EdgeId of each reached node's best arrival
    heap = [(lb[s], s)]
    while heap:
        f, u = heappop(heap)
        if u == t:
            path = []
            while u != s:
                path.append(via[u])
                u = edges[via[u]].src
            return path[::-1]
        du = dist[u]
        if f != du + lb[u]:
            continue  # stale: u was queued again at a smaller delay
        for eid in adjacency[u]:
            if eid in excluded:
                continue
            e = edges[eid]
            v = e.dst
            nd = du + e.delay
            if nd < dist.get(v, inf):
                f = nd + lb[v]
                if f <= d_up:
                    dist[v] = nd
                    via[v] = eid
                    heappush(heap, (f, v))
    return None


def is_connected(net: NetLike, s: int, t: int,
                 delay_lb: Sequence[float] | None = None,
                 d_up: float = inf) -> bool:
    """True iff a path s -> t of delay at most ``d_up`` exists; see
    ``find_path`` for ``delay_lb``.  The defaults ignore every constraint."""
    return find_path(net, s, t, delay_lb, d_up) is not None


# ---- file formats ----------------------------------------------------------


# The formats are ASCII: an integer token is an optional "-" and the digits
# 0-9 (int() would also take "+", "_", blanks and non-ASCII digits), and
# only ASCII blanks are stripped from a line's ends.
_INT = re.compile(r"-?[0-9]+")
_EDGE = re.compile(r"-?[0-9]+,-?[0-9]+,-?[0-9]+,-?[0-9]+")
_BLANKS = " \t\n\r\f\v"


def _parse_int(token: str, path, line_no: int, what: str) -> int:
    if _INT.fullmatch(token) is None:
        raise ParseError(path, line_no, f"{what} is not an integer: {token!r}")
    return int(token)


def _iter_lines(path):
    """(line number, stripped line) of each non-blank line.

    A byte that is not UTF-8 decodes to a lone surrogate rather than
    raising, so it and any other non-ASCII character (a BOM included) fail
    the grammar of the line that holds it, which the ParseError names.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.strip(_BLANKS)
            if line:
                yield line_no, line


def load_network(graph_file, srlg_file=None) -> Network:
    """Load a network from a graph file and an optional SRLG file."""
    lines = _iter_lines(graph_file)
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise ParseError(graph_file, 1, "empty graph file") from None
    parts = header.split(",")
    if len(parts) != 2 or parts[0] != "nodes":
        raise ParseError(graph_file, line_no, f"expected 'nodes,<N>', got {header!r}")
    node_count = _parse_int(parts[1], graph_file, line_no, "node count")

    edges = []
    for line_no, line in lines:
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(graph_file, line_no,
                             f"expected 'from,to,cost,delay', got {line!r}")
        if _EDGE.fullmatch(line) is None:  # name the field that is not an int
            for p, name in zip(parts, ("from", "to", "cost", "delay")):
                _parse_int(p, graph_file, line_no, name)
        edges.append(Edge._make(map(int, parts)))

    groups: list[list[int]] = []
    if srlg_file is not None:
        for line_no, line in _iter_lines(srlg_file):
            gid_part, sep, rest = line.partition(":")
            if not sep:
                raise ParseError(srlg_file, line_no,
                                 f"expected 'srlg_id:e0,e1,...', got {line!r}")
            gid = _parse_int(gid_part, srlg_file, line_no, "srlg id")
            if gid != len(groups):
                raise ParseError(srlg_file, line_no,
                                 f"srlg ids must be dense and in order; expected "
                                 f"{len(groups)}, got {gid}")
            members = [_parse_int(p, srlg_file, line_no, "edge id")
                       for p in rest.split(",") if p != ""]
            if not members:
                raise ParseError(srlg_file, line_no, "empty srlg group")
            groups.append(members)

    return Network(node_count, edges, groups)


def save_network(net: Network, graph_file, srlg_file=None) -> None:
    """Write a network back out in the load_network formats."""
    with open(graph_file, "w", encoding="utf-8") as f:
        f.write(f"nodes,{net.node_count}\n")
        for e in net.edges:
            f.write(f"{e.src},{e.dst},{e.cost},{e.delay}\n")
    if srlg_file is not None:
        save_srlgs(net.srlg_groups, srlg_file)


def save_srlgs(groups: Iterable[Iterable[int]], srlg_file) -> None:
    """Write SRLG groups in the load_network format, members ascending."""
    with open(srlg_file, "w", encoding="utf-8") as f:
        for gid, group in enumerate(groups):
            f.write(f"{gid}:{','.join(str(e) for e in sorted(group))}\n")


def parse_task_line(line: str, path="<string>", line_no: int = 0,
                    node_count: int | None = None) -> Task:
    """One task line; with node_count, its node ids must lie below it."""
    parts = line.strip(_BLANKS).split(",")
    if len(parts) not in (4, 5):
        raise ParseError(path, line_no,
                         f"expected 'src,dst,d_low,d_up[,d_diff]', got {line!r}")
    names = ("src", "dst", "d_low", "d_up", "d_diff")
    values = [_parse_int(p, path, line_no, n) for p, n in zip(parts, names)]
    for name, node in zip(names, values[:2]):
        if node_count is not None and node >= node_count:
            raise ParseError(path, line_no, f"{name} {node} is not a node of "
                             f"the {node_count}-node network")
    try:
        return (SrlgTask if len(values) == 5 else DrcrTask)(*values)
    except IntegrityError as exc:
        raise ParseError(path, line_no, str(exc)) from None


def load_tasks(path, node_count: int | None = None) -> list[Task]:
    """Every task in a task file; see parse_task_line for node_count."""
    return [parse_task_line(line, path, line_no, node_count)
            for line_no, line in _iter_lines(path)]


def save_tasks(tasks: Iterable[Task], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for task in tasks:
            f.write(format_task(task) + "\n")


def format_task(task: Task) -> str:
    line = f"{task.source},{task.target},{task.d_low},{task.d_up}"
    return f"{line},{task.d_diff}" if isinstance(task, SrlgTask) else line

