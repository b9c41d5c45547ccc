"""Depth-first pulse search over a network view: one walk, three terminal modes.

Every search walks elementary paths from the task source with an explicit
stack (graphs can be deeper than any recursion limit) and tracks visited
nodes, cutting branches with two prunings backed by the reverse trees:

* infeasibility: accumulated delay plus the delay lower bound to the target
  already exceeds the window top;
* cost: accumulated cost plus the cost lower bound to the target exceeds
  the walk's integer cost limit.

Costs are integers, so one strict cut ``cur_cost + cost_lb > limit`` serves
every search; only the limit differs.  The optimal search keeps an
incumbent and cuts at ``ceil(bound) - 1``, lowered to ``cost - 1`` on each
new incumbent, which equals the non-strict ``>= incumbent`` cut.  The
collecting search gathers the paths of cost in [lo, hi), cuts at ``hi`` and
stops after ``cap`` of them: the corridor scan is [c_low, c_up) with the
caller's cap, and the first-feasible search is [0, inf) with cap 1.  The
counting search is the collecting one without the paths, for the
histograms.  The mode is consulted only at a terminal inside the window.

Egress edges are explored cheapest-completion first (edge cost plus the
cost-to-target bound, ties by EdgeId).  The order is deterministic so
results are reproducible, and because it is sorted by exactly the quantity
the cost pruning tests, a single failed test cuts all remaining siblings at
once.  Edges whose head cannot reach the target at all are dropped from the
order; no s->t path can use them.  A node's sorted row is built the first
time a search expands it (see SearchOrder), so a task pays for the rows its
searches walk, not for the whole network.

A search never mutates the network, the trees or the view; the only thing it
writes is a missing row of the search order.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, isnan
from operator import itemgetter
from threading import Event
from time import monotonic

from .network import DrcrTask, NetLike, Path, as_view
from .trees import ReverseTrees

INF = inf

_COST_LB = itemgetter(0)  # sort key of a SearchOrder row entry


class SearchInterrupted(Exception):
    """Base for cooperative search interruption."""


class SearchTimeout(SearchInterrupted):
    """The search ran past its deadline."""


class SearchCancelled(SearchInterrupted):
    """The search was told to stop through its stop event."""


@dataclass
class SearchCounters:
    """Instrumentation accumulated across engine calls."""

    pulses: int = 0
    infeasibility_prunes: int = 0
    cost_prunes: int = 0


@dataclass
class SearchControl:
    """Cooperative deadline/cancellation, polled between pulses.

    ``drcr.btcs`` also polls it once on entry, between protection attempts
    and before each search of its SRLG-cut test, ``solve_btbu`` once on
    entry, ``count_paths_capped`` and ``build_histogram`` before each cost
    bin, and ``build_histogram`` between protection attempts; none of these
    spends pulses.
    """

    deadline: float | None = None
    stop: Event | None = None
    poll_every: int = 512

    @classmethod
    def from_time_limit_ms(cls, time_limit_ms: float | None,
                           stop: Event | None = None) -> "SearchControl | None":
        """A deadline ``time_limit_ms`` from now and ``stop``; None if neither.

        A zero or negative limit is a deadline already passed.  NaN raises
        ValueError: no clock reading is ever past a NaN deadline.
        """
        if time_limit_ms is not None and isnan(time_limit_ms):
            raise ValueError("time limit must be a number of ms, got nan")
        if time_limit_ms is None and stop is None:
            return None
        deadline = None if time_limit_ms is None else monotonic() + time_limit_ms / 1000.0
        return cls(deadline=deadline, stop=stop)

    def poll(self) -> None:
        """Raise SearchCancelled or SearchTimeout if the search must end."""
        if self.stop is not None and self.stop.is_set():
            raise SearchCancelled()
        if self.deadline is not None and monotonic() > self.deadline:
            raise SearchTimeout()


@dataclass(frozen=True, slots=True)
class CostCorridor:
    """Half-open cost interval [c_low, c_up); c_up may be math.inf."""

    c_low: int
    c_up: float

    def __post_init__(self):
        if not self.c_low < self.c_up:
            raise ValueError(f"empty corridor [{self.c_low}, {self.c_up})")


class SearchOrder:
    """Per-node egress rows (cost_lb, delay_lb, cost, delay, dst, eid).

    The lb entries fold the edge's own weight into the reverse-tree bound of
    its head, so the engine loops test a single addition.  Rows are sorted
    ascending by (cost_lb, eid).  ``rows[u]`` is None until a search first
    expands u; ``row(u)`` then builds it, and it stays for the rest of the
    task, shared by bound probes, corridors and protection searches.  A
    search touches a small part of a large network, so it pays only for the
    rows it walks.  A row can be empty: test for None, not for truth.
    """

    __slots__ = ("rows", "_adjacency", "_edges", "_min_cost", "_min_delay")

    def __init__(self, net: NetLike, trees: ReverseTrees):
        base = as_view(net).net
        self.rows: list[list[tuple] | None] = [None] * base.node_count
        self._adjacency = base.adjacency
        self._edges = base.edges
        self._min_cost = trees.min_cost_to_target
        self._min_delay = trees.min_delay_to_target

    def row(self, u: int) -> list[tuple]:
        """Node u's row, built and kept on first use."""
        row = self.rows[u]
        if row is None:
            edges = self._edges
            min_cost = self._min_cost
            min_delay = self._min_delay
            row = []
            for eid in self._adjacency[u]:
                _, v, c, d = edges[eid]
                mc = min_cost[v]
                if mc == INF:
                    continue
                row.append((c + mc, d + min_delay[v], c, d, v, eid))
            # adjacency holds EdgeIds in ascending order and the sort is
            # stable, so sorting on cost_lb alone yields (cost_lb, eid) order
            row.sort(key=_COST_LB)
            self.rows[u] = row
        return row


def build_search_order(net: NetLike, trees: ReverseTrees) -> SearchOrder:
    """The egress order for one task's searches; rows are built on demand.

    Creating it costs one list of node_count Nones, so engines called
    without an order just make their own.
    """
    return SearchOrder(net, trees)


# terminal modes of the walk
_BEST, _COLLECT, _COUNT = range(3)


def _pulse(net: NetLike, trees: ReverseTrees, task: DrcrTask,
           order: SearchOrder | None, counters: SearchCounters | None,
           control: SearchControl | None, mode: int, lo: int = 0,
           hi: float = INF, cap: float = INF, prune: bool = True):
    """The one walk behind every search; the cuts are the module docstring's.

    The cost limit is ``ceil(hi) - 1`` for ``_BEST`` (lowered on each new
    incumbent) and ``hi`` for ``_COLLECT`` and ``_COUNT``, so a walk with
    ``hi = INF`` never cuts on cost.  ``prune=False`` sets both cuts to INF
    and never lowers the limit.

    The mode is consulted only at an in-window terminal of cost in
    [lo, hi): ``_BEST`` keeps it as the incumbent and lowers ``hi`` to its
    cost, ``_COLLECT`` appends it and ``_COUNT`` counts it, and both stop
    once ``cap`` terminals are taken.

    Returns (result, capped, more_above).  ``result`` is the incumbent
    (None if none), the collected paths, or the count.
    ``capped`` is True when the walk stopped at ``cap`` terminals.
    ``more_above`` False is a proof that no window-feasible path of cost
    >= hi exists at all: nothing was cut by the cost pruning (so the walk
    covered the complete delay-feasible space) and no in-window terminal
    reached hi.  A capped walk proves nothing, so it reports True.
    """
    view = as_view(net)
    base = view.net
    excluded = view.excluded
    if order is None:
        order = build_search_order(base, trees)
    s, t = task.source, task.target
    d_low, d_up = task.d_low, task.d_up
    d_cut = d_up if prune else INF
    if not prune:
        limit = INF
    elif mode == _BEST and hi != INF:
        limit = ceil(hi) - 1
    else:
        limit = hi

    best: list[int] | None = None
    found: list[Path] = []
    count = 0
    more_above = False
    pulses = 1
    infeas = 0
    cost_prunes = 0
    poll_every = control.poll_every if control is not None else 0
    poll_left = poll_every

    visited = bytearray(base.node_count)
    visited[s] = 1
    path: list[int] = []
    rows = order.rows
    frames: list[list] = [[s, order.row(s), 0, 0, 0]]
    cur_cost = 0
    cur_delay = 0
    try:
        while frames:
            frame = frames[-1]
            row = frame[1]
            i = frame[2]
            n_row = len(row)
            moved = False
            while i < n_row:
                c_lb, d_lb, ec, ed, to, eid = row[i]
                i += 1
                if cur_cost + c_lb > limit:
                    cost_prunes += n_row - i + 1
                    more_above = True
                    break
                if eid in excluded or visited[to]:
                    continue
                if cur_delay + d_lb > d_cut:
                    infeas += 1
                    continue
                pulses += 1
                if poll_every:
                    poll_left -= 1
                    if poll_left <= 0:
                        poll_left = poll_every
                        control.poll()
                new_delay = cur_delay + ed
                if to == t:
                    # t is now on the path; no deeper pulse can end there again
                    if d_low <= new_delay <= d_up:
                        new_cost = cur_cost + ec
                        if new_cost >= hi:
                            more_above = True  # lands on or above the top
                        elif lo <= new_cost:
                            if mode == _BEST:
                                best = path + [eid]
                                hi = new_cost
                                if prune:
                                    limit = new_cost - 1
                            else:
                                if mode == _COLLECT:
                                    found.append(base.path(path + [eid]))
                                count += 1
                                if count >= cap:
                                    return (found if mode == _COLLECT
                                            else count), True, True
                    continue
                frame[2] = i
                visited[to] = 1
                path.append(eid)
                cur_cost += ec
                cur_delay = new_delay
                to_row = rows[to]
                if to_row is None:
                    to_row = order.row(to)
                frames.append([to, to_row, 0, ec, ed])
                moved = True
                break
            if moved:
                continue
            fr = frames.pop()
            if frames:
                path.pop()
                cur_cost -= fr[3]
                cur_delay -= fr[4]
                visited[fr[0]] = 0
    finally:
        if counters is not None:
            counters.pulses += pulses
            counters.infeasibility_prunes += infeas
            counters.cost_prunes += cost_prunes
    if mode == _COLLECT:
        return found, False, more_above
    if mode == _COUNT:
        return count, False, more_above
    return (None if best is None else base.path(best)), False, more_above


def pulse_optimal(net: NetLike, trees: ReverseTrees, task: DrcrTask,
                  initial_bound: float = INF, *, order: SearchOrder | None = None,
                  counters: SearchCounters | None = None,
                  control: SearchControl | None = None,
                  prune: bool = True) -> Path | None:
    """Minimum-cost elementary path within the delay window, below the bound.

    Returns the cheapest path P with d_low <= d(P) <= d_up and
    c(P) < initial_bound, or None when no such path exists.  The cost
    pruning is non-strict (a branch that can at best tie the incumbent is
    cut), which never loses a strictly better path.  ``prune=False`` runs
    the same exhaustive walk without either pruning; it must return the
    same cost and exists for the pruning-neutrality checks.
    """
    return _pulse(net, trees, task, order, counters, control, _BEST,
                  hi=initial_bound, prune=prune)[0]


def scan_corridor_paths(net: NetLike, trees: ReverseTrees, task: DrcrTask,
                        corridor: CostCorridor, *, cap: float = INF,
                        order: SearchOrder | None = None,
                        counters: SearchCounters | None = None,
                        control: SearchControl | None = None
                        ) -> tuple[list[Path], bool]:
    """Exactly the corridor's paths, plus the can-anything-live-above bit.

    The collecting walk: every elementary path with d_low <= d(P) <= d_up
    and c_low <= c(P) < c_up, in discovery order, or the first ``cap`` of
    them.  No incumbent is kept and no bound is updated.  The second value
    is False only when the scan proved no window-feasible path of cost
    >= c_up exists, so ascending corridor consumers can stop early; a walk
    stopped at ``cap`` proves nothing and reports True.  The corridor
    cost pruning is strict (cut only when the optimistic completion exceeds
    c_up), mirroring the half-open collection test; boundary branches are
    explored and rejected at the terminal, where they set the proof bit.
    """
    paths, _, more_above = _pulse(net, trees, task, order, counters, control,
                                  _COLLECT, corridor.c_low, corridor.c_up, cap)
    return paths, more_above


def pulse_first_feasible(net: NetLike, trees: ReverseTrees, task: DrcrTask, *,
                         order: SearchOrder | None = None,
                         counters: SearchCounters | None = None,
                         control: SearchControl | None = None) -> Path | None:
    """Any elementary path satisfying the delay window, at first discovery.

    The collecting walk over [0, inf) with cap 1.  There is no cost bound,
    so only the infeasibility pruning fires; the walk stops as soon as a
    terminal satisfies the window, so the result carries no optimality
    claim.
    """
    found = _pulse(net, trees, task, order, counters, control, _COLLECT,
                   cap=1)[0]
    return found[0] if found else None


def count_paths_capped(net: NetLike, trees: ReverseTrees, task: DrcrTask,
                       bin_width: int, cap: int, *,
                       cost_ceiling: int | None = None,
                       order: SearchOrder | None = None,
                       counters: SearchCounters | None = None,
                       control: SearchControl | None = None) -> tuple[dict[int, int], bool]:
    """Per-cost-bin counts of paths satisfying the task's delay window.

    Pass a delay-relaxed task (d_up = math.inf) to count every path.  Bins
    are half-open [b, b + bin_width) starting at 0 and are swept in
    ascending cost order, so when the cap stops the count early only the
    expensive bins are missing; the second return value reports that
    truncation.  Zero bins are omitted from the result.  ``cost_ceiling``
    bounds the swept range for deliberately partial, low-cost-tail counts.
    A deadline or stop event in ``control``, polled before each bin and
    inside it, ends the sweep as the cap does: the bins completed so far
    are returned, the bin cut short is dropped, and the flag is True.
    """
    if bin_width < 1:
        raise ValueError(f"bin width must be >= 1, got {bin_width}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    base = as_view(net).net
    if order is None:
        order = build_search_order(base, trees)
    ceiling = base.max_elementary_path_cost()
    if cost_ceiling is not None:
        ceiling = min(ceiling, cost_ceiling)
    bins: dict[int, int] = {}
    total = 0
    b = 0
    while b <= ceiling:
        try:
            if control is not None:
                control.poll()
            got, hit, more_above = _pulse(net, trees, task, order, counters,
                                          control, _COUNT, b, b + bin_width,
                                          cap - total)
        except SearchInterrupted:
            return bins, True
        if got:
            bins[b] = got
            total += got
        if hit:
            return bins, True
        if not more_above:
            break
        b += bin_width
    return bins, False
