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

Every walk also returns its floor, the least cost it cut: the smallest
pruned ``cur_cost + cost_lb`` or in-window terminal cost at or above the
walk's top.  It is the threshold of iterative deepening (Korf, Artificial
Intelligence 27, 1985): no window-feasible path costs between the top and
the floor, and a floor of INF proves that nothing lies above the top.  The
bound schedules, the corridor sweep and the histograms all step to it, so
none of them needs a worst-case cost ceiling to stop.

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

from collections.abc import Callable
from dataclasses import dataclass
from math import ceil, inf, isnan
from operator import itemgetter
from threading import Event
from time import monotonic

from .network import DrcrTask, NetLike, Path, as_view
from .trees import ReverseTrees

INF = inf
POLL_EVERY = 512

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


@dataclass(frozen=True, slots=True)
class SearchControl:
    """Cooperative deadline/cancellation, polled between pulses.

    Every walk polls it once per ``POLL_EVERY`` pulses, a module constant
    read once per walk.  It is also polled where no pulse is spent: by
    ``drcr.btcs`` once on entry, between protection attempts and before
    each search of its SRLG-cut test, by ``solve_btbu`` once on entry, by
    ``sweep_bins`` before each cost bin, and by ``build_histogram`` between
    protection attempts.  A deadline is passed once ``monotonic()`` reaches
    it.  ``UNLIMITED`` is the control with no deadline and no stop; every
    search takes it by default.
    """

    deadline: float | None = None
    stop: Event | None = None

    @classmethod
    def from_time_limit_ms(cls, time_limit_ms: float | None
                           ) -> "SearchControl":
        """A deadline ``time_limit_ms`` from now, or UNLIMITED for None.

        A zero or negative limit is a deadline already passed, even on a
        clock that has not ticked since.  NaN raises ValueError: no clock
        reading ever reaches a NaN deadline.  A stop event is given to the
        constructor: ``SearchControl(stop=event)``.
        """
        if time_limit_ms is None:
            return UNLIMITED
        if isnan(time_limit_ms):
            raise ValueError("time limit must be a number of ms, got nan")
        return cls(deadline=monotonic() + time_limit_ms / 1000.0)

    def poll(self) -> None:
        """Raise SearchCancelled if the stop event is set, or SearchTimeout
        once the clock has reached the deadline."""
        if self.stop is not None and self.stop.is_set():
            raise SearchCancelled()
        if self.deadline is not None and monotonic() >= self.deadline:
            raise SearchTimeout()


UNLIMITED = SearchControl()


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
    without an order just make their own.  It reads the cost tree before
    the delay tree, so on trees not read before it walks both at once.
    """
    return SearchOrder(net, trees)


# terminal modes of the walk
_BEST, _COLLECT, _COUNT = range(3)


def _pulse(net: NetLike, trees: ReverseTrees, task: DrcrTask,
           order: SearchOrder | None, counters: SearchCounters | None,
           control: SearchControl, mode: int, lo: int = 0,
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

    Returns (result, floor).  ``result`` is the incumbent (None if none),
    the collected paths, or the count; the walk stopped at ``cap`` exactly
    when it took ``cap`` terminals.  ``floor`` is the least cost the walk
    cut: the minimum over every cost-pruned ``cur_cost + cost_lb`` and
    every in-window terminal cost >= hi, or INF when neither occurred.
    Every window-feasible path of cost >= hi costs at least the floor (the
    threshold of iterative deepening), so INF proves that no such path
    exists.  A finite floor is a bound, not a witness: the branch it came
    from may hold no window-feasible path.  The floor is >= hi.  For
    ``_BEST`` all of this holds only when no incumbent was found, since an
    incumbent lowers hi.  A capped walk proves nothing above its last
    terminal, so it reports hi.
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
    floor = INF
    pulses = 1
    infeas = 0
    cost_prunes = 0
    poll_every = POLL_EVERY
    next_poll = 1 + poll_every

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
                reach = cur_cost + c_lb
                if reach > limit:
                    cost_prunes += n_row - i + 1
                    if reach < floor:
                        floor = reach
                    break
                if eid in excluded or visited[to]:
                    continue
                if cur_delay + d_lb > d_cut:
                    infeas += 1
                    continue
                pulses += 1
                if pulses == next_poll:
                    next_poll += poll_every
                    control.poll()
                new_delay = cur_delay + ed
                if to == t:
                    # t is now on the path; no deeper pulse can end there again
                    if d_low <= new_delay <= d_up:
                        new_cost = cur_cost + ec
                        if new_cost >= hi:
                            if new_cost < floor:  # lands on or above the top
                                floor = new_cost
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
                                            else count), hi
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
        return found, floor
    if mode == _COUNT:
        return count, floor
    return (None if best is None else base.path(best)), floor


def pulse_probe(net: NetLike, trees: ReverseTrees, task: DrcrTask,
                bound: float = INF, *, order: SearchOrder | None = None,
                counters: SearchCounters | None = None,
                control: SearchControl = UNLIMITED,
                prune: bool = True) -> tuple[Path | None, float]:
    """The cheapest window-feasible path below the bound, and the walk's floor.

    Returns (path, floor).  ``path`` is the cheapest P with
    d_low <= d(P) <= d_up and c(P) < bound, or None.  When it is None, no
    window-feasible path costs less than ``floor`` (>= bound), and a floor
    of INF proves the task infeasible; the next probe of a bound schedule
    needs a bound above the floor to find anything.  The cost pruning is
    non-strict (a branch that can at best tie the incumbent is cut), which
    never loses a strictly better path.  ``prune=False`` runs the same
    exhaustive walk without either pruning; it must return the same cost
    and exists for the pruning-neutrality checks.
    """
    return _pulse(net, trees, task, order, counters, control, _BEST,
                  hi=bound, prune=prune)


def pulse_optimal(net: NetLike, trees: ReverseTrees, task: DrcrTask, *,
                  order: SearchOrder | None = None,
                  counters: SearchCounters | None = None,
                  control: SearchControl = UNLIMITED,
                  prune: bool = True) -> Path | None:
    """The cheapest window-feasible path, or None: the unbounded
    ``pulse_probe``'s path.  A bounded search is ``pulse_probe`` itself."""
    return pulse_probe(net, trees, task, order=order, counters=counters,
                       control=control, prune=prune)[0]


def scan_corridor_paths(net: NetLike, trees: ReverseTrees, task: DrcrTask,
                        c_low: int, c_up: float, *, cap: float = INF,
                        order: SearchOrder | None = None,
                        counters: SearchCounters | None = None,
                        control: SearchControl = UNLIMITED
                        ) -> tuple[list[Path], float]:
    """Exactly the paths of the corridor [c_low, c_up), and the floor above.

    The collecting walk: every elementary path with d_low <= d(P) <= d_up
    and c_low <= c(P) < c_up, in discovery order, or the first ``cap`` of
    them; c_up may be INF, and an empty interval raises ValueError.  No
    incumbent is kept and no bound is updated.  The second value is the
    walk's floor (see ``_pulse``): no window-feasible path costs in
    [c_up, floor), so an ascending consumer may start its next corridor at
    the floor, and INF proves nothing lies above.  A walk stopped at
    ``cap`` proves nothing and reports c_up.  The corridor cost pruning is
    strict (cut only when the optimistic completion exceeds c_up),
    mirroring the half-open collection test; boundary branches are explored
    and rejected at the terminal, where they set the floor.
    """
    if not c_low < c_up:
        raise ValueError(f"empty corridor [{c_low}, {c_up})")
    return _pulse(net, trees, task, order, counters, control, _COLLECT,
                  c_low, c_up, cap)


def pulse_first_feasible(net: NetLike, trees: ReverseTrees, task: DrcrTask, *,
                         order: SearchOrder | None = None,
                         counters: SearchCounters | None = None,
                         control: SearchControl = UNLIMITED) -> Path | None:
    """Any elementary path satisfying the delay window, at first discovery.

    The collecting walk over [0, inf) with cap 1.  There is no cost bound,
    so only the infeasibility pruning fires; the walk stops as soon as a
    terminal satisfies the window, so the result carries no optimality
    claim.
    """
    found = _pulse(net, trees, task, order, counters, control, _COLLECT,
                   cap=1)[0]
    return found[0] if found else None


def sweep_bins(bin_width: int, cap: int,
               walk: Callable[[int, int, int], tuple[int, float]], *,
               cost_ceiling: int | None = None,
               control: SearchControl = UNLIMITED
               ) -> tuple[dict[int, int], bool]:
    """Per-cost-bin path tallies in ascending bins, and whether they are cut.

    Bins are half-open [b, b + bin_width) from 0, and zero bins are
    omitted.  ``walk(lo, hi, left)`` tallies at most ``left`` paths of one
    bin and returns the tally and its floor; the sweep jumps to the floor's
    bin and ends at a floor of inf or past ``cost_ceiling``.  A tally equal
    to ``left`` meets the cap: the sweep stops, missing only dearer bins,
    and the flag is True.  ``control`` is polled before each bin, and an
    interruption ends the sweep the same way but drops the bin it cut.  A
    ``bin_width`` or ``cap`` below 1, or a ``cost_ceiling`` below 0, raises
    ValueError.
    """
    if bin_width < 1:
        raise ValueError(f"bin width must be >= 1, got {bin_width}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if cost_ceiling is not None and cost_ceiling < 0:
        raise ValueError(f"cost ceiling must be >= 0, got {cost_ceiling}")
    bins: dict[int, int] = {}
    left = cap
    b = 0
    while cost_ceiling is None or b <= cost_ceiling:
        try:
            control.poll()
            tally, floor = walk(b, b + bin_width, left)
        except SearchInterrupted:
            return bins, True
        if tally:
            bins[b] = tally
        if tally == left:
            return bins, True
        if floor == INF:
            break
        left -= tally
        b = floor - floor % bin_width
    return bins, False


def count_paths_capped(net: NetLike, trees: ReverseTrees, task: DrcrTask,
                       bin_width: int, cap: int, *,
                       cost_ceiling: int | None = None,
                       order: SearchOrder | None = None,
                       counters: SearchCounters | None = None,
                       control: SearchControl = UNLIMITED) -> tuple[dict[int, int], bool]:
    """``sweep_bins`` of the counting walk over the task's delay window.

    Pass a delay-relaxed task (d_up = math.inf) to count every path.
    """
    if order is None:
        order = build_search_order(net, trees)

    def walk(lo: int, hi: int, left: int) -> tuple[int, float]:
        return _pulse(net, trees, task, order, counters, control, _COUNT,
                      lo, hi, left)

    return sweep_bins(bin_width, cap, walk, cost_ceiling=cost_ceiling,
                      control=control)
