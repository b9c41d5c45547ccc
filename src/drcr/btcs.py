"""Min-min SRLG-disjoint pair solving by bottom-top corridor search.

Stage 1 is plain active-path-first: find the cheapest window-feasible
active path, strip every edge conflicting with it, and look for any
feasible protection path in the adjusted delay window.  When that fails
(a trap instance), stage 2 scans half-open cost corridors upward from the
stage-1 cost: enumerate every feasible AP candidate in the corridor, sort
ascending by cost (ties by edge sequence), and try to protect each in
order.  The first protected candidate is the exact min-min optimum,
because corridors partition the cost axis in increasing order.

Corridor k has width w * growth**k, where w = min_edge_cost * alpha is the
first corridor's width.  growth=1 is the paper's fixed-width sweep.  Every
corridor walks again the cheaper prefixes below it, so fixed widths cost
about quadratically in the number of corridors; growing widths (the
default doubles them) bound that by a constant factor of one scan, as
BTBU's doubling bounds do for one path.  The pulse search's cost pruning
keeps a wide corridor cheap.

Each corridor scan returns its floor: no window-feasible path costs
between the corridor's top and the floor.  Corridor k+1 starts at the
floor, at or above the end of corridor k, skipping a stretch proved empty,
and a floor of inf proves that no AP is left, which ends the sweep.

One exact SRLG-cut test settles the traps that no sweep could avoid (trap
avoidance, Xu et al., JLT 2003), before anything else: a group that lies
on every source-target path of delay at most ``d_up`` lies on every AP and
every PP, so no pair can be SRLG-disjoint.  ``find_srlg_cut`` tries the
groups of the least-delay path, read off the delay tree, one at a time,
each with one delay-bounded ``find_path`` search that avoids it.  A cut
is INFEASIBLE with no cost tree, no search order, no corridor and no
pulse, and the group is the report's ``srlg_cut``; a trap without one goes
on to stage 1 and the sweep unchanged.  The same search, bounded by the
protection window's top, is the connectivity check of every protection
attempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import ceil, inf

from . import pulse
from .network import (DrcrTask, Network, NetworkView, Path, SrlgTask,
                      check_task_nodes, find_path, is_connected,
                      remove_conflicting_edges)
from .pulse import (UNLIMITED, SearchControl, SearchCounters, SearchInterrupted,
                    SearchOrder, build_search_order, pulse_first_feasible,
                    pulse_optimal, scan_corridor_paths)
from .report import INFEASIBLE, PAIR, TIMEOUT, SolveReport
from .trees import ReverseTrees


@dataclass(frozen=True)
class BtcsConfig:
    """Corridor schedule and optional safety cap.

    ``alpha`` sets the first corridor's width in units of the cheapest edge
    cost; each later corridor is ``growth`` times wider than the one before
    (``growth=1`` is the paper's fixed-width schedule).  ``max_corridors``
    caps the number of corridors, of growing width, that a sweep may scan;
    reaching it is the TIMEOUT outcome.
    """

    alpha: float = 10.0
    workers: int = 1  # fixed: corridors are scanned one after another
    max_corridors: int | None = None
    growth: int = 2

    def __post_init__(self):
        if not 0 < self.alpha < inf:  # also false for NaN
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.growth < 1:
            raise ValueError(f"growth must be >= 1, got {self.growth}")
        if self.workers != 1:
            raise ValueError(f"corridor workers were removed; workers must "
                             f"be 1, got {self.workers}")
        if self.max_corridors is not None and self.max_corridors < 1:
            raise ValueError("max_corridors must be >= 1")


@dataclass(frozen=True, slots=True)
class DisjointPair:
    """An active path and an SRLG-disjoint protection path."""

    ap: Path
    pp: Path


def pp_delay_window(task: SrlgTask, ap_delay: int) -> tuple[int, int] | None:
    """Delay window a protection path must satisfy against this AP delay.

    The intersection of the task window with [ap_delay - d_diff,
    ap_delay + d_diff] is the unique window under which the pair meets both
    the range and the difference constraints; None when it is empty.
    """
    low = max(task.d_low, ap_delay - task.d_diff)
    high = min(task.d_up, ap_delay + task.d_diff)
    if low > high:
        return None
    return low, high


def corridor_width(net: Network, alpha: float) -> int:
    """``min_edge_cost * alpha`` rounded up, at least 1 and at most
    ``max_elementary_path_cost()``: a first corridor that wide already holds
    every path, so any wider one sweeps the same single corridor."""
    if net.min_edge_cost is None:
        raise ValueError("network has no edges")
    top = net.max_elementary_path_cost()
    width = net.min_edge_cost * alpha
    return top if width >= top else max(1, ceil(width))


def try_protect(net: Network, trees: ReverseTrees, task: SrlgTask, ap: Path, *,
                order: SearchOrder | None = None,
                counters: SearchCounters | None = None,
                control: SearchControl = UNLIMITED) -> Path | None:
    """Any feasible protection path for this AP candidate, or None.

    Strips the conflicting edges, short-circuits when no path of the
    stripped view keeps to the adjusted window's top (one ``find_path``
    search through ``is_connected``, no pulses spent), then runs the
    first-feasible search in that window.  The reverse trees of the full
    network are reused on the stripped view: they stay valid lower bounds,
    just looser, and the delay tree is the search's potential.
    """
    window = pp_delay_window(task, ap.total_delay)
    if window is None:
        return None
    view = remove_conflicting_edges(net, ap)
    if not is_connected(view, task.source, task.target,
                        trees.min_delay_to_target, window[1]):
        return None
    pp_task = DrcrTask(task.source, task.target, window[0], window[1])
    return pulse_first_feasible(view, trees, pp_task, order=order,
                                counters=counters, control=control)


def protect_candidates(net, trees, task, candidates, *,
                       control: SearchControl = UNLIMITED, **search):
    """``(ap, try_protect(...))`` for each AP candidate in turn, polling
    ``control`` before every ``drcr.pulse.POLL_EVERY``-th try: a candidate
    that fails on connectivity spends no pulse, so the engine would never
    poll through a long run of them.  ``search`` (``order``, ``counters``)
    goes on to ``try_protect``, looked up at each call, so a wrapper set on
    this module sees every attempt."""
    poll_every = pulse.POLL_EVERY
    for attempt, ap in enumerate(candidates, 1):
        if attempt % poll_every == 0:
            control.poll()
        yield ap, try_protect(net, trees, task, ap, control=control, **search)


def find_srlg_cut(net: Network, trees: ReverseTrees, task: SrlgTask,
                  control: SearchControl = UNLIMITED) -> int | None:
    """An SRLG on every s-t path of delay at most ``d_up``, or None.

    Every AP and every PP keeps to that bound, so such a group lies on both
    paths of any pair and no SRLG-disjoint pair exists.  None when no path
    keeps to the bound at all: stage 1 then finds no AP.  The candidates
    are the groups of the least-delay path, read off the delay tree, in the
    order the path meets them, so on a trap whose source has all its
    egress edges in one group that group is tried first.  Each is tried
    alone: a ``find_path`` search that avoids it and finds no path within
    the bound proves it a cut, and a path it finds shrinks the candidates
    to the groups of that path.  ``control`` is polled before the walk and
    before each search.  Only the delay tree is read: on trees not read
    before, the test walks the delay half alone (see ``drcr.trees``).
    """
    control.poll()
    lb = trees.min_delay_to_target
    s, t, d_up = task.source, task.target, task.d_up
    if lb[s] == inf or lb[s] > d_up:
        return None
    edges, edge_srlgs = net.edges, net.edge_srlgs
    walk, u = [], s
    while u != t:
        for eid in net.adjacency[u]:  # the first edge tight on u's delay
            e = edges[eid]
            if e.delay + lb[e.dst] == lb[u]:
                break
        else:  # only trees of another target leave u without one
            raise ValueError(f"trees do not lead from {u} to target {t}")
        walk.append(eid)
        u = e.dst
    candidates = list(dict.fromkeys(
        g for eid in walk for g in sorted(edge_srlgs[eid])))
    while candidates:
        g = candidates[0]
        control.poll()
        path = find_path(NetworkView(net, net.srlg_groups[g]), s, t, lb, d_up)
        if path is None:
            return g
        on = set().union(*(edge_srlgs[eid] for eid in path))
        candidates = [c for c in candidates[1:] if c in on]
    return None


def solve_btcs(net: Network, trees: ReverseTrees, task: SrlgTask,
               cfg: BtcsConfig = BtcsConfig(), *,
               control: SearchControl = UNLIMITED
               ) -> tuple[DisjointPair | None, SolveReport]:
    """Cheapest protectable AP with a feasible PP, or an exact verdict.

    One pass: ``find_srlg_cut``, stage 1, then the corridor sweep.  The
    cut test runs first: a group on every s-t path of delay at most ``d_up``
    is the INFEASIBLE verdict with that group in ``srlg_cut`` and no
    corridor, candidate or pulse spent; neither the cost tree nor the
    search order is even built.  Otherwise stage 1 runs, its search order
    reading the cost tree, and when it finds no PP, stage-2 corridors are
    scanned one after another in ascending cost order, each ``cfg.growth``
    times wider than the one before.  A corridor's candidates are tried in
    (cost, edge sequence) order; the stage-1 AP, already tried, is dropped
    from them by edge-sequence equality (corridor 0 would enumerate it
    again).  A corridor's floor of inf proves every corridor
    above it empty: the verdict is INFEASIBLE, on the last corridor
    ``cfg.max_corridors`` allows too.  ``corridors_explored`` and
    ``ap_candidates_checked`` (the stage-1 AP included) count completed
    corridors only, up to and including the winning one
    (``corridors_explored`` is 0 when the cut test or stage 1 already
    decides).  Running out of corridors under the cap,
    a deadline passed or a stop event set in ``control`` ends the run, in
    any phase, with the inexact TIMEOUT outcome and no pair.  Raises
    IntegrityError when a task node is not a node of ``net``.
    """
    check_task_nodes(net, task)
    counters = SearchCounters()
    report = SolveReport(INFEASIBLE, counters=counters)

    try:
        report.srlg_cut = find_srlg_cut(net, trees, task, control)
        if report.srlg_cut is not None:
            return None, report
        search = {"order": build_search_order(net, trees),
                  "counters": counters, "control": control}
        first_ap = pulse_optimal(net, trees, task, **search)
        if first_ap is None:
            return None, report
        report.ap_candidates_checked = 1
        pp = try_protect(net, trees, task, first_ap, **search)
        if pp is not None:
            report.outcome = PAIR
            return DisjointPair(first_ap, pp), report

        width = corridor_width(net, cfg.alpha)
        c_low = first_ap.total_cost
        corridors = (count() if cfg.max_corridors is None
                     else range(cfg.max_corridors))
        for k in corridors:
            c_up = c_low + width * cfg.growth ** k
            candidates, floor = scan_corridor_paths(
                net, trees, task, c_low, c_up, **search)
            candidates.sort(key=lambda p: (p.total_cost, p.edges))
            fresh = (ap for ap in candidates if ap.edges != first_ap.edges)
            checked, pp = 0, None
            for checked, (ap, pp) in enumerate(protect_candidates(
                    net, trees, task, fresh, **search), 1):
                if pp is not None:
                    break
            report.ap_candidates_checked += checked
            report.corridors_explored = k + 1
            if pp is not None:
                report.outcome = PAIR
                return DisjointPair(ap, pp), report
            if floor == inf:
                return None, report
            c_low = max(c_up, floor)
    except SearchInterrupted:
        pass
    report.outcome = TIMEOUT
    return None, report
