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

Two exact SRLG-cut tests settle the traps that no sweep could avoid (trap
avoidance, Xu et al., JLT 2003): if removing the edges of one SRLG leaves
no source-target path, every AP uses that SRLG, stripping the AP removes
it, and no PP can exist.  Before anything else, ``source_egress_cut``
intersects the SRLGs of the source's egress edges: a group holding all of
them is such a cut, found in O(out-degree) with no search order, no
stage 1 and no pulse.  After stage 1 finds no PP, ``find_srlg_cut`` looks
for any other single-SRLG cut with a few plain DFS, before the first
corridor.  Either way the trap is INFEASIBLE with no corridor scanned and
the proving group in the report's ``srlg_cut``; a trap without a
single-SRLG cut goes on to the sweep unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import ceil, inf

from .network import (DrcrTask, Network, NetworkView, Path, SrlgTask,
                      check_task_nodes, find_path, is_connected,
                      remove_conflicting_edges)
from .pulse import (CostCorridor, SearchControl, SearchCounters,
                    SearchInterrupted, SearchOrder, build_search_order,
                    pulse_first_feasible, pulse_optimal, scan_corridor_paths)
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
                control: SearchControl | None = None) -> Path | None:
    """Any feasible protection path for this AP candidate, or None.

    Strips the conflicting edges, short-circuits on lost s-t connectivity
    (cheap full DFS, no pulses spent), then runs the first-feasible search
    in the adjusted window.  The reverse trees of the full network are
    reused on the stripped view: they stay valid lower bounds, just looser.
    """
    window = pp_delay_window(task, ap.total_delay)
    if window is None:
        return None
    view = remove_conflicting_edges(net, ap)
    if not is_connected(view, task.source, task.target):
        return None
    pp_task = DrcrTask(task.source, task.target, window[0], window[1])
    return pulse_first_feasible(view, trees, pp_task, order=order,
                                counters=counters, control=control)


def _srlgs_on(net: Network, edge_ids) -> set[int]:
    edge_srlgs = net.edge_srlgs
    return set().union(*(edge_srlgs[eid] for eid in edge_ids))


def source_egress_cut(net: Network, source: int,
                      control: SearchControl | None = None) -> int | None:
    """The smallest SRLG holding every egress edge of ``source``, or None.

    Every path from the source leaves it by one of these edges, so such a
    group lies on every AP and every PP: removing it alone leaves no path
    to any target, and no SRLG-disjoint pair can exist.  A source without
    egress edges has no such group.  ``control`` is polled first, so a
    verdict that spends no pulse still honours a stop already set or a
    deadline already passed.
    """
    if control is not None:
        control.poll()
    edge_srlgs = net.edge_srlgs
    egress = net.adjacency[source]
    if not egress:
        return None
    shared = edge_srlgs[egress[0]].intersection(
        *(edge_srlgs[eid] for eid in egress[1:]))
    return min(shared, default=None)


def find_srlg_cut(net: Network, task: SrlgTask, ap: Path,
                  control: SearchControl | None = None) -> int | None:
    """An SRLG whose removal alone leaves no path from source to target.

    Every s-t path, ``ap`` included, crosses such a cut, so the candidates
    start as the SRLGs of ``ap``.  A path found while avoiding some of them
    crosses every cut too, so the candidates shrink to its SRLGs, which
    drops the avoided ones.  The first search avoids all candidates at once,
    and a path found then rules out every single group; after that the
    smallest candidate is tried alone.  Returns the smallest cut, or None
    when no single SRLG is one.  ``control`` is polled before each search.
    ``solve_btcs`` runs it after stage 1 finds no PP, and only when
    ``source_egress_cut`` found no group.
    """
    groups = net.srlg_groups
    candidates = _srlgs_on(net, ap.edges)
    avoid = sorted(candidates)
    while avoid:
        if control is not None:
            control.poll()
        excluded = frozenset().union(*(groups[g] for g in avoid))
        path = find_path(NetworkView(net, excluded), task.source, task.target)
        if path is None:
            if len(avoid) == 1:
                return avoid[0]
        else:
            candidates &= _srlgs_on(net, path)
        avoid = sorted(candidates)[:1]
    return None


def _scan_corridor(net, trees, task, first_ap, c_low, c_up, order, counters,
                   control):
    """One corridor: enumerate candidates, protect in order.

    Returns (pair_or_none, candidates_checked, floor).  The stage-1 AP is
    dropped by exact edge-sequence equality; it was already checked and
    corridor 0 would re-enumerate it.  ``floor`` is the corridor scan's:
    no window-feasible path costs in [c_up, floor), and inf proves every
    corridor above this one empty.
    """
    corridor = CostCorridor(c_low, c_up)
    candidates, floor = scan_corridor_paths(net, trees, task.base, corridor,
                                            order=order, counters=counters,
                                            control=control)
    candidates.sort(key=lambda p: (p.total_cost, p.edges))
    # a candidate that fails on connectivity spends no pulse, so the engine
    # would never poll through a long run of them
    poll_every = control.poll_every if control is not None else 0
    checked = 0
    for ap in candidates:
        if ap.edges == first_ap.edges:
            continue
        checked += 1
        if poll_every and checked % poll_every == 0:
            control.poll()
        pp = try_protect(net, trees, task, ap, order=order, counters=counters,
                         control=control)
        if pp is not None:
            return DisjointPair(ap, pp), checked, floor
    return None, checked, floor


def solve_btcs(net: Network, trees: ReverseTrees, task: SrlgTask,
               cfg: BtcsConfig = BtcsConfig(), *,
               control: SearchControl | None = None
               ) -> tuple[DisjointPair | None, SolveReport]:
    """Cheapest protectable AP with a feasible PP, or an exact verdict.

    ``source_egress_cut`` runs first, after one poll of ``control``: a
    group holding every egress edge of the source is the INFEASIBLE
    verdict with that group in ``srlg_cut`` and no corridor, candidate or
    pulse spent; the search order is not even built.  Otherwise stage 1
    runs, and when it finds no PP, ``find_srlg_cut`` runs next: a
    single-SRLG cut is the INFEASIBLE verdict with ``corridors_explored`` 0
    and the cut in ``srlg_cut``.  Otherwise stage-2 corridors are scanned
    one after another in ascending cost order, each ``cfg.growth`` times
    wider than the one before.  ``corridors_explored`` in the report counts
    the corridors completed, up to and including the winning one (0 when
    stage 1 or a cut test already decides).  A deadline passed or a stop
    event set in ``control`` ends the run, on entry, in either stage or the
    cut test, with the inexact TIMEOUT outcome and no pair; ``control`` is
    polled as given, ``poll_every`` included.  Raises IntegrityError when a
    task node is not a node of ``net``.
    """
    check_task_nodes(net, task)
    counters = SearchCounters()
    report = SolveReport(INFEASIBLE, counters=counters)

    try:
        report.srlg_cut = source_egress_cut(net, task.source, control)
        if report.srlg_cut is not None:
            return None, report
        order = build_search_order(net, trees)
        first_ap = pulse_optimal(net, trees, task.base, order=order,
                                 counters=counters, control=control)
        if first_ap is None:
            return None, report
        report.ap_candidates_checked = 1
        pp = try_protect(net, trees, task, first_ap, order=order,
                         counters=counters, control=control)
        if pp is not None:
            report.outcome = PAIR
            return DisjointPair(first_ap, pp), report
        report.srlg_cut = find_srlg_cut(net, task, first_ap, control)
        if report.srlg_cut is not None:
            return None, report
    except SearchInterrupted:
        report.outcome = TIMEOUT
        return None, report

    width = corridor_width(net, cfg.alpha)
    c_low = first_ap.total_cost

    # corridors_explored counts completed corridors; the outcome stays
    # INFEASIBLE unless a pair, the cap or an interruption ends the sweep
    for k in count():
        if cfg.max_corridors is not None and k >= cfg.max_corridors:
            report.outcome = TIMEOUT
            break
        c_up = c_low + width * cfg.growth ** k
        try:
            pair, checked, floor = _scan_corridor(
                net, trees, task, first_ap, c_low, c_up, order, counters,
                control)
        except SearchInterrupted:
            report.outcome = TIMEOUT
            break
        report.ap_candidates_checked += checked
        report.corridors_explored = k + 1
        if pair is not None:
            report.outcome = PAIR
            return pair, report
        if floor == inf:
            break
        c_low = max(c_up, floor)
    return None, report
