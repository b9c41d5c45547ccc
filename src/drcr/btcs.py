"""Min-min SRLG-disjoint pair solving by bottom-top corridor search.

Stage 1 is plain active-path-first: find the cheapest window-feasible
active path, strip every edge conflicting with it, and look for any
feasible protection path in the adjusted delay window.  When that fails
(a trap instance), stage 2 scans half-open cost corridors of width
min_edge_cost * alpha upward from the stage-1 cost: enumerate every
feasible AP candidate in the corridor, sort ascending by cost (ties by
edge sequence), and try to protect each in order.  The first protected
candidate is the exact min-min optimum, because corridors partition the
cost axis in increasing order.

Corridors are independent, so with ``workers > 1`` they are handed out to
threads in globally increasing order.  A pair found in corridor k becomes
the answer only once every corridor below k has completed without one;
workers above the winner are cancelled cooperatively.  Parallel output is
therefore identical to sequential output.

No elementary path can cost more than node_count * max_edge_cost; once a
corridor starts above that, it is widened to infinity, run once, and a
still-empty result proves infeasibility.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import ceil, inf
from time import perf_counter

from .network import (DrcrTask, Network, Path, SrlgTask, is_connected,
                      remove_conflicting_edges)
from .pulse import (CostCorridor, SearchControl, SearchCounters,
                    SearchInterrupted, SearchOrder, build_search_order,
                    pulse_first_feasible, pulse_optimal, scan_corridor_paths)
from .report import INFEASIBLE, PAIR, TIMEOUT, SolveReport
from .trees import ReverseTrees


@dataclass(frozen=True)
class BtcsConfig:
    """Corridor width factor, worker count and optional safety cap."""

    alpha: float = 10.0
    workers: int = 1
    max_corridors: int | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_corridors is not None and self.max_corridors < 1:
            raise ValueError("max_corridors must be >= 1")


@dataclass(frozen=True, slots=True)
class DisjointPair:
    """An active path and an SRLG-disjoint protection path."""

    ap: Path
    pp: Path

    @property
    def ap_delay(self) -> int:
        return self.ap.total_delay

    @property
    def pp_delay(self) -> int:
        return self.pp.total_delay


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
    if net.min_edge_cost is None:
        raise ValueError("network has no edges")
    return max(1, ceil(net.min_edge_cost * alpha))


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


def _scan_corridor(net, trees, task, first_ap, c_low, c_up, order, counters,
                   control):
    """One corridor: enumerate candidates, protect in order.

    Returns (pair_or_none, candidates_checked, more_above).  The stage-1 AP
    is dropped by exact edge-sequence equality; it was already checked and
    corridor 0 would re-enumerate it.  more_above False proves every
    corridor above this one is empty, which settles infeasibility without
    sweeping up to the worst-case cost bound.
    """
    corridor = CostCorridor(c_low, c_up)
    candidates, more_above = scan_corridor_paths(net, trees, task.base,
                                                 corridor, order=order,
                                                 counters=counters,
                                                 control=control)
    candidates.sort(key=lambda p: (p.total_cost, p.edges))
    checked = 0
    for ap in candidates:
        if ap.edges == first_ap.edges:
            continue
        checked += 1
        pp = try_protect(net, trees, task, ap, order=order, counters=counters,
                         control=control)
        if pp is not None:
            return DisjointPair(ap, pp), checked, more_above
    return None, checked, more_above


class _CorridorPool:
    """Shared state for the corridor workers.

    ``results[k]`` is the pair found in corridor k (or None); the frontier
    walks the contiguous prefix of finished corridors and the first pair on
    it wins.  ``stop`` is only set once a winner is final or the run fails,
    so a corridor at or below the best known pair index is never cancelled.
    """

    def __init__(self, k_last: int, k_cap: int | None):
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.k_last = k_last          # index of the final (unbounded) corridor
        self.k_cap = k_cap            # max_corridors cap, exclusive
        self.next_k = 0
        self.frontier = 0
        self.results: dict[int, DisjointPair | None] = {}
        self.checked: dict[int, int] = {}
        self.empty_above: set[int] = set()
        self.best_pair_k: int | None = None
        self.ceiling_k: int | None = None   # min corridor proven empty-above
        self.winner_k: int | None = None
        self.outcome: str | None = None
        self.explored = 0                   # corridors behind the verdict

    def take_index(self) -> int | None:
        with self.lock:
            if self.outcome is not None:
                return None
            k = self.next_k
            if k > self.k_last or (self.k_cap is not None and k >= self.k_cap):
                return None
            if self.best_pair_k is not None and k > self.best_pair_k:
                return None
            if self.ceiling_k is not None and k > self.ceiling_k:
                return None
            self.next_k = k + 1
            return k

    def complete(self, k: int, pair: DisjointPair | None, checked: int,
                 more_above: bool) -> None:
        with self.lock:
            self.results[k] = pair
            self.checked[k] = checked
            if not more_above:
                self.empty_above.add(k)
                if self.ceiling_k is None or k < self.ceiling_k:
                    self.ceiling_k = k
            if pair is not None and (self.best_pair_k is None or k < self.best_pair_k):
                self.best_pair_k = k
            while self.outcome is None and self.frontier in self.results:
                if self.results[self.frontier] is not None:
                    self.winner_k = self.frontier
                    self.outcome = PAIR
                    self.stop.set()
                    break
                if self.frontier in self.empty_above:
                    self.outcome = INFEASIBLE
                    self.explored = self.frontier + 1
                    self.stop.set()
                    break
                self.frontier += 1
            if self.outcome is None:
                if self.frontier > self.k_last:
                    self.outcome = INFEASIBLE
                    self.explored = self.frontier
                    self.stop.set()
                elif self.k_cap is not None and self.frontier >= self.k_cap:
                    self.outcome = TIMEOUT
                    self.explored = self.frontier
                    self.stop.set()

    def fail(self, outcome: str) -> None:
        with self.lock:
            if self.outcome is None:
                self.outcome = outcome
            self.stop.set()


class _EitherStop:
    """Stop signal for corridor workers: the pool's event or the caller's.

    It stands in for the Event of a SearchControl, which is only ever polled
    through ``is_set``.
    """

    __slots__ = ("pool_stop", "caller_stop")

    def __init__(self, pool_stop: threading.Event, caller_stop: threading.Event):
        self.pool_stop = pool_stop
        self.caller_stop = caller_stop

    def is_set(self) -> bool:
        return self.pool_stop.is_set() or self.caller_stop.is_set()


def solve_btcs(net: Network, trees: ReverseTrees, task: SrlgTask,
               cfg: BtcsConfig = BtcsConfig(), *,
               control: SearchControl | None = None
               ) -> tuple[DisjointPair | None, SolveReport]:
    """Cheapest protectable AP with a feasible PP, or an exact verdict.

    ``corridors_explored`` in the report counts the stage-2 corridors up to
    and including the winning one (0 when stage 1 already succeeds), which
    is independent of the worker count.  A deadline passed or a stop event
    set in ``control`` ends the run, in either stage and with any worker
    count, with the inexact TIMEOUT outcome and no pair.
    """
    start = perf_counter()
    counters = SearchCounters()
    report = SolveReport(INFEASIBLE, counters=counters)
    deadline = control.deadline if control is not None else None
    caller_stop = control.stop if control is not None else None

    order = build_search_order(net, trees)
    try:
        first_ap = pulse_optimal(net, trees, task.base, order=order,
                                 counters=counters, control=control)
        if first_ap is None:
            report.wall_time = perf_counter() - start
            return None, report
        report.ap_candidates_checked = 1
        pp = try_protect(net, trees, task, first_ap, order=order,
                         counters=counters, control=control)
        if pp is not None:
            report.outcome = PAIR
            report.wall_time = perf_counter() - start
            return DisjointPair(first_ap, pp), report
    except SearchInterrupted:
        report.outcome = TIMEOUT
        report.wall_time = perf_counter() - start
        return None, report

    width = corridor_width(net, cfg.alpha)
    start_cost = first_ap.total_cost
    guard = net.max_elementary_path_cost()
    # first corridor whose lower end passes the guard is widened to infinity
    k_last = max(0, (guard - start_cost) // width + 1)

    pool = _CorridorPool(k_last, cfg.max_corridors)
    counter_lock = threading.Lock()
    worker_stop = (pool.stop if caller_stop is None
                   else _EitherStop(pool.stop, caller_stop))

    def run_worker():
        local = SearchCounters()
        worker_control = SearchControl(deadline=deadline, stop=worker_stop)
        while True:
            k = pool.take_index()
            if k is None:
                break
            c_low = start_cost + k * width
            c_up = inf if k == pool.k_last else c_low + width
            try:
                pair, checked, more_above = _scan_corridor(
                    net, trees, task, first_ap, c_low, c_up, order, local,
                    worker_control)
            except SearchInterrupted:
                # the pool sets its stop event only after fixing its outcome,
                # so this is a no-op when a verdict cancelled the worker; a
                # passed deadline or the caller's stop ends the run inexactly
                pool.fail(TIMEOUT)
                break
            pool.complete(k, pair, checked, more_above)
        with counter_lock:
            counters.merge(local)

    if cfg.workers == 1:
        run_worker()
    else:
        threads = [threading.Thread(target=run_worker, name=f"corridor-{i}")
                   for i in range(cfg.workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    if pool.outcome == PAIR:
        k = pool.winner_k
        report.outcome = PAIR
        report.corridors_explored = k + 1
        report.ap_candidates_checked += sum(
            pool.checked[j] for j in range(k + 1))
        report.wall_time = perf_counter() - start
        return pool.results[k], report

    report.ap_candidates_checked += sum(pool.checked.values())
    if pool.outcome == INFEASIBLE:
        report.outcome = INFEASIBLE
        report.corridors_explored = pool.explored
    else:
        report.outcome = TIMEOUT
        report.corridors_explored = pool.explored or len(pool.results)
    report.wall_time = perf_counter() - start
    return None, report
