"""Single-path solving via iteratively raised artificial cost bounds.

The plain optimal pulse search starts with an infinite incumbent, so the
cost pruning is idle until the first feasible path turns up -- usually a
path far up the cost distribution.  The bound schedules instead run the
search under a deliberately tight artificial bound derived from the
unconstrained shortest cost, doubling their way up on failure.  Failed
probes scan the nearly empty left tail of the distribution and are cheap;
the first successful probe returns the exact optimum, because a probe at
bound B is exhaustive over all paths cheaper than B.

Every schedule probes shortest + f first; the step starts at f and
doubles after each failed probe.  A failed probe also returns its floor:
no window-feasible path costs less (the threshold of iterative deepening,
Korf 1985).  So the next bound is the larger of bound + step and
floor + 1, the floors rise strictly, and a floor of inf proves the task
infeasible with no further probe.  The schedule's name picks f:

* pulse: f = inf.  The one probe is unbounded: the plain pulse search.
* btbu1: f = shortest, so the bound at least doubles: 2*shortest,
  4*shortest, ... unless a floor lifts it higher.
* btbu2: f = twice the cheapest edge cost.
"""

from __future__ import annotations

from .network import Network, Path, DrcrTask, check_task_nodes
from .pulse import (INF, UNLIMITED, SearchControl, SearchCounters,
                    SearchInterrupted, SearchOrder, build_search_order,
                    pulse_probe)
# benchmark/tracing.py wraps this module attribute; no probe here calls it
from .pulse import pulse_optimal  # noqa: F401
from .report import INFEASIBLE, OPTIMAL, TIMEOUT, SolveReport
from .trees import ReverseTrees

PULSE = "pulse"
BTBU1 = "btbu1"
BTBU2 = "btbu2"
SCHEDULES = (PULSE, BTBU1, BTBU2)


def solve_btbu(net: Network, trees: ReverseTrees, task: DrcrTask,
               schedule: str = BTBU1, *, order: SearchOrder | None = None,
               control: SearchControl = UNLIMITED) -> tuple[Path | None, SolveReport]:
    """Exact optimum for the task via the named schedule, one of SCHEDULES.

    The first step f is inf for ``pulse``, shortest for ``btbu1`` and
    2 * min_edge_cost for ``btbu2``; any other name raises ValueError.  A
    source that cannot reach the target is INFEASIBLE with no probe.  A
    deadline passed or a stop event set in ``control``, polled once on
    entry and then between pulses, ends the run with the inexact TIMEOUT
    outcome and no path.  Raises IntegrityError when a task node is not a
    node of ``net``.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    check_task_nodes(net, task)
    counters = SearchCounters()
    report = SolveReport(INFEASIBLE, counters=counters)
    try:
        control.poll()
        shortest = trees.min_cost_to_target[task.source]
        if shortest == INF:
            return None, report
        if order is None:
            order = build_search_order(net, trees)
        step = (INF if schedule == PULSE else shortest if schedule == BTBU1
                else 2 * net.min_edge_cost)
        bound = shortest + step
        while True:
            report.iterations += 1
            path, floor = pulse_probe(net, trees, task, bound, order=order,
                                      counters=counters, control=control)
            if path is not None or floor == INF:
                break
            step *= 2
            bound = max(bound + step, floor + 1)
    except SearchInterrupted:
        report.outcome = TIMEOUT
        return None, report

    report.outcome = OPTIMAL if path is not None else INFEASIBLE
    return path, report
