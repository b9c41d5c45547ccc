"""Benchmark harness: timed solver suites and the metric tables.

Each task is timed end to end, file I/O excluded but preprocessing (the
reverse trees) included -- per-task cost would be misstated otherwise, so
the tree cache is deliberately not used here.  Deadlines are enforced
cooperatively inside the engines.  With repetitions > 1 the minimum wall
time per task is kept, which suppresses scheduler noise; threshold counts
("solved under N ms") use strict less-than.  Both protocol choices are
recorded in the output metadata.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import IO, Iterable, Sequence

from . import btbu, btcs
from . import trees as trees_mod
from .btcs import BtcsConfig, DisjointPair
from .network import Network, Path, SrlgTask, Task
from .pulse import UNLIMITED, SearchControl
from .report import INFEASIBLE, OPTIMAL, PAIR, SolveReport
from .trees import ReverseTrees

SOLVERS = btbu.SCHEDULES + ("btcs",)
ERROR = "error"
THRESHOLDS_MS = (20.0, 50.0)
FEASIBLE_OUTCOMES = (OPTIMAL, PAIR)
RESOLVED_OUTCOMES = (OPTIMAL, PAIR, INFEASIBLE)


@dataclass
class BenchRecord:
    """One timed solve of one task."""

    task_id: int
    solver: str
    outcome: str
    wall_time_us: int
    pulses: int = 0
    corridors_explored: int = 0
    ap_candidates_checked: int = 0
    ap_cost: int | None = None
    error: str | None = None  # "<ExceptionType>: <message>" on error records

    @property
    def wall_time_ms(self) -> float:
        return self.wall_time_us / 1000.0


def solve(net: Network, trees: ReverseTrees, task: Task, solver: str,
          control: SearchControl = UNLIMITED,
          btcs_cfg: BtcsConfig = BtcsConfig()
          ) -> tuple[SolveReport, Path | DisjointPair | None]:
    """One task under one named solver: its report and its path or pair.

    ``btcs`` takes disjoint-pair tasks; every other name is a schedule of
    ``drcr.btbu.solve_btbu`` (pulse, btbu1, btbu2: first step f = inf,
    shortest, 2 * min_edge_cost), which raises ValueError on a name it does
    not know.  A deadline or stop in ``control`` is the TIMEOUT outcome for
    every solver, and every solver polls it once on entry, so one already
    passed or set ends the solve before its first pulse.  Raises ValueError
    when the solver does not take this kind of task, and IntegrityError (a
    ValueError) when a task node is not a network node.
    The solvers are looked up on their modules at call time, so a wrapper
    set on ``drcr.btcs.solve_btcs`` and the like sees every call.
    """
    if solver == "btcs":
        if not isinstance(task, SrlgTask):
            raise ValueError(f"btcs needs disjoint-pair tasks, got {task!r}")
        pair, report = btcs.solve_btcs(net, trees, task, btcs_cfg,
                                       control=control)
        return report, pair
    if isinstance(task, SrlgTask):
        raise ValueError(f"solver {solver!r} needs single-path tasks, got {task!r}")
    path, report = btbu.solve_btbu(net, trees, task, solver, control=control)
    return report, path


def run_suite(net: Network, tasks: Sequence[Task], solver: str, *,
              time_limit_ms: float | None = None, repetitions: int = 1,
              alpha: float = BtcsConfig.alpha) -> list[BenchRecord]:
    """Time every task under one solver; repetitions keep the fastest run.

    A solver crash on a task is recorded with outcome ``error``, zero
    counts and the exception text, and never aborts the suite.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    btcs_cfg = BtcsConfig(alpha=alpha)
    records = []
    for task_id, task in enumerate(tasks):
        best = None
        for _ in range(repetitions):
            control = SearchControl.from_time_limit_ms(time_limit_ms)
            t0 = perf_counter()
            try:
                trees = trees_mod.build_reverse_trees(net, task.target)
                report, result = solve(net, trees, task, solver, control,
                                       btcs_cfg)
                error = None
            except Exception as exc:
                report, result = SolveReport(ERROR), None
                error = f"{type(exc).__name__}: {exc}"
            elapsed_us = int((perf_counter() - t0) * 1e6)
            if best is None or elapsed_us < best.wall_time_us:
                ap = result.ap if isinstance(result, DisjointPair) else result
                best = BenchRecord(
                    task_id=task_id, solver=solver, outcome=report.outcome,
                    wall_time_us=elapsed_us, pulses=report.pulses,
                    corridors_explored=report.corridors_explored,
                    ap_candidates_checked=report.ap_candidates_checked,
                    ap_cost=ap.total_cost if ap is not None else None,
                    error=error)
        records.append(best)
    return records


@dataclass
class SolverSummary:
    solver: str
    tasks: int
    resolved: int
    feasible_found: int
    max_ms: float
    mean_ms: float
    median_ms: float
    solved_under_ms: dict[float, int]
    feasible_under_ms: dict[float, int]


def summary_of(solver: str, records: Sequence[BenchRecord]) -> SolverSummary:
    """The metric row of one solver's records, all zero when there are none."""
    times = [r.wall_time_ms for r in records]
    feasible = [r.wall_time_ms for r in records if r.outcome in FEASIBLE_OUTCOMES]
    resolved = [r.wall_time_ms for r in records if r.outcome in RESOLVED_OUTCOMES]
    return SolverSummary(
        solver=solver, tasks=len(times), resolved=len(resolved),
        feasible_found=len(feasible), max_ms=max(times, default=0.0),
        mean_ms=statistics.fmean(times) if times else 0.0,
        median_ms=statistics.median(times) if times else 0.0,
        solved_under_ms={t: sum(ms < t for ms in resolved) for t in THRESHOLDS_MS},
        feasible_under_ms={t: sum(ms < t for ms in feasible) for t in THRESHOLDS_MS})


def summarize(records: Iterable[BenchRecord]) -> list[SolverSummary]:
    """Per-solver metric rows; a pure function of the records."""
    by_solver: dict[str, list[BenchRecord]] = {}
    for r in records:
        by_solver.setdefault(r.solver, []).append(r)
    return [summary_of(solver, by_solver[solver]) for solver in sorted(by_solver)]


def _write_meta(f: IO[str], meta: dict | None) -> None:
    for key in sorted(meta or ()):
        f.write(f"# {key}={meta[key]}\n")


def write_records_jsonl(records: Iterable[BenchRecord], f: IO[str],
                        meta: dict | None = None) -> None:
    _write_meta(f, meta)
    for r in records:
        f.write(json.dumps(asdict(r), sort_keys=True) + "\n")


def _summary_cells(rows: Sequence[SolverSummary], digits: int) -> list[list[str]]:
    """The cells of each summary row, times to ``digits`` decimals."""
    return [[row.solver, *map(str, (row.tasks, row.resolved, row.feasible_found)),
             *(f"{ms:.{digits}f}" for ms in (row.max_ms, row.mean_ms, row.median_ms)),
             *map(str, row.solved_under_ms.values()),
             *map(str, row.feasible_under_ms.values())] for row in rows]


def write_summary_csv(rows: Sequence[SolverSummary], f: IO[str],
                      meta: dict | None = None) -> None:
    _write_meta(f, meta)
    if not rows:
        return
    thresholds = list(rows[0].solved_under_ms)
    header = ["solver", "tasks", "resolved", "feasible_found",
              "max_ms", "mean_ms", "median_ms",
              *(f"solved_under_{t:g}ms" for t in thresholds),
              *(f"feasible_under_{t:g}ms" for t in thresholds)]
    for cells in [header, *_summary_cells(rows, 3)]:
        f.write(",".join(cells) + "\n")


def write_summary_text(rows: Sequence[SolverSummary], f: IO[str],
                       meta: dict | None = None) -> None:
    _write_meta(f, meta)
    if not rows:
        f.write("(no records)\n")
        return
    thresholds = list(rows[0].solved_under_ms)
    table = [["solver", "tasks", "resolved", "feasible", "max ms",
              "mean ms", "median ms",
              *(f"<{t:g}ms" for t in thresholds),
              *(f"feas<{t:g}ms" for t in thresholds)],
             *_summary_cells(rows, 2)]
    widths = [max(map(len, column)) for column in zip(*table)]
    for r in table:
        f.write("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")


def sweep_alpha(net: Network, tasks: Sequence[Task],
                alphas: Sequence[float], *, time_limit_ms: float | None = None
                ) -> dict[float, list[BenchRecord]]:
    """Corridor-width sweep: one btcs suite per alpha value."""
    for alpha in alphas:
        BtcsConfig(alpha=alpha)  # a bad alpha fails before the first suite
    return {alpha: run_suite(net, tasks, "btcs", time_limit_ms=time_limit_ms,
                             alpha=alpha)
            for alpha in alphas}
