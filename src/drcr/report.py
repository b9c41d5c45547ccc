"""Solver outcome plus instrumentation counters."""

from __future__ import annotations

from dataclasses import dataclass, field

from .pulse import SearchCounters

OPTIMAL = "optimal"        # single-path solvers: optimum found
PAIR = "pair"              # disjoint-pair solver: pair found
INFEASIBLE = "infeasible"  # proven: no solution exists
TIMEOUT = "timeout"        # deadline or corridor cap hit before a verdict


@dataclass
class SolveReport:
    """What a solver decided and how much work it took.

    ``corridors_explored`` and ``ap_candidates_checked`` stay zero for
    single-path solvers; ``iterations`` counts bound-schedule probes (one
    for a ``pulse`` solve, none when the source cannot reach the target)
    and stays zero for the corridor solver.  ``srlg_cut`` is a group that
    every source-target path of delay at most ``d_up`` uses, the corridor
    solver's proof of infeasibility before any AP search.  It is set only
    when such a path exists, and is None for every other verdict.
    """

    outcome: str
    corridors_explored: int = 0
    ap_candidates_checked: int = 0
    iterations: int = 0
    srlg_cut: int | None = None
    counters: SearchCounters = field(default_factory=SearchCounters)

    @property
    def pulses(self) -> int:
        return self.counters.pulses
