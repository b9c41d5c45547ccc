"""Answer checks that do not trust the solvers.

Every returned path is re-walked against the raw edge data with
``check_path`` and tested against its delay window.  A disjoint pair is
also tested for the delay-difference limit and for shared edges or SRLG
groups, recomputed from ``net.edge_srlgs``.  Each answer (an optimal cost,
a min-min active-path cost, or ``None`` for a proven infeasible verdict) is
compared with the answers recorded in ``answers.json``, with the other
single-path solvers on the same task, and with the same solve in earlier
passes.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath

from drcr.btcs import DisjointPair
from drcr.network import IntegrityError, check_path

ANSWERS_FILE = FsPath(__file__).with_name("answers.json")
NO_ANSWER = object()   # no recorded answer: the recording run timed out


def load_answers(workload: str) -> dict:
    """Recorded answers by task id."""
    with open(ANSWERS_FILE, encoding="utf-8") as f:
        return json.load(f)["workloads"][workload]


def path_problem(net, path, task) -> str | None:
    try:
        check_path(net, path, task.source, task.target)
    except IntegrityError as exc:
        return f"bad path: {exc}"
    if not task.d_low <= path.total_delay <= task.d_up:
        return f"delay {path.total_delay} outside [{task.d_low}, {task.d_up}]"
    return None


def pair_problem(net, pair, task) -> str | None:
    for role, path in (("active", pair.ap), ("protection", pair.pp)):
        problem = path_problem(net, path, task)
        if problem:
            return f"{role} path: {problem}"
    if abs(pair.ap.total_delay - pair.pp.total_delay) > task.d_diff:
        return f"delay difference above d_diff={task.d_diff}"
    if set(pair.ap.edges) & set(pair.pp.edges):
        return "active and protection paths share an edge"
    ap_groups = set()
    for eid in pair.ap.edges:
        ap_groups |= net.edge_srlgs[eid]
    if any(net.edge_srlgs[eid] & ap_groups for eid in pair.pp.edges):
        return "active and protection paths share an SRLG group"
    return None


def answer_of(result):
    """The comparable answer: path cost, active-path cost, or None."""
    if result is None:
        return None
    if isinstance(result, DisjointPair):
        return result.ap.total_cost
    return result.total_cost


class Checker:
    """Checks each finished solve; remembers answers for cross-checks."""

    def __init__(self, recorded: dict):
        self.recorded = recorded
        self.seen: dict[str, object] = {}   # task id -> first answer given

    def problem(self, solve, result) -> str | None:
        if result is not None:
            check = pair_problem if solve.solver == "btcs" else path_problem
            problem = check(solve.net, result, solve.task)
            if problem:
                return problem
        answer = answer_of(result)
        expected = self.recorded.get(solve.task_id, NO_ANSWER)
        if expected is not NO_ANSWER and answer != expected:
            return f"answer {answer} differs from recorded {expected}"
        earlier = self.seen.setdefault(solve.task_id, answer)
        if answer != earlier:
            return f"answer {answer} differs from an earlier answer {earlier}"
        return None
