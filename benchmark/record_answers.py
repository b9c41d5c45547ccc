#!/usr/bin/env python3
"""Record the answers that ``verify.py`` compares against.

Run from the repository root, after a change to a workload's definition:

    python3 benchmark/record_answers.py

Every solve of every workload is run once under a generous deadline and
checked like a benchmark solve; the answers go to ``answers.json``.  A
solve that still times out is left out of the file, so it is not
compared.  Per-solve wall times are printed, which is what the
per-workload deadlines were chosen from.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import environment, solve   # run.py puts the checkout's src/ on the path

import verify
import workloads
from drcr.pulse import SearchControl
from drcr.report import TIMEOUT

DEADLINE_MS = 60_000


def main():
    out = {"deadline_ms": DEADLINE_MS, "git": environment(0)["git"],
           "workloads": {}}
    for name in workloads.NAMES:
        wl = workloads.build(name, 0)
        checker = verify.Checker({})
        answers = {}
        for s in sorted(wl.solves, key=lambda s: (s.task_id, s.solver)):
            control = SearchControl.from_time_limit_ms(DEADLINE_MS)
            t0 = perf_counter()
            report, result = solve(s.net, s.task, s.solver, control)
            wall_ms = (perf_counter() - t0) * 1000
            print(f"{name} {s.task_id} {s.solver} {report.outcome} {wall_ms:.1f} ms",
                  flush=True)
            if report.outcome == TIMEOUT:
                continue
            problem = checker.problem(s, result)
            if problem:
                sys.exit(f"{name} {s.task_id} {s.solver}: {problem}")
            answers[s.task_id] = verify.answer_of(result)
        out["workloads"][name] = answers
    with open(verify.ANSWERS_FILE, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
