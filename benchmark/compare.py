#!/usr/bin/env python3
"""Show which solves moved between two runs of one workload.

    python3 benchmark/compare.py BEFORE.records.jsonl AFTER.records.jsonl

Joins the per-solve records that ``run.py`` writes to ``.bench_results/``
on (task, solver, traced) and prints each solve's fastest wall time after
over before, largest moves first.  Exact counts are compared only where
every pass of both runs finished before its deadline, because the work
done before a timeout depends on timing.
"""

from __future__ import annotations

import json
import sys
from math import log

COUNTS = ("pulses", "corridors", "candidates_checked", "candidates_enumerated")


def load(path):
    by_solve = {}
    with open(path, encoding="utf-8") as f:
        next(f)   # environment header
        for line in f:
            rec = json.loads(line)
            key = (rec["task"], rec["solver"], rec["traced"])
            by_solve.setdefault(key, []).append(rec)
    return by_solve


def main(before_path, after_path):
    before, after = load(before_path), load(after_path)
    rows = []
    for key in before.keys() & after.keys():
        b, a = before[key], after[key]
        ratio = min(r["wall_us"] for r in a) / min(r["wall_us"] for r in b)
        finished = all(r["outcome"] not in ("timeout", "error") for r in a + b)
        moved = [f"{c} {b[0][c]} -> {a[0][c]}" for c in COUNTS
                 if finished and b[0][c] != a[0][c]]
        rows.append((ratio, key, moved, finished))
    rows.sort(key=lambda row: -abs(log(row[0])))
    for ratio, (task, solver, traced), moved, finished in rows:
        note = "; ".join(moved) if finished else "counts not compared: timed out"
        print(f"{task:>6} {solver:6} traced={int(traced)} x{ratio:.3f}  {note}")
    print(f"{len(rows)} solves in both runs; "
          f"{sum(1 for row in rows if row[2])} with changed counts")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
