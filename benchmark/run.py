#!/usr/bin/env python3
"""drcr benchmark: one closed-loop client solving a generated workload.

Run from the repository root:

    python3 benchmark/run.py --workload drcr-1000 --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --smoke

The workload (see ``workloads.py``) is generated and set up three times;
``--seed`` shuffles the order of its solves.  Then whole passes over the
solves run until ``--seconds`` have elapsed, and at least two passes.  A
solve is timed the paper's way: fresh reverse trees, the search order and
the solver call, file I/O excluded.  Each solve starts after the previous
one returns, in this one process, with ``workers=1``.  Every answer is
checked (``verify.py``); a wrong answer or an error makes the exit code
nonzero.

End-to-end metrics (``--trace 0``).  Each solve is taken at its fastest
pass, as ``drcr.bench`` keeps the fastest repetition; on a shared host this
filters out the spells in which everything runs up to 1.7x slower:

* ``task_p50_ms``: median solve time.
* ``task_tail_ms``: the solve time with ten solves beyond it; the line
  above the JSON names its percentile and the solve count N.
* ``solves_per_s``: solves per second of summed solve time.
* ``setup_s``: median wall time of the three set-ups (the drcr.netgen layer).
* ``peak_rss_mb``: peak resident memory of this process.

``fail_frac`` (timeouts, errors and wrong answers over solves attempted)
is printed but is not a JSON metric, because it is zero on a workload
without deadlines; the JSON carries it as ``failed`` over ``attempted``.

``--trace 1`` runs every solve twice, untraced and traced, in alternating
order, and reports the per-layer split from the traced copies as sums over
one pass, the tracing overhead, and the share of traced solve time the
layer spans cover.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-solve records (pass, task,
solver, traced, outcome, wall_us, pulses, corridors, candidates checked
and, traced, enumerated) and the spans go to ``.bench_results/``;
``compare.py`` lists the solves that moved between two runs.

``--smoke`` runs all three workloads at tiny scale, traced and untraced,
and checks that one deliberately corrupted answer is counted as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

sys.path.insert(0, str(SRC))
try:
    import drcr
except ImportError:
    drcr = None
if drcr is None or Path(drcr.__file__).resolve().parent != SRC / "drcr":
    sys.exit(f"run.py: no drcr package under {SRC}; run from a full checkout")

import drcr.btbu  # noqa: E402
import drcr.btcs  # noqa: E402
import drcr.pulse  # noqa: E402
import drcr.trees  # noqa: E402
from drcr.btbu import BTBU1, BTBU2  # noqa: E402
from drcr.btcs import BtcsConfig  # noqa: E402
from drcr.network import Path as DrcrPath  # noqa: E402
from drcr.pulse import SearchControl, SearchCounters, SearchTimeout  # noqa: E402
from drcr.report import INFEASIBLE, OPTIMAL, TIMEOUT, SolveReport  # noqa: E402

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
BTCS_CFG = BtcsConfig(alpha=10.0, workers=1)
BTBU = {"btbu1": BTBU1, "btbu2": BTBU2}
ERROR = "error"
WRONG = "wrong"


def solve(net, task, solver, control):
    """One solve: reverse trees, search order and solver, via module lookups.

    Looking functions up on their modules at call time is what lets the
    traced run swap in its wrappers.
    """
    trees = drcr.trees.build_reverse_trees(net, task.target)
    if solver == "btcs":
        pair, report = drcr.btcs.solve_btcs(net, trees, task, BTCS_CFG,
                                            control=control)
        return report, pair
    order = drcr.pulse.build_search_order(net, trees)
    if solver == "pulse":
        counters = SearchCounters()
        try:
            path = drcr.pulse.pulse_optimal(net, trees, task, order=order,
                                            counters=counters, control=control)
        except SearchTimeout:
            return SolveReport(TIMEOUT, counters=counters), None
        outcome = OPTIMAL if path is not None else INFEASIBLE
        return SolveReport(outcome, counters=counters), path
    path, report = drcr.btbu.solve_btbu(net, trees, task, BTBU[solver],
                                        order=order, control=control)
    return report, path


def timed_solve(fn, s, deadline_ms):
    """Run and time one solve; returns (seconds, report, result, error)."""
    control = SearchControl.from_time_limit_ms(deadline_ms)
    t0 = perf_counter()
    try:
        report, result = fn(s.net, s.task, s.solver, control)
        error = None
    except Exception as exc:  # a crash is recorded and counted, never fatal
        report, result, error = None, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, report, result, error


class Run:
    """Executes passes over a workload, checks answers, keeps records."""

    def __init__(self, wl, checker, tracer=None, solve_fn=solve):
        self.wl = wl
        self.checker = checker
        self.tracer = tracer
        self.solve_fn = solve_fn
        self.records: list[dict] = []
        self.times = {False: [], True: []}   # traced? -> [(solve index, s)]
        self.counts = {TIMEOUT: 0, ERROR: 0, WRONG: 0}
        self.reports: list = []              # reports of traced solves
        self.passes = 0

    def one(self, i, s, traced):
        tracer = self.tracer if traced else None
        fn = self.solve_fn
        if tracer:
            first_span = len(tracer.spans)
            tracer.solve_id = len(self.records)
            fn = tracer.wrap(tracing.ROOT, fn)
        wall, report, result, error = timed_solve(fn, s, self.wl.deadline_ms)
        if error is not None:
            outcome = ERROR
        elif report.outcome == TIMEOUT:
            outcome = TIMEOUT
        else:
            problem = self.checker.problem(s, result)
            outcome = WRONG if problem else report.outcome
            if problem:
                error = problem
        if outcome in self.counts:
            self.counts[outcome] += 1
        self.times[traced].append((i, wall))
        rec = {"pass": self.passes, "task": s.task_id, "solver": s.solver,
               "traced": traced, "outcome": outcome,
               "wall_us": round(wall * 1e6),
               "pulses": report.pulses if report else None,
               "corridors": report.corridors_explored if report else None,
               "candidates_checked": report.ap_candidates_checked if report else None,
               "candidates_enumerated": None}
        if tracer:
            spans = tracer.spans[first_span:]
            # a corridor scan cut by the deadline returns nothing to count
            rec["candidates_enumerated"] = sum(
                sp[tracing.VALUE] or 0 for sp in spans
                if sp[tracing.NAME] == "pulse.corridor")
            if report is not None:
                self.reports.append((s.solver, report))
        if error is not None:
            rec["error"] = error
        self.records.append(rec)

    def measure(self, seconds, paired):
        """Whole passes until ``seconds`` have elapsed; at least two passes.

        The workload's inputs are moved out of the cyclic collector's view
        first, as a long-running service would do with its network: a full
        collection that walks every edge of the 1000-node graphs pauses a
        solve for 30-45 ms (2-core Xeon VM) and would otherwise set the tail.
        """
        gc.collect()
        gc.freeze()
        start = perf_counter()
        while self.passes < MIN_PASSES or perf_counter() - start < seconds:
            for i, s in enumerate(self.wl.solves):
                if not paired:
                    self.one(i, s, False)
                else:   # alternate which copy runs first
                    for traced in ((False, True) if i % 2 else (True, False)):
                        if traced:
                            self.tracer.install()
                        try:
                            self.one(i, s, traced)
                        finally:
                            if traced:
                                self.tracer.uninstall()
            self.passes += 1

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(self.counts.values())


def best_times(pairs):
    """Each solve's fastest pass, in seconds, sorted."""
    best = {}
    for i, wall in pairs:
        best[i] = min(wall, best.get(i, wall))
    return sorted(best.values())


def end_to_end(run, setup_s):
    times = best_times(run.times[False])
    n = len(times)
    rank = max(1, n - 10)   # ten solves beyond it
    return {
        "task_p50_ms": (statistics.median(times) * 1000, "ms"),
        "task_tail_ms": (times[rank - 1] * 1000, "ms"),
        "solves_per_s": (n / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, 100.0 * rank / n


def per_layer(run, phase_s):
    per = 1.0 / run.passes
    t = tracing.Totals(run.tracer.spans)
    rep = [r for _, r in run.reports]
    pulses = sum(r.pulses for r in rep)
    pulse_self_us = sum(t.self_ms(n) for n in (
        "pulse.optimal", "pulse.corridor", "pulse.first_feasible")) * 1000
    protects = t.count("btcs.protect")
    enumerated = t.value_sum("pulse.corridor")
    checked = protects - t.stage1_protects
    cutoffs = t.value_sum("network.connectivity")
    untraced = sum(best_times(run.times[False]))
    traced = sum(best_times(run.times[True]))
    root_total = t.total_ms(tracing.ROOT)
    m = {
        "trees.build_ms": (t.self_ms("trees.build") * per, "ms"),
        "trees.calls": (t.count("trees.build") * per, "count"),
        "pulse.order_ms": (t.self_ms("pulse.order") * per, "ms"),
        "pulse.optimal_ms": (t.self_ms("pulse.optimal") * per, "ms"),
        "pulse.optimal_calls": (t.count("pulse.optimal") * per, "count"),
        "pulse.corridor_ms": (t.self_ms("pulse.corridor") * per, "ms"),
        "pulse.corridor_calls": (t.count("pulse.corridor") * per, "count"),
        "pulse.first_feasible_ms": (t.self_ms("pulse.first_feasible") * per, "ms"),
        "pulse.pulses": (pulses * per, "count"),
        "pulse.infeasibility_prunes": (
            sum(r.counters.infeasibility_prunes for r in rep) * per, "count"),
        "pulse.cost_prunes": (sum(r.counters.cost_prunes for r in rep) * per, "count"),
        "pulse.pulses_per_us": (ratio(pulses, pulse_self_us), "1/us"),
        "btbu.probes": (sum(r.iterations for s, r in run.reports
                            if s in BTBU) * per, "count"),
        "btbu.self_ms": (t.self_ms("btbu.solve") * per, "ms"),
        "btcs.self_ms": (t.self_ms("btcs.solve") * per, "ms"),
        "btcs.corridors": (sum(r.corridors_explored for r in rep) * per, "count"),
        "btcs.candidates_enumerated": (enumerated * per, "count"),
        "btcs.max_corridor_candidates": (t.value_max("pulse.corridor"), "count"),
        "btcs.candidates_checked": (checked * per, "count"),
        "btcs.protect_calls": (protects * per, "count"),
        "btcs.protect_found": (t.value_sum("btcs.protect") * per, "count"),
        "btcs.protect_ms": (t.total_ms("btcs.protect") * per, "ms"),
        "btcs.checked_per_enumerated": (ratio(checked, enumerated), "ratio"),
        "network.strip_ms": (t.self_ms("network.strip") * per, "ms"),
        "network.connectivity_ms": (t.self_ms("network.connectivity") * per, "ms"),
        "network.connectivity_cutoffs": (cutoffs * per, "count"),
        "network.cutoffs_per_protect": (ratio(cutoffs, protects), "ratio"),
        "trace.solve_ms": (root_total * per, "ms"),
        "trace.overhead_frac": (1.0 - untraced / traced, "ratio"),
        "trace.coverage_frac": (1.0 - t.self_ms(tracing.ROOT) / root_total, "ratio"),
    }
    for phase in workloads.PHASES:
        m[f"netgen.{phase}_s"] = (phase_s[phase], "s")
    return m, t


def ratio(a, b):
    return a / b if b else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed):
    import networkx
    import numpy
    import scipy
    commit = "unknown"   # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "git": commit}


def setup(name, seed, repeats, scale=workloads.FULL):
    """Build the workload ``repeats`` times; median total and phase seconds."""
    built = []
    for _ in range(repeats):
        gc.collect()
        t0 = perf_counter()
        wl = workloads.build(name, seed, scale)
        built.append((perf_counter() - t0, wl))
    phase_s = {p: statistics.median(b[1].phase_s[p] for b in built)
               for p in workloads.PHASES}
    return built[-1][1], statistics.median(b[0] for b in built), phase_s


def run_workload(name, seed, seconds, trace, scale=workloads.FULL):
    """Set up, measure and check one workload; returns (run, metrics)."""
    env = environment(seed)
    print(f"drcr benchmark: workload={name} seed={seed} seconds={seconds} "
          f"trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    repeats = 1 if trace else SETUP_REPEATS
    wl, setup_s, phase_s = setup(name, seed, repeats, scale)
    print(f"setup {setup_s:.3f} s (median of {repeats}); "
          f"{len(wl.solves)} solves per pass; deadline "
          f"{'none' if wl.deadline_ms is None else f'{wl.deadline_ms:g} ms'}")
    recorded = verify.load_answers(name) if scale == workloads.FULL else {}
    checker = verify.Checker(recorded)
    run = Run(wl, checker, tracing.Tracer() if trace else None)
    run.measure(seconds, paired=bool(trace))
    print(f"measured {run.attempted} solves in {run.passes} passes; "
          f"checked against {len(checker.recorded)} recorded answers")

    if trace:
        metrics, totals = per_layer(run, phase_s)
        solve_ms = metrics["trace.solve_ms"][0]
        share = sum(totals.self_ms(n) for n in wl.majority) / run.passes / solve_ms
        verdict = "matches" if share > 0.5 else "DOES NOT match"
        print(f"split: {'+'.join(wl.majority)} self time is {share:.1%} of "
              f"traced solve time; {verdict} the expected majority")
        coverage = metrics["trace.coverage_frac"][0]
        print(f"layer self times cover {coverage:.2%} of traced solve time "
              f"({'accounted for' if coverage >= 0.95 else 'NOT accounted for'}); "
              f"tracing overhead {metrics['trace.overhead_frac'][0]:.2%} of "
              "untraced solves_per_s")
    else:
        metrics, tail_pct = end_to_end(run, setup_s)
        print(f"task_tail_ms is p{tail_pct:.2f} of N={len(wl.solves)} solves")
    c = run.counts
    print(f"fail_frac {ratio(run.failed, run.attempted):.4f} ({run.failed} of "
          f"{run.attempted}: {c[TIMEOUT]} timeout, {c[ERROR]} error, "
          f"{c[WRONG]} wrong)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:30s} {value:14.6g} {unit}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{trace}"
    with open(f"{stem}.records.jsonl", "w", encoding="utf-8") as f:
        f.write(json.dumps({"env": env, "workload": name}) + "\n")
        for rec in run.records:
            f.write(json.dumps({"workload": name, **rec}) + "\n")
    if trace:
        run.tracer.write_jsonl(f"{stem}.spans.jsonl")
    return run, metrics


def result_line(run, metrics):
    """The closing JSON object; ``correct`` is false on any error or wrong answer."""
    correct = run.counts[ERROR] == 0 and run.counts[WRONG] == 0
    return correct, json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def corrupting(fn):
    """``fn`` with the first returned path's cached cost off by one."""
    done = []

    def corrupted(net, task, solver, control):
        report, path = fn(net, task, solver, control)
        if path is not None and not done:
            done.append(path)
            path = DrcrPath(path.edges, path.total_cost - 1, path.total_delay)
        return report, path

    return corrupted


def smoke():
    """Every workload at tiny scale, untraced and traced, then one corrupted
    answer that has to be counted as a wrong answer."""
    ok = True
    for name in workloads.NAMES:
        for trace in (0, 1):
            run, metrics = run_workload(name, 0, 0.0, trace, workloads.SMOKE)
            correct, line = result_line(run, metrics)
            print(line)
            if run.attempted == 0 or not correct:
                print(f"smoke: {name} trace={trace} FAILED")
                ok = False
    wl = workloads.build("drcr-1000", 0, workloads.SMOKE)
    run = Run(wl, verify.Checker({}), solve_fn=corrupting(solve))
    run.measure(0.0, paired=False)
    correct, line = result_line(run, {})
    print(line)
    caught = run.counts[WRONG] == 1 and run.failed == 1 and not correct
    print(f"smoke: corrupted answer {'counted as failed' if caught else 'NOT caught'}")
    ok = ok and caught
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    run, metrics = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
    correct, line = result_line(run, metrics)
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
