"""Command-line entry point: generation, solving, analysis, benchmarking.

Exit status: 0 on success (an ``infeasible`` verdict is a reported result,
not a failure), 1 on usage errors, 2 on I/O or parse errors.  Results go to
stdout or ``--out``; diagnostics go to stderr.  Generation subcommands are
deterministic: the same invocation with the same seed writes byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import bench as bench_mod
from . import netgen
from .btbu import BTBU1, SCHEDULES
from .btcs import BtcsConfig
from .network import (IntegrityError, ParseError, SrlgTask, format_task,
                      load_network, load_tasks, parse_task_line, save_network,
                      save_srlgs, save_tasks)
from .oracle import DEFAULT_PATH_CAP, build_histogram
from .pulse import SearchControl
from .trees import TreeCache

_USAGE_EXIT = 1
_IO_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


@contextmanager
def _out_stream(out):
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8") as f:
            yield f


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    return int(parts[0]), int(parts[1])


def _alpha_list(text: str) -> list[float]:
    alphas = [float(p) for p in text.split(",") if p]
    if not alphas or len(set(alphas)) < len(alphas):
        raise argparse.ArgumentTypeError(f"expected distinct alphas, got {text!r}")
    return alphas


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drcr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen-graph", help="generate a random network file")
    p.add_argument("--topology", choices=("er", "scale-free", "sf"), required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--density", type=int, required=True,
                   help="ER mean out-degree, or scale-free attachment m")
    p.add_argument("--cost-range", type=_int_pair, default=(1, 100))
    p.add_argument("--delay-range", type=_int_pair, default=(1, 100))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-srlg", help="generate SRLG groups for a network")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", choices=("random", "star"), required=True)
    p.add_argument("--size-range", type=_int_pair, default=(1, 40))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-tasks", help="generate routing tasks for a network")
    p.add_argument("--graph", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--kind", choices=("drcr", "srlg"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("filter-tasks",
                       help="drop infeasible tasks / keep only traps")
    p.add_argument("--graph", required=True)
    p.add_argument("--srlg")
    p.add_argument("--tasks", required=True)
    p.add_argument("--kind", choices=("drcr", "srlg"), required=True)
    p.add_argument("--alpha", type=float, default=BtcsConfig.alpha)
    p.add_argument("--max-corridors", type=int)
    p.add_argument("--time-limit-ms", type=float,
                   help="per-task deadline; a task it ends is kept as unknown")
    p.add_argument("--out", required=True)
    p.add_argument("--labels-out")

    p = sub.add_parser("solve-drcr", help="solve single-path tasks")
    p.add_argument("--graph", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--solver", choices=SCHEDULES, default=BTBU1)
    p.add_argument("--time-limit-ms", type=float)
    p.add_argument("--out")

    p = sub.add_parser("solve-srlg", help="solve disjoint-pair tasks")
    p.add_argument("--graph", required=True)
    p.add_argument("--srlg", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--alpha", type=float, default=BtcsConfig.alpha)
    p.add_argument("--max-corridors", type=int)
    p.add_argument("--time-limit-ms", type=float)
    p.add_argument("--out")

    p = sub.add_parser("histogram", help="path-cost distribution CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--srlg")
    p.add_argument("--task", required=True,
                   help="inline task 'src,dst,d_low,d_up[,d_diff]'")
    p.add_argument("--bin", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_PATH_CAP)
    p.add_argument("--ceiling", type=int,
                   help="only sweep cost bins up to this value")
    p.add_argument("--no-all", action="store_true",
                   help="skip the unpruned all-paths series")
    p.add_argument("--time-limit-ms", type=float, default=60_000.0,
                   help="deadline for the whole histogram (default "
                        "%(default)g ms, 'inf' for none); the bins it "
                        "completed are written, marked truncated")
    p.add_argument("--out")

    p = sub.add_parser("bench", help="timed solver suite over a task file")
    p.add_argument("--graph", required=True)
    p.add_argument("--srlg")
    p.add_argument("--tasks", required=True)
    p.add_argument("--solver", action="append", required=True,
                   choices=bench_mod.SOLVERS,
                   help="repeatable, each solver once; each runs the "
                        "whole suite")
    p.add_argument("--time-limit-ms", type=float)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--alpha", type=float, default=BtcsConfig.alpha)
    p.add_argument("--records", help="write per-task records (JSON lines)")
    p.add_argument("--summary-csv")
    p.add_argument("--out", help="aligned-text summary (default stdout)")

    p = sub.add_parser("sweep-alpha", help="corridor-width sweep for btcs")
    p.add_argument("--graph", required=True)
    p.add_argument("--srlg", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--alphas", type=_alpha_list,
                   default=[1, 2, 5, 10, 20, 50, 100])
    p.add_argument("--time-limit-ms", type=float)
    p.add_argument("--out")

    return parser


def _cmd_gen_graph(args) -> int:
    topology = "scale-free" if args.topology == "sf" else args.topology
    spec = netgen.GenSpec(topology=topology, nodes=args.nodes,
                          density_param=args.density,
                          cost_range=args.cost_range,
                          delay_range=args.delay_range, seed=args.seed)
    net = netgen.gen_graph(spec)
    save_network(net, args.out)
    netgen.write_manifest(args.out, "graph", {
        "topology": topology, "nodes": args.nodes, "density": args.density,
        "cost_range": list(args.cost_range), "delay_range": list(args.delay_range),
        "seed": args.seed})
    print(f"wrote {args.out}: {net!r}", file=sys.stderr)
    return 0


def _cmd_gen_srlg(args) -> int:
    net = load_network(args.graph)
    spec = netgen.SrlgSpec(pattern=args.pattern, seed=args.seed,
                           random_size_range=args.size_range)
    groups = netgen.gen_srlg(net, spec)
    save_srlgs(groups, args.out)
    netgen.write_manifest(args.out, "srlg", {
        "graph": args.graph, "pattern": args.pattern,
        "size_range": list(args.size_range), "seed": args.seed})
    print(f"wrote {args.out}: {len(groups)} groups", file=sys.stderr)
    return 0


def _cmd_gen_tasks(args) -> int:
    net = load_network(args.graph)
    tasks = netgen.gen_tasks(net, args.count, args.kind, args.seed)
    save_tasks(tasks, args.out)
    netgen.write_manifest(args.out, "tasks", {
        "graph": args.graph, "count": args.count, "kind": args.kind,
        "seed": args.seed})
    print(f"wrote {args.out}: {len(tasks)} tasks", file=sys.stderr)
    return 0


def _cmd_filter_tasks(args) -> int:
    net = load_network(args.graph, args.srlg)
    tasks = _tasks_of_kind(args, net.node_count, srlg=args.kind == "srlg")
    cfg = BtcsConfig(alpha=args.alpha, max_corridors=args.max_corridors)
    kept, labels = netgen.filter_tasks(net, tasks, args.kind, btcs_cfg=cfg,
                                       time_limit_ms=args.time_limit_ms)
    save_tasks(kept, args.out)
    if args.labels_out:
        with open(args.labels_out, "w", encoding="utf-8") as f:
            for task, label in zip(kept, labels):
                f.write(f"{format_task(task)},{label}\n")
    print(f"kept {len(kept)}/{len(tasks)} tasks "
          f"({', '.join(sorted(set(labels))) or 'none'})", file=sys.stderr)
    return 0


def _tasks_of_kind(args, node_count: int, srlg: bool) -> list:
    """The tasks of ``args.tasks``, each checked before any is solved to be
    of the kind the command solves, so a wrong-kind task writes no result."""
    tasks = load_tasks(args.tasks, node_count)
    want, got = (5, 4) if srlg else (4, 5)
    for number, task in enumerate(tasks, 1):
        if isinstance(task, SrlgTask) != srlg:
            raise IntegrityError(
                f"{args.tasks}: task {number} ({format_task(task)}) has {got} "
                f"columns; {args.command} expects {want}-column tasks")
    return tasks


def _cmd_solve(args) -> int:
    srlg = args.command == "solve-srlg"
    net = load_network(args.graph, args.srlg if srlg else None)
    tasks = _tasks_of_kind(args, net.node_count, srlg)
    cache = TreeCache(net)
    solver = "btcs" if srlg else args.solver
    cfg = (BtcsConfig(alpha=args.alpha, max_corridors=args.max_corridors)
           if srlg else BtcsConfig())
    with _out_stream(args.out) as out:
        for task in tasks:
            control = SearchControl.from_time_limit_ms(args.time_limit_ms)
            report, result = bench_mod.solve(net, cache.get(task.target), task,
                                             solver, control, cfg)
            row = {"task": format_task(task), "outcome": report.outcome}
            if srlg:
                row.update(corridors_explored=report.corridors_explored,
                           ap_candidates_checked=report.ap_candidates_checked)
                if report.srlg_cut is not None:
                    row["srlg_cut"] = report.srlg_cut
                if result is not None:
                    row.update(ap_cost=result.ap.total_cost,
                               ap_delay=result.ap.total_delay,
                               ap_edges=list(result.ap.edges),
                               pp_delay=result.pp.total_delay,
                               pp_edges=list(result.pp.edges))
            elif result is not None:
                row.update(cost=result.total_cost, delay=result.total_delay,
                           edges=list(result.edges))
            out.write(json.dumps(row) + "\n")
    return 0


def _cmd_histogram(args) -> int:
    net = load_network(args.graph, args.srlg)
    task = parse_task_line(args.task, "<--task>", 1, net.node_count)
    hist = build_histogram(net, task, args.bin, args.cap,
                           cost_ceiling=args.ceiling,
                           include_all=not args.no_all,
                           control=SearchControl.from_time_limit_ms(
                               args.time_limit_ms))
    with _out_stream(args.out) as out:
        hist.to_csv(out)
    return 0


def _cmd_bench(args) -> int:
    if len(set(args.solver)) < len(args.solver):
        raise ValueError(f"each --solver may be given once, got "
                         f"{', '.join(args.solver)}")
    srlg = "btcs" in args.solver
    if srlg and set(args.solver) != {"btcs"}:
        raise ValueError("btcs takes 5-column tasks and the other solvers "
                         "4-column tasks; bench them in separate runs")
    net = load_network(args.graph, args.srlg)
    tasks = _tasks_of_kind(args, net.node_count, srlg)
    meta = {"graph": args.graph, "tasks": args.tasks,
            "time_limit_ms": args.time_limit_ms,
            "repetitions": args.repetitions, "alpha": args.alpha,
            "threshold_rule": "strict-less-than",
            "repetition_rule": "min-wall-time",
            "timing": "per-task, preprocessing included, file I/O excluded"}
    all_records = []
    for solver in args.solver:
        all_records.extend(bench_mod.run_suite(
            net, tasks, solver, time_limit_ms=args.time_limit_ms,
            repetitions=args.repetitions, alpha=args.alpha))
    rows = bench_mod.summarize(all_records)
    if args.records:
        with open(args.records, "w", encoding="utf-8") as f:
            bench_mod.write_records_jsonl(all_records, f, meta)
    if args.summary_csv:
        with open(args.summary_csv, "w", encoding="utf-8") as f:
            bench_mod.write_summary_csv(rows, f, meta)
    with _out_stream(args.out) as out:
        bench_mod.write_summary_text(rows, out, meta)
    return 0


def _cmd_sweep_alpha(args) -> int:
    net = load_network(args.graph, args.srlg)
    tasks = _tasks_of_kind(args, net.node_count, srlg=True)
    sweeps = bench_mod.sweep_alpha(net, tasks, args.alphas,
                                   time_limit_ms=args.time_limit_ms)
    thresholds = bench_mod.THRESHOLDS_MS
    with _out_stream(args.out) as out:
        out.write(",".join(["alpha", "tasks", "feasible_found",
                            *(f"feasible_under_{t:g}ms" for t in thresholds),
                            "max_ms", "mean_ms", "median_ms"]) + "\n")
        for alpha in args.alphas:
            rows = bench_mod.summarize(sweeps[alpha])
            if rows:
                row = rows[0]
                counts = [row.tasks, row.feasible_found,
                          *(row.feasible_under_ms[t] for t in thresholds)]
                times = [row.max_ms, row.mean_ms, row.median_ms]
            else:  # no tasks, so no btcs records to summarize
                counts, times = [0] * (2 + len(thresholds)), [0.0] * 3
            out.write(",".join([f"{alpha:g}", *map(str, counts),
                                *(f"{ms:.3f}" for ms in times)]) + "\n")
    return 0


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "gen-srlg": _cmd_gen_srlg,
    "gen-tasks": _cmd_gen_tasks,
    "filter-tasks": _cmd_filter_tasks,
    "solve-drcr": _cmd_solve,
    "solve-srlg": _cmd_solve,
    "histogram": _cmd_histogram,
    "bench": _cmd_bench,
    "sweep-alpha": _cmd_sweep_alpha,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        # a NaN limit exits 1 before any output, even with no task to solve
        SearchControl.from_time_limit_ms(getattr(args, "time_limit_ms", None))
        return _COMMANDS[args.command](args)
    except (ParseError, IntegrityError, netgen.GenerationError, OSError) as exc:
        print(f"drcr: {exc}", file=sys.stderr)
        return _IO_EXIT
    except ValueError as exc:
        print(f"drcr: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
