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
from .btcs import BtcsConfig
from .network import (IntegrityError, ParseError, SrlgTask, format_task,
                      load_network, load_tasks, parse_task_line, save_network,
                      save_tasks)
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
    return [float(p) for p in text.split(",") if p]


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
    p.add_argument("--alpha", type=float, default=10.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-corridors", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--labels-out")

    p = sub.add_parser("solve-drcr", help="solve single-path tasks")
    p.add_argument("--graph", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--solver", choices=("pulse", "btbu1", "btbu2"),
                   default="btbu1")
    p.add_argument("--time-limit-ms", type=float)
    p.add_argument("--out")

    p = sub.add_parser("solve-srlg", help="solve disjoint-pair tasks")
    p.add_argument("--graph", required=True)
    p.add_argument("--srlg", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--alpha", type=float, default=10.0)
    p.add_argument("--workers", type=int, default=1)
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
    p.add_argument("--out")

    p = sub.add_parser("bench", help="timed solver suite over a task file")
    p.add_argument("--graph", required=True)
    p.add_argument("--srlg")
    p.add_argument("--tasks", required=True)
    p.add_argument("--solver", action="append", required=True,
                   choices=bench_mod.SOLVERS,
                   help="repeatable; each solver runs the whole suite")
    p.add_argument("--time-limit-ms", type=float)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--alpha", type=float, default=10.0)
    p.add_argument("--workers", type=int, default=1)
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
    p.add_argument("--workers", type=int, default=1)
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
    with open(args.out, "w", encoding="utf-8") as f:
        for gid, group in enumerate(groups):
            f.write(f"{gid}:{','.join(str(e) for e in sorted(group))}\n")
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
    tasks = load_tasks(args.tasks)
    cfg = BtcsConfig(alpha=args.alpha, workers=args.workers,
                     max_corridors=args.max_corridors)
    kept, labels = netgen.filter_tasks(net, tasks, args.kind, btcs_cfg=cfg)
    save_tasks(kept, args.out)
    if args.labels_out:
        with open(args.labels_out, "w", encoding="utf-8") as f:
            for task, label in zip(kept, labels):
                f.write(f"{format_task(task)},{label}\n")
    print(f"kept {len(kept)}/{len(tasks)} tasks "
          f"({', '.join(sorted(set(labels))) or 'none'})", file=sys.stderr)
    return 0


def _cmd_solve_drcr(args) -> int:
    net = load_network(args.graph)
    tasks = load_tasks(args.tasks)
    cache = TreeCache(net)
    with _out_stream(args.out) as out:
        for task in tasks:
            if isinstance(task, SrlgTask):
                raise ParseError(args.tasks, 0,
                                 "solve-drcr expects 4-column tasks")
            control = SearchControl.from_time_limit_ms(args.time_limit_ms)
            report, path = bench_mod.solve(net, cache.get(task.target), task,
                                           args.solver, control)
            row = {"task": format_task(task), "outcome": report.outcome}
            if path is not None:
                row.update(cost=path.total_cost, delay=path.total_delay,
                           edges=list(path.edges))
            out.write(json.dumps(row) + "\n")
    return 0


def _cmd_solve_srlg(args) -> int:
    net = load_network(args.graph, args.srlg)
    tasks = load_tasks(args.tasks)
    cache = TreeCache(net)
    cfg = BtcsConfig(alpha=args.alpha, workers=args.workers,
                     max_corridors=args.max_corridors)
    with _out_stream(args.out) as out:
        for task in tasks:
            if not isinstance(task, SrlgTask):
                raise ParseError(args.tasks, 0,
                                 "solve-srlg expects 5-column tasks")
            control = SearchControl.from_time_limit_ms(args.time_limit_ms)
            report, pair = bench_mod.solve(net, cache.get(task.target), task,
                                           "btcs", control, cfg)
            row = {"task": format_task(task), "outcome": report.outcome,
                   "corridors_explored": report.corridors_explored,
                   "ap_candidates_checked": report.ap_candidates_checked}
            if pair is not None:
                row.update(ap_cost=pair.ap.total_cost,
                           ap_delay=pair.ap.total_delay,
                           ap_edges=list(pair.ap.edges),
                           pp_delay=pair.pp.total_delay,
                           pp_edges=list(pair.pp.edges))
            out.write(json.dumps(row) + "\n")
    return 0


def _cmd_histogram(args) -> int:
    net = load_network(args.graph, args.srlg)
    task = parse_task_line(args.task, "<--task>", 1)
    hist = build_histogram(net, task, args.bin, args.cap,
                           cost_ceiling=args.ceiling,
                           include_all=not args.no_all)
    with _out_stream(args.out) as out:
        hist.to_csv(out)
    return 0


def _cmd_bench(args) -> int:
    net = load_network(args.graph, args.srlg)
    tasks = load_tasks(args.tasks)
    meta = {"graph": args.graph, "tasks": args.tasks,
            "time_limit_ms": args.time_limit_ms,
            "repetitions": args.repetitions, "alpha": args.alpha,
            "workers": args.workers,
            "threshold_rule": "strict-less-than",
            "repetition_rule": "min-wall-time",
            "timing": "per-task, preprocessing included, file I/O excluded"}
    all_records = []
    for solver in args.solver:
        all_records.extend(bench_mod.run_suite(
            net, tasks, solver, time_limit_ms=args.time_limit_ms,
            repetitions=args.repetitions, alpha=args.alpha,
            workers=args.workers))
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
    tasks = load_tasks(args.tasks)
    sweeps = bench_mod.sweep_alpha(net, tasks, args.alphas,
                                   time_limit_ms=args.time_limit_ms,
                                   workers=args.workers)
    with _out_stream(args.out) as out:
        out.write("alpha,tasks,feasible_found,feasible_under_20ms,"
                  "feasible_under_50ms,max_ms,mean_ms,median_ms\n")
        for alpha in args.alphas:
            rows = bench_mod.summarize(sweeps[alpha])
            row = rows[0]
            out.write(f"{alpha:g},{row.tasks},{row.feasible_found},"
                      f"{row.feasible_under_ms[20.0]},{row.feasible_under_ms[50.0]},"
                      f"{row.max_ms:.3f},{row.mean_ms:.3f},{row.median_ms:.3f}\n")
    return 0


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "gen-srlg": _cmd_gen_srlg,
    "gen-tasks": _cmd_gen_tasks,
    "filter-tasks": _cmd_filter_tasks,
    "solve-drcr": _cmd_solve_drcr,
    "solve-srlg": _cmd_solve_srlg,
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
        return _COMMANDS[args.command](args)
    except (ParseError, IntegrityError, netgen.GenerationError, OSError) as exc:
        print(f"drcr: {exc}", file=sys.stderr)
        return _IO_EXIT
    except ValueError as exc:
        print(f"drcr: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
