"""The CLI contract: a sha256 of every file the CLI pipelines write.

The pipelines run in process through ``drcr.cli.main``, in an empty working
directory and with relative file names, so that the manifests read the same
on every machine.  No command is given a deadline it could reach, and every
field that reads a clock is masked before it is hashed (see ``masked``), so
each digest depends on the program alone.  Regenerate ``cli_golden.json``
with ``PYTHONPATH=src:tests python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shlex
from pathlib import Path

from drcr import build_reverse_trees, load_network, load_tasks, trees
from drcr.cli import main

from conftest import bellman_ford_to_target, write_golden

GOLDEN_DIGESTS = Path(__file__).resolve().with_name("cli_golden.json")
README = Path(__file__).resolve().parents[1] / "README.md"
SINGLE_PATH_SOLVERS = ("pulse", "btbu1", "btbu2")


def run(command: str) -> None:
    assert main(shlex.split(command)) == 0, command


def first_task(name: str) -> str:
    return Path(name).read_text().splitlines()[0]


def solve_drcr(graph: str, tasks: str) -> None:
    """``tasks`` on ``graph``.csv through solve-drcr under each solver."""
    for solver in SINGLE_PATH_SOLVERS:
        run(f"solve-drcr --graph {graph}.csv --tasks {tasks} "
            f"--solver {solver} --out {graph}-{solver}.jsonl")


def single_path_pipeline(graph: str, spec: str, count: int) -> None:
    """A graph from the gen-graph arguments ``spec``, ``count`` single-path
    tasks on it, the feasible ones kept and solved under each solver."""
    run(f"gen-graph {spec} --out {graph}.csv")
    run(f"gen-tasks --graph {graph}.csv --count {count} --kind drcr --seed 2 "
        f"--out {graph}-t.csv")
    run(f"filter-tasks --graph {graph}.csv --tasks {graph}-t.csv --kind drcr "
        f"--out {graph}-kept.csv")
    solve_drcr(graph, f"{graph}-kept.csv")


def write_ladder() -> None:
    """``ladder.csv``, a ladder of 300 columns: rails c -> c + 1 at nodes c
    and 300 + c, and a rung each way between them, weights 1..100; and
    ``ladder-t.csv``, five tasks at d_up 60000, which holds every path, as
    no elementary path has 600 edges."""
    rng = random.Random(7)
    cols = 300
    edges = []
    for c in range(cols):
        if c + 1 < cols:
            edges += [(c, c + 1), (cols + c, cols + c + 1)]
        edges += [(c, cols + c), (cols + c, c)]
    Path("ladder.csv").write_text(f"nodes,{2 * cols}\n" + "".join(
        f"{u},{v},{rng.randint(1, 100)},{rng.randint(1, 100)}\n"
        for u, v in edges))
    Path("ladder-t.csv").write_text("".join(
        f"{s},{t},0,60000\n"
        for s, t in ((0, 299), (0, 599), (300, 299), (300, 599), (150, 599))))


def run_pipelines() -> None:
    """Every CLI pipeline of the contract, run in the working directory."""
    # a 200-node scale-free graph with star SRLGs: the disjoint-pair
    # pipeline from generation to bench
    run("gen-graph --topology scale-free --nodes 200 --density 2 --seed 1 "
        "--out g.csv")
    run("gen-srlg --graph g.csv --pattern star --seed 2 --out s.csv")
    run("gen-tasks --graph g.csv --count 20 --kind srlg --seed 3 --out t.csv")
    run("filter-tasks --graph g.csv --srlg s.csv --tasks t.csv --kind srlg "
        "--out kept.csv --labels-out labels.csv")
    run("solve-srlg --graph g.csv --srlg s.csv --tasks kept.csv "
        "--out pairs.jsonl")
    run(f"histogram --graph g.csv --srlg s.csv --task {first_task('kept.csv')} "
        "--bin 50 --no-all --out hist.csv")
    run("sweep-alpha --graph g.csv --srlg s.csv --tasks kept.csv "
        "--alphas 5,10 --out sweep.csv")
    run("bench --graph g.csv --srlg s.csv --tasks kept.csv --solver btcs "
        "--records bench-srlg.jsonl --summary-csv bench-srlg.csv "
        "--out bench-srlg.txt")

    # a 200-node ER graph: every single-path solver through solve-drcr and
    # bench, and one histogram with a cost ceiling (without one, its
    # all-paths series runs for minutes)
    run("gen-graph --topology er --nodes 200 --density 5 --seed 1 --out er.csv")
    run("gen-tasks --graph er.csv --count 20 --kind drcr --seed 2 "
        "--out er-t.csv")
    run("filter-tasks --graph er.csv --tasks er-t.csv --kind drcr "
        "--out er-kept.csv --labels-out er-labels.csv")
    solve_drcr("er", "er-kept.csv")
    run("bench --graph er.csv --tasks er-kept.csv --solver pulse "
        "--solver btbu1 --solver btbu2 --records bench-er.jsonl "
        "--summary-csv bench-er.csv --out bench-er.txt")
    run(f"histogram --graph er.csv --task {first_task('er-kept.csv')} "
        "--bin 50 --ceiling 200 --out er-hist.csv")

    # a pair histogram whose one wide bin holds far more paths than its cap
    # stops at the cap (building every path of the bin takes minutes)
    run("gen-graph --topology scale-free --nodes 200 --density 4 --seed 3000 "
        "--out cap.csv")
    run("gen-srlg --graph cap.csv --pattern random --size-range 1,6 "
        "--seed 4000 --out cap-s.csv")
    run("histogram --graph cap.csv --srlg cap-s.csv --task 0,5,0,250,250 "
        "--bin 100000 --cap 10 --no-all --out cap-hist.csv")

    # weights up to 10**6 at bin width 50: some 83 k empty bins lie below
    # the first path, and the sweep jumps over them
    run("gen-graph --topology er --nodes 300 --density 3 "
        "--cost-range 1,1000000 --delay-range 1,1000000 --seed 21 "
        "--out wide300.csv")
    run("histogram --graph wide300.csv --task 282,78,1891452,2766752 "
        "--bin 50 --no-all --out wide300-hist.csv")

    # weights up to 10**17 spread the paths over some 10**15 bins, and the
    # histogram stops at its cap of 200 paths
    run("gen-graph --topology er --nodes 30 --density 3 --seed 1 "
        "--cost-range 1,100000000000000000 "
        "--delay-range 1,100000000000000000 --out er30w.csv")
    run("gen-tasks --graph er30w.csv --count 20 --kind drcr --seed 2 "
        "--out er30w-t.csv")
    run("filter-tasks --graph er30w.csv --tasks er30w-t.csv --kind drcr "
        "--out er30w-kept.csv")
    run(f"histogram --graph er30w.csv --task {first_task('er30w-kept.csv')} "
        "--bin 50 --cap 200 --out er30w-hist.csv")

    # weights up to 10**6 on 200 nodes: wide int64 sums in the trees
    single_path_pipeline("wide", "--topology er --nodes 200 --density 5 "
                         "--seed 1 --cost-range 1,1000000 "
                         "--delay-range 1,1000000", 20)

    # a 20 000-node scale-free graph, where each frontier round reads the
    # head of every one of the 2m stacked arcs however small its frontier
    single_path_pipeline("sf20k", "--topology scale-free --nodes 20000 "
                         "--density 2 --seed 1", 10)

    # weights up to 10**17 put n * W past 2**62, so the trees walk a
    # Python-int core and every solver sums in Python ints past int64
    single_path_pipeline("huge", "--topology er --nodes 200 --density 5 "
                         "--seed 1 --cost-range 1,100000000000000000 "
                         "--delay-range 1,100000000000000000", 20)

    # the ladder's trees are some 300 hops deep, so every walk hands its
    # frontier to the heap
    write_ladder()
    solve_drcr("ladder", "ladder-t.csv")


def masked(name: str, text: str) -> str:
    """``text`` with every field that reads a clock starred.

    Only the bench and sweep-alpha outputs hold such fields: ``wall_time_us``
    in the bench records, and in the bench summaries and the sweep table
    each column whose header ends in ``ms``, which holds a time or a count
    of solves under a time.  A table row becomes its cells joined by commas,
    so the text summary's padding, which follows the times, is dropped too.
    """
    if not name.startswith(("bench", "sweep")):
        return text
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    body = [line for line in lines if not line.startswith("# ")]
    if name.endswith(".jsonl"):
        rows = [json.dumps({**json.loads(line), "wall_time_us": "*"},
                           sort_keys=True) for line in body]
    else:
        # CSV cells are split at commas, text cells at runs of spaces
        table = [re.split(r",|\s{2,}", line.strip()) for line in body]
        clocked = [cell.endswith("ms") for cell in table[0]]
        rows = [",".join("*" if clock else cell
                         for cell, clock in zip(row, clocked))
                for row in table]
    return "\n".join(meta + rows) + "\n"


def golden_digests() -> dict[str, str]:
    """Run the pipelines in the working directory, which must be empty, and
    return the sha256 of each file they wrote, clock fields masked."""
    run_pipelines()
    return {path.name: hashlib.sha256(
                masked(path.name, path.read_text()).encode()).hexdigest()
            for path in sorted(Path().iterdir())}


def _solve_rows(name: str) -> dict[str, tuple]:
    rows = map(json.loads, Path(name).read_text().splitlines())
    return {row["task"]: (row["outcome"], row.get("cost")) for row in rows}


def _records(name: str) -> list[dict]:
    return [json.loads(line) for line in Path(name).read_text().splitlines()
            if not line.startswith("#")]


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    # regenerate with: PYTHONPATH=src:tests python tests/test_cli_golden.py
    monkeypatch.chdir(tmp_path)
    digests = golden_digests()

    # the single-path solvers agree on every task's outcome and cost,
    # through solve-drcr and through bench
    for graph in ("er", "wide", "sf20k", "huge", "ladder"):
        rows = [_solve_rows(f"{graph}-{s}.jsonl") for s in SINGLE_PATH_SOLVERS]
        assert rows[0] and rows[0] == rows[1] == rows[2], graph
    runs: dict[int, set] = {}
    for record in _records("bench-er.jsonl"):
        runs.setdefault(record["task_id"], set()).add(
            (record["outcome"], record["ap_cost"]))
    assert runs and all(len(outcomes) == 1 for outcomes in runs.values())
    for name in ("bench-er.jsonl", "bench-srlg.jsonl"):
        assert all(r["outcome"] != "error" for r in _records(name)), name
    for name in ("bench-srlg.jsonl", "bench-srlg.csv", "bench-srlg.txt"):
        assert "# srlg=s.csv" in Path(name).read_text().splitlines(), name
    for name, truncated in (("cap-hist.csv", "true"),
                            ("wide300-hist.csv", "false"),
                            ("er30w-hist.csv", "true")):
        assert Path(name).read_text().splitlines()[-1] == (
            f"# truncated={truncated}"), name

    # the 10**17 weights make a Python-int core; each of the ladder's walks
    # is not done after FRONTIER_MAX_ROUNDS rounds, and the heap it hands
    # over to ends at Bellman-Ford's distances
    assert trees._arcs(load_network("huge.csv")).weight.dtype == object
    net = load_network("ladder.csv")
    n = net.node_count
    assert trees._arcs(net).series.size == 0  # the rails run one way
    for t in sorted({task.target for task in load_tasks("ladder-t.csv", n)}):
        _, frontier = trees._frontier_walk(trees._arcs(net), n, [t, n + t],
                                           [0, 0], trees.FRONTIER_MAX_ROUNDS)
        assert frontier.size, t
        got = build_reverse_trees(net, t)
        assert got.min_cost_to_target == bellman_ford_to_target(net, t, "cost")
        assert got.min_delay_to_target == bellman_ford_to_target(
            net, t, "delay")

    # README's library example runs on the g.csv and s.csv made above
    example = README.read_text().split("## Library example", 1)[1]
    example = example.split("```python\n", 1)[1].split("```", 1)[0]
    assert "solve_btcs" in example
    exec(compile(example, str(README), "exec"), {})

    assert digests == json.loads(GOLDEN_DIGESTS.read_text())


if __name__ == "__main__":
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        table = golden_digests()
    write_golden(GOLDEN_DIGESTS, table, lambda digest: digest, indent=" ")
