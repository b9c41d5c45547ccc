"""CLI output formats and exit codes; the pipelines are in test_cli_golden."""

from __future__ import annotations

import json
from itertools import count

import pytest

import drcr.pulse
from drcr import bench as bench_mod
from drcr.cli import main


def run(*argv) -> int:
    return main(list(argv))


def test_sweep_alpha_on_empty_task_file(tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,3\n0,1,1,5\n1,2,1,5\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n1:1\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("")
    sweep = tmp_path / "sweep.csv"
    assert run("sweep-alpha", "--graph", str(graph), "--srlg", str(srlg),
               "--tasks", str(tasks), "--alphas", "5,10",
               "--out", str(sweep)) == 0
    assert sweep.read_text().splitlines() == [
        "alpha,tasks,feasible_found,feasible_under_20ms,feasible_under_50ms,"
        "max_ms,mean_ms,median_ms",
        "5,0,0,0,0,0.000,0.000,0.000", "10,0,0,0,0,0.000,0.000,0.000"]


def test_package_exports_resolve():
    import drcr

    for name in drcr.__all__:
        assert getattr(drcr, name) is not None, name
    namespace: dict = {}
    exec("from drcr import *", namespace)
    assert set(drcr.__all__) <= set(namespace)


def test_filter_tasks_time_limit_keeps_tasks_it_ends_as_unknown(tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,1\n1,3,1,1\n0,2,5,1\n2,3,5,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n1:2\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("0,3,0,100,100\n")
    kept = tmp_path / "kept.csv"
    labels = tmp_path / "labels.csv"
    args = ("filter-tasks", "--graph", str(graph), "--srlg", str(srlg),
            "--tasks", str(tasks), "--kind", "srlg", "--out", str(kept),
            "--labels-out", str(labels))
    # a stage-1 pair is no trap; a deadline already passed ends the solve
    assert run(*args, "--time-limit-ms", "60000") == 0
    assert kept.read_text() == ""
    assert run(*args, "--time-limit-ms=-1") == 0
    assert labels.read_text() == "0,3,0,100,100,unknown\n"


def test_histogram_time_limit_keeps_completed_bins_only(tmp_path, capsys):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,2\n0,1,2,3\n")
    args = ("histogram", "--graph", str(graph), "--task", "0,1,0,10",
            "--bin", "5")
    assert run(*args, "--time-limit-ms", "60000") == 0
    assert capsys.readouterr().out.splitlines() == [
        "bin_low,all,feasible", "0,1,1", "# truncated=false"]
    assert run(*args, "--time-limit-ms=-1") == 0
    assert capsys.readouterr().out.splitlines() == [
        "bin_low,all,feasible", "# truncated=true"]


def test_histogram_has_a_default_deadline(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,1\n1,3,1,1\n0,2,20,1\n2,3,20,1\n")
    args = ("histogram", "--graph", str(graph), "--task", "0,3,0,100",
            "--bin", "10")

    def histogram(*limit) -> list[str]:
        # a clock that gains 20 s per read: the deadline is made at 0 s,
        # and the sweeps poll it at 20, 40, 60 and 80 s, once per bin
        ticks = count(0, 20)
        monkeypatch.setattr(drcr.pulse, "monotonic", lambda: next(ticks))
        assert run(*args, *limit) == 0
        return capsys.readouterr().out.splitlines()

    whole = ["bin_low,all,feasible", "0,1,1", "40,1,1", "# truncated=false"]
    # the clock reaches the default of 60 s at the first bin of the last
    # series, so only the all-paths series is complete
    assert histogram() == ["bin_low,all,feasible", "0,1,0", "40,1,0",
                           "# truncated=true"]
    assert histogram("--time-limit-ms", "100000") == whole
    assert histogram("--time-limit-ms", "inf") == whole


def test_histogram_csv_writes_occupied_bins_only(tmp_path, capsys):
    # paths at cost 2 and 40: bins 10, 20 and 30 are empty and get no row,
    # so the rows never outnumber the bins that hold a path
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,1\n1,3,1,1\n0,2,20,1\n2,3,20,1\n")
    assert run("histogram", "--graph", str(graph), "--task", "0,3,0,100",
               "--bin", "10") == 0
    assert capsys.readouterr().out.splitlines() == [
        "bin_low,all,feasible", "0,1,1", "40,1,1", "# truncated=false"]


@pytest.mark.parametrize("command", [
    ("solve-srlg", "--srlg", "{srlg}", "--tasks", "{srlg_tasks}",
     "--alpha", "inf"),
    ("solve-srlg", "--srlg", "{srlg}", "--tasks", "{srlg_tasks}",
     "--alpha", "nan"),
    ("solve-srlg", "--srlg", "{srlg}", "--tasks", "{srlg_tasks}",
     "--time-limit-ms", "nan"),
    ("filter-tasks", "--srlg", "{srlg}", "--tasks", "{srlg_tasks}",
     "--kind", "srlg", "--out", "{out}", "--alpha", "inf"),
    ("sweep-alpha", "--srlg", "{srlg}", "--tasks", "{srlg_tasks}",
     "--alphas", "5,nan"),
    ("bench", "--srlg", "{srlg}", "--tasks", "{srlg_tasks}",
     "--solver", "btcs", "--alpha", "inf"),
    ("solve-drcr", "--tasks", "{tasks}", "--time-limit-ms", "nan"),
    ("histogram", "--task", "0,3,0,100", "--bin", "5",
     "--time-limit-ms", "nan"),
    # a NaN limit exits 1 even when there is no task to give it to
    ("solve-drcr", "--tasks", "{empty}", "--out", "{out}",
     "--time-limit-ms", "nan"),
    ("solve-srlg", "--srlg", "{srlg}", "--tasks", "{empty}", "--out", "{out}",
     "--time-limit-ms", "nan"),
    ("filter-tasks", "--tasks", "{empty}", "--kind", "drcr", "--out", "{out}",
     "--time-limit-ms", "nan"),
    ("filter-tasks", "--srlg", "{srlg}", "--tasks", "{empty}", "--kind",
     "srlg", "--out", "{out}", "--time-limit-ms", "nan"),
    ("bench", "--tasks", "{empty}", "--solver", "pulse", "--out", "{out}",
     "--time-limit-ms", "nan"),
    ("sweep-alpha", "--srlg", "{srlg}", "--tasks", "{empty}", "--out", "{out}",
     "--time-limit-ms", "nan"),
])
def test_non_finite_alpha_or_nan_time_limit_exits_1(tmp_path, capsys,
                                                     command):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,1\n1,3,1,1\n0,2,5,1\n2,3,5,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n1:2\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("0,3,0,100\n")
    srlg_tasks = tmp_path / "t5.csv"
    # a stage-1 pair, then a task that reaches the corridor sweep
    srlg_tasks.write_text("0,3,0,100,100\n1,3,0,100,100\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    names = dict(srlg=srlg, tasks=tasks, srlg_tasks=srlg_tasks, empty=empty,
                 out=tmp_path / "out.csv")
    argv = [arg.format(**names) for arg in command]
    assert run(argv[0], "--graph", str(graph), *argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("drcr: ")
    assert not names["out"].exists()


@pytest.mark.parametrize("task", ["0,3,0,100", "0,3,0,100,100"])
@pytest.mark.parametrize("option, value, message", [
    ("--cap", "0", "cap must be >= 1, got 0"),
    ("--cap", "-1", "cap must be >= 1, got -1"),
    ("--bin", "0", "bin width must be >= 1, got 0"),
    ("--bin", "-5", "bin width must be >= 1, got -5"),
    ("--ceiling", "-1", "cost ceiling must be >= 0, got -1"),
])
def test_histogram_bad_cap_or_bin_exits_1_for_either_task_kind(
        tmp_path, capsys, task, option, value, message):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,1\n1,3,1,1\n0,2,5,1\n2,3,5,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n1:2\n")
    out = tmp_path / "hist.csv"
    args = {"--bin": "5", "--cap": "10", option: value}
    assert run("histogram", "--graph", str(graph), "--srlg", str(srlg),
               "--task", task, "--no-all", "--out", str(out),
               *(item for pair in args.items() for item in pair)) == 1
    assert capsys.readouterr().err == f"drcr: {message}\n"
    assert not out.exists()


def test_sweep_alpha_rejects_a_bad_alpha_before_any_suite(tmp_path, capsys,
                                                          monkeypatch):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,1\n1,3,1,1\n0,2,5,1\n2,3,5,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n1:2\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("1,3,0,100,100\n")
    suites = []
    real = bench_mod.run_suite
    monkeypatch.setattr(bench_mod, "run_suite",
                        lambda *a, **kw: suites.append(kw) or real(*a, **kw))
    assert run("sweep-alpha", "--graph", str(graph), "--srlg", str(srlg),
               "--tasks", str(tasks), "--alphas", "1,nan") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("drcr: ")
    assert suites == []


@pytest.mark.parametrize("alphas", [",", "5,5"])
def test_sweep_alpha_rejects_an_empty_or_repeated_alpha_list(
        tmp_path, capsys, monkeypatch, alphas):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,1\n1,3,1,1\n0,2,5,1\n2,3,5,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n1:2\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("1,3,0,100,100\n")
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(bench_mod, "run_suite", lambda *a, **kw: pytest.fail(
        "a suite ran"))
    assert run("sweep-alpha", "--graph", str(graph), "--srlg", str(srlg),
               "--tasks", str(tasks), "--alphas", alphas,
               "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --alphas: expected distinct alphas, got {alphas!r}\n")
    assert not out.exists()


def test_bench_rejects_a_repeated_solver_before_any_file(tmp_path, capsys,
                                                        monkeypatch):
    # the files do not exist: a repeated solver exits 1 before they are
    # read (a missing file would exit 2), and no suite runs
    out = tmp_path / "summary.txt"
    monkeypatch.setattr(bench_mod, "run_suite", lambda *a, **kw: pytest.fail(
        "a suite ran"))
    assert run("bench", "--graph", str(tmp_path / "nope.csv"),
               "--tasks", str(tmp_path / "nope-t.csv"), "--solver", "pulse",
               "--solver", "btbu1", "--solver", "pulse",
               "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("drcr: each --solver may be given once, "
                            "got pulse, btbu1, pulse\n")
    assert not out.exists()


def test_alpha_past_the_largest_path_cost_sweeps_one_corridor(tmp_path, capsys):
    # node 1's only route 1->3 lies in no SRLG, so the task reaches the
    # sweep; a width of 2 * 1e308 overflows a float, and is clamped to
    # node_count * max_edge_cost like any width that holds every path
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,2,1\n1,3,2,1\n0,2,10,1\n2,3,10,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0,2\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("1,3,0,100,100\n")
    lines = {}
    for alpha in ("1e6", "1e308"):
        assert run("solve-srlg", "--graph", str(graph), "--srlg", str(srlg),
                   "--tasks", str(tasks), "--alpha", alpha) == 0
        lines[alpha] = capsys.readouterr().out
    assert lines["1e308"] == lines["1e6"] == (
        '{"task": "1,3,0,100,100", "outcome": "infeasible", '
        '"corridors_explored": 1, "ap_candidates_checked": 1}\n')


def test_bench_records_the_srlg_file_it_protects_against(tmp_path):
    # a btcs bench with --srlg names the SRLG file in all three outputs,
    # sorted among the other meta lines; without --srlg there is no line
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,1\n1,3,1,1\n0,2,2,1\n2,3,2,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n1:2\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("0,3,0,10,10\n")
    outs = [tmp_path / name for name in ("r.jsonl", "s.csv", "s.txt")]
    assert run("bench", "--graph", str(graph), "--srlg", str(srlg),
               "--tasks", str(tasks), "--solver", "btcs",
               "--records", str(outs[0]), "--summary-csv", str(outs[1]),
               "--out", str(outs[2])) == 0
    for out in outs:
        meta = [line for line in out.read_text().splitlines()
                if line.startswith("# ")]
        assert f"# srlg={srlg}" in meta
        assert meta == sorted(meta)
    assert json.loads(outs[0].read_text().splitlines()[-1])["outcome"] == "pair"
    assert run("bench", "--graph", str(graph), "--tasks", str(tasks),
               "--solver", "btcs", "--records", str(outs[0])) == 0
    assert "# srlg=" not in outs[0].read_text()


# bad generator parameters and bad input files: each exits before it
# writes any output
INPUT_CHECK_CASES = [
    ("gen-graph --topology er --nodes 1 --density 2", 1, "nodes must be"),
    ("gen-graph --topology er --nodes 10 --density 0", 1, "density_param"),
    ("gen-graph --topology er --nodes 10 --density 2 --cost-range 5,1", 1,
     "bad range [5, 1]"),
    ("gen-graph --topology sf --nodes 3 --density 3", 2,
     "attachment parameter 3 needs more than 3 nodes"),
    ("gen-srlg --graph {g} --pattern random --size-range 0,5", 1,
     "got [0, 5]"),
    ("gen-srlg --graph {g} --pattern random --size-range 1,41", 1,
     "got [1, 41]"),
    ("gen-tasks --graph {g} --count 0 --kind drcr", 1, "count must be"),
    ("solve-srlg --graph {g} --srlg {s} --tasks {t5} --max-corridors 0", 1,
     "max_corridors must be"),
    ("bench --graph {g} --tasks {t4} --solver pulse --repetitions 0", 1,
     "repetitions must be"),
    ("solve-drcr --graph {empty} --tasks {t4}", 2, "empty graph file"),
    ("solve-drcr --graph {zero} --tasks {t4}", 2,
     "edge 1 cost must be a positive integer, got 0"),
    ("solve-srlg --graph {g} --srlg {no_colon} --tasks {t5}", 2,
     "expected 'srlg_id:e0,e1,...'"),
    ("solve-srlg --graph {g} --srlg {no_member} --tasks {t5}", 2,
     "empty srlg group"),
    # an empty member token between, after or before the edge ids
    ("solve-srlg --graph {g} --srlg {gap} --tasks {t5}", 2,
     "gap.csv:1: edge id is not an integer: ''"),
    ("solve-srlg --graph {g} --srlg {trailing} --tasks {t5}", 2,
     "trailing.csv:1: edge id is not an integer: ''"),
    ("solve-srlg --graph {g} --srlg {leading} --tasks {t5}", 2,
     "leading.csv:1: edge id is not an integer: ''"),
    ("solve-drcr --graph {g} --tasks {t3}", 2,
     "expected 'src,dst,d_low,d_up[,d_diff]'"),
    ("solve-drcr --graph {byte_g} --tasks {t4}", 2,
     "byte_g.csv:3: cost is not an integer"),
    ("solve-srlg --graph {g} --srlg {byte_s} --tasks {t5}", 2,
     "byte_s.csv:2: edge id is not an integer"),
    ("solve-drcr --graph {g} --tasks {byte_t}", 2,
     "byte_t.csv:1: d_up is not an integer"),
]


@pytest.mark.parametrize("command, code, message", INPUT_CHECK_CASES,
                         ids=[c for c, _, _ in INPUT_CHECK_CASES])
def test_bad_input_exits_before_any_output(tmp_path, capsys, command, code,
                                           message):
    files = {"g": "nodes,3\n0,1,1,5\n1,2,1,5\n0,2,3,1\n", "s": "0:0\n",
             "t4": "0,2,0,20\n", "t5": "0,2,0,20,10\n", "t3": "0,2,0\n",
             "empty": "", "zero": "nodes,3\n0,1,1,5\n1,2,0,5\n",
             "no_colon": "0,1\n", "no_member": "0:\n",
             "gap": "0:1,,2\n", "trailing": "0:1,\n", "leading": "0:,1\n",
             # a byte 0xff, which is not UTF-8, in each kind of file
             "byte_g": "nodes,3\n0,1,1,1\n1,2,\udcff,1\n",
             "byte_s": "0:0\n1:\udcff2\n", "byte_t": "0,2,0,2\udcff0\n"}
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_bytes(text.encode("utf-8", "surrogateescape"))
    out = tmp_path / "out"
    assert run(*command.format(**paths).split(), "--out", str(out)) == code
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.csv" for name in files)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("drcr: ") and message in captured.err


def test_usage_error_exits_1(capsys):
    assert run("solve-drcr") == 1
    assert run("no-such-command") == 1
    # no task file serves btcs and a single-path solver, so this exits 1
    # before it reads a file (a missing one would exit 2)
    assert run("bench", "--graph", "nope.csv", "--tasks", "nope.csv",
               "--solver", "btcs", "--solver", "pulse") == 1
    assert "separate runs" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert run("solve-drcr", "--graph", str(tmp_path / "nope.csv"),
               "--tasks", str(tmp_path / "nope2.csv")) == 2


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nodes,2\n0,1\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("0,1,0,5\n")
    assert run("solve-drcr", "--graph", str(bad), "--tasks", str(tasks)) == 2


def test_wrong_task_arity_exits_2(tmp_path, capsys):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,2\n0,1,1,1\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("0,1,0,5,3\n")  # srlg task handed to solve-drcr
    assert run("solve-drcr", "--graph", str(graph), "--tasks", str(tasks)) == 2


WRONG_KIND_CASES = [
    ("solve-drcr", "0,2,0,20", "0,1,0,20,10", ()),
    ("solve-srlg", "0,2,0,20,10", "0,1,0,20", ("--srlg={srlg}",)),
    ("filter-tasks", "0,2,0,20,10", "0,1,0,20",
     ("--srlg={srlg}", "--kind=srlg", "--out={out}")),
    ("filter-tasks", "0,2,0,20", "0,1,0,20,10", ("--kind=drcr", "--out={out}")),
    ("sweep-alpha", "0,2,0,20,10", "0,1,0,20", ("--srlg={srlg}", "--out={out}")),
    ("bench", "0,2,0,20,10", "0,1,0,20",
     ("--srlg={srlg}", "--solver=btcs", "--records={out}")),
    ("bench", "0,2,0,20", "0,1,0,20,10",
     ("--solver=pulse", "--solver=btbu2", "--records={out}")),
]


@pytest.mark.parametrize("command, good, wrong, options", WRONG_KIND_CASES,
                         ids=[f"{c}-{g}-{w}" for c, g, w, _ in WRONG_KIND_CASES])
def test_wrong_kind_task_after_good_ones_writes_no_result(tmp_path, capsys,
                                                          command, good, wrong,
                                                          options):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,3\n0,1,1,5\n1,2,1,5\n0,2,3,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n")
    tasks = tmp_path / "mixed.csv"
    tasks.write_text(f"{good}\n\n{good}\n{wrong}\n")
    out = tmp_path / "out"
    assert run(command, "--graph", str(graph),
               *(o.format(srlg=srlg, out=out) for o in options),
               "--tasks", str(tasks)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"mixed.csv: task 3 ({wrong}) has " in captured.err
    assert f"{command} expects" in captured.err


# "-1,2,0,20" (a source aliasing the target) is covered by the parser test
# in test_network.py only: an unchecked copy of it makes btbu1 loop forever
@pytest.mark.parametrize("task", ["-1,1,0,20", "7,2,0,20", "0,7,0,20"])
def test_task_node_out_of_range_exits_2(tmp_path, capsys, task):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,3\n0,1,1,5\n1,2,1,5\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text(task + "\n")
    srlg_tasks = tmp_path / "t5.csv"
    srlg_tasks.write_text(task + ",10\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n")
    out = str(tmp_path / "out")
    assert run("solve-drcr", "--graph", str(graph), "--tasks", str(tasks)) == 2
    assert run("solve-srlg", "--graph", str(graph), "--srlg", str(srlg),
               "--tasks", str(srlg_tasks)) == 2
    assert run("filter-tasks", "--graph", str(graph), "--tasks", str(tasks),
               "--kind", "drcr", "--out", out) == 2
    assert run("bench", "--graph", str(graph), "--tasks", str(tasks),
               "--solver", "btbu1", "--out", out) == 2
    assert run("sweep-alpha", "--graph", str(graph), "--srlg", str(srlg),
               "--tasks", str(srlg_tasks), "--out", out) == 2
    assert run("histogram", "--graph", str(graph), f"--task={task}",
               "--bin", "5") == 2
    assert "t.csv:1: " in capsys.readouterr().err


def test_solve_rows_keep_their_keys_and_order(tmp_path):
    # the conftest diamond: the cheap route 0->1->3 takes delay 20
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,10\n1,3,1,10\n0,2,5,1\n2,3,5,1\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("0,3,0,15\n0,3,0,1\n")
    for solver in ("pulse", "btbu1", "btbu2"):
        out = tmp_path / f"{solver}.jsonl"
        assert run("solve-drcr", "--graph", str(graph), "--tasks", str(tasks),
                   "--solver", solver, "--out", str(out)) == 0
        assert out.read_text().splitlines() == [
            '{"task": "0,3,0,15", "outcome": "optimal", "cost": 10, '
            '"delay": 2, "edges": [2, 3]}',
            '{"task": "0,3,0,1", "outcome": "infeasible"}']
    # the conftest trap network: the pair (B, C) is found in corridor 0
    trap = tmp_path / "trap.csv"
    trap.write_text("nodes,6\n0,1,1,1\n1,5,1,1\n0,2,2,1\n2,5,2,1\n"
                    "0,3,10,1\n3,4,10,1\n4,5,10,1\n")
    srlg = tmp_path / "trap-s.csv"
    srlg.write_text("0:0,2\n1:1,4\n")
    srlg_tasks = tmp_path / "trap-t.csv"
    srlg_tasks.write_text("0,5,0,100,100\n")
    out = tmp_path / "pairs.jsonl"
    assert run("solve-srlg", "--graph", str(trap), "--srlg", str(srlg),
               "--tasks", str(srlg_tasks), "--out", str(out)) == 0
    assert out.read_text().splitlines() == [
        '{"task": "0,5,0,100,100", "outcome": "pair", "corridors_explored": 1, '
        '"ap_candidates_checked": 2, "ap_cost": 4, "ap_delay": 2, '
        '"ap_edges": [2, 3], "pp_delay": 3, "pp_edges": [4, 5, 6]}']


def test_solve_srlg_reports_the_cut_only_when_set(tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,4\n0,1,1,1\n1,3,1,1\n0,2,5,1\n2,3,5,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0,2\n")  # both egress edges of node 0
    tasks = tmp_path / "t.csv"
    tasks.write_text("0,3,0,100,100\n1,3,0,100,100\n")
    out = tmp_path / "pairs.jsonl"
    assert run("solve-srlg", "--graph", str(graph), "--srlg", str(srlg),
               "--tasks", str(tasks), "--out", str(out)) == 0
    assert out.read_text().splitlines() == [
        '{"task": "0,3,0,100,100", "outcome": "infeasible", '
        '"corridors_explored": 0, "ap_candidates_checked": 0, "srlg_cut": 0}',
        # 1->3 is the only route and lies in no SRLG: swept to a verdict
        '{"task": "1,3,0,100,100", "outcome": "infeasible", '
        '"corridors_explored": 1, "ap_candidates_checked": 1}']


def _manifest_text(artifact: str, kind: str, params: str) -> str:
    return (f'{{\n  "artifact": "{artifact}",\n  "kind": "{kind}",\n'
            f'  "params": {{\n{params}\n  }}\n}}\n')


def test_generator_manifests_record_the_arguments(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gen-graph", "--topology", "sf", "--nodes", "20",
               "--density", "2", "--seed", "1", "--out", "g.csv") == 0
    assert run("gen-graph", "--topology", "er", "--nodes", "20",
               "--density", "3", "--cost-range", "1,1000", "--seed", "2",
               "--out", "g2.csv") == 0
    assert run("gen-srlg", "--graph", "g.csv", "--pattern", "random",
               "--size-range", "1,6", "--seed", "3", "--out", "s.csv") == 0
    assert run("gen-tasks", "--graph", "g.csv", "--count", "3",
               "--kind", "srlg", "--seed", "4", "--out", "t.csv") == 0
    # "sf" is recorded as the topology it names; ranges are JSON lists
    assert (tmp_path / "g.csv.manifest.json").read_text() == _manifest_text(
        "g.csv", "graph",
        '    "cost_range": [\n      1,\n      100\n    ],\n'
        '    "delay_range": [\n      1,\n      100\n    ],\n'
        '    "density": 2,\n    "nodes": 20,\n    "seed": 1,\n'
        '    "topology": "scale-free"')
    assert (tmp_path / "g2.csv.manifest.json").read_text() == _manifest_text(
        "g2.csv", "graph",
        '    "cost_range": [\n      1,\n      1000\n    ],\n'
        '    "delay_range": [\n      1,\n      100\n    ],\n'
        '    "density": 3,\n    "nodes": 20,\n    "seed": 2,\n'
        '    "topology": "er"')
    assert (tmp_path / "s.csv.manifest.json").read_text() == _manifest_text(
        "s.csv", "srlg",
        '    "graph": "g.csv",\n    "pattern": "random",\n    "seed": 3,\n'
        '    "size_range": [\n      1,\n      6\n    ]')
    assert (tmp_path / "t.csv.manifest.json").read_text() == _manifest_text(
        "t.csv", "tasks",
        '    "count": 3,\n    "graph": "g.csv",\n    "kind": "srlg",\n'
        '    "seed": 4')


def test_malformed_range_exits_1(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run("gen-graph", "--topology", "er", "--nodes", "20",
               "--density", "3", "--cost-range", "5", "--out", str(out)) == 1
    assert capsys.readouterr().err.endswith(
        "error: argument --cost-range: expected 'lo,hi', got '5'\n")
    assert not out.exists()


def test_sweep_alpha_rows_from_fixed_records(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,3\n0,1,1,5\n1,2,1,5\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0\n1:1\n")
    tasks = tmp_path / "t.csv"
    tasks.write_text("0,2,0,20,10\n")
    records = {
        5.0: [bench_mod.BenchRecord(0, "btcs", "pair", 12_345),
              bench_mod.BenchRecord(1, "btcs", "infeasible", 1_000),
              bench_mod.BenchRecord(2, "btcs", "pair", 30_001),
              bench_mod.BenchRecord(3, "btcs", "timeout", 60_001)],
        0.5: []}
    monkeypatch.setattr(bench_mod, "sweep_alpha",
                        lambda net, tasks, alphas, **kw: records)
    assert run("sweep-alpha", "--graph", str(graph), "--srlg", str(srlg),
               "--tasks", str(tasks), "--alphas", "5,0.5") == 0
    assert capsys.readouterr().out.splitlines() == [
        "alpha,tasks,feasible_found,feasible_under_20ms,feasible_under_50ms,"
        "max_ms,mean_ms,median_ms",
        "5,4,2,1,2,60.001,25.837,21.173",
        "0.5,0,0,0,0,0.000,0.000,0.000"]
