"""Benchmark harness: timing protocol, summaries, serialization."""

from __future__ import annotations

import io
import json
import random
import threading
from dataclasses import asdict, astuple
from math import inf

import pytest

import drcr.btbu
import drcr.btcs
import drcr.pulse
import drcr.trees
from drcr import (BenchRecord, DrcrTask, Edge, IntegrityError, Network,
                  SearchControl, SearchCounters, SrlgTask, build_reverse_trees,
                  pulse_optimal, run_suite, summarize, sweep_alpha)
from drcr import bench as bench_mod
from drcr.bench import (write_records_jsonl, write_summary_csv,
                        write_summary_text)

from conftest import random_network, random_task, trap_network


def test_trivial_task_all_single_path_solvers():
    net = Network(2, [Edge(0, 1, 5, 7)])
    task = DrcrTask(0, 1, 0, 10)
    for solver in ("pulse", "btbu1", "btbu2"):
        records = run_suite(net, [task], solver, time_limit_ms=5000)
        assert len(records) == 1
        r = records[0]
        assert r.outcome == "optimal" and r.ap_cost == 5
        assert r.wall_time_ms < 5000


def test_btcs_suite_on_trap():
    net = trap_network()
    task = SrlgTask(0, 5, 0, 100, 50)
    records = run_suite(net, [task], "btcs", alpha=1.0)
    assert records[0].outcome == "pair" and records[0].ap_cost == 4
    assert records[0].corridors_explored >= 1


def test_solver_task_kind_mismatch_is_error_outcome():
    net = Network(2, [Edge(0, 1, 5, 7)])
    records = run_suite(net, [SrlgTask(0, 1, 0, 10, 1)], "pulse")
    assert records[0].outcome == "error"
    assert records[0].error.startswith(
        "ValueError: solver 'pulse' needs single-path tasks")


def test_solve_reports_stop_event_as_timeout_for_every_solver(request):
    # unstopped, pulse takes 2 pulses, fewer than the default POLL_EVERY:
    # only a poll on entry ends every solver before its first pulse
    net = Network(4, [Edge(u, v, 1, 1) for u in range(4) for v in range(4) if u != v])
    trees = build_reverse_trees(net, 3)
    report, path = bench_mod.solve(net, trees, DrcrTask(0, 3, 0, 10), "pulse")
    assert (report.outcome, report.pulses) == ("optimal", 2)
    assert drcr.pulse.POLL_EVERY > 2
    stop = threading.Event()
    stop.set()
    control = SearchControl(stop=stop)
    for each_pulse in (False, True):
        if each_pulse:  # the same at a poll on every pulse
            request.getfixturevalue("poll_each_pulse")
        for solver, task in (("pulse", DrcrTask(0, 3, 0, 10)),
                             ("btbu1", DrcrTask(0, 3, 0, 10)),
                             ("btbu2", DrcrTask(0, 3, 0, 10)),
                             ("btcs", SrlgTask(0, 3, 0, 10, 5))):
            report, result = bench_mod.solve(net, trees, task, solver, control)
            assert (report.outcome, result, report.pulses) == ("timeout", None, 0)


def test_timeout_enforced():
    import random
    rng = random.Random(13)
    n = 12
    edges = [Edge(u, v, rng.randint(1, 100), 1)
             for u in range(n) for v in range(n) if u != v]
    net = Network(n, edges)
    # the window admits only near-Hamiltonian paths: a huge search frontier
    task = DrcrTask(0, n - 1, n - 1, n - 1)
    records = run_suite(net, [task], "pulse", time_limit_ms=1.0)
    assert records[0].outcome == "timeout"


def test_repetitions_keep_minimum():
    net = Network(2, [Edge(0, 1, 5, 7)])
    task = DrcrTask(0, 1, 0, 10)
    single = run_suite(net, [task] * 3, "pulse", repetitions=3)
    assert all(r.outcome == "optimal" for r in single)


def test_summarize_median_and_strict_thresholds():
    low, high = bench_mod.THRESHOLDS_MS
    records = [BenchRecord(i, "pulse", "optimal", wall_time_us=int(t * 1000))
               for i, t in enumerate((low - 1, low, high - 1))]
    rows = summarize(records)
    row = rows[0]
    assert row.median_ms == low
    assert row.max_ms == high - 1
    assert row.solved_under_ms[low] == 1  # strict less-than: low itself is out
    assert row.solved_under_ms[high] == 3


def test_summarize_feasible_vs_resolved_split():
    records = [
        BenchRecord(0, "btcs", "pair", 1000),
        BenchRecord(1, "btcs", "infeasible", 1000),
        BenchRecord(2, "btcs", "timeout", 1000),
    ]
    row = summarize(records)[0]
    assert row.tasks == 3
    assert row.resolved == 2
    assert row.feasible_found == 1
    assert row.feasible_found <= row.resolved


def test_summarize_is_pure_and_sorted():
    records = [BenchRecord(0, "pulse", "optimal", 1000),
               BenchRecord(0, "btbu1", "optimal", 2000)]
    first = summarize(records)
    second = summarize(records)
    assert first == second
    assert [r.solver for r in first] == ["btbu1", "pulse"]


def test_summarize_empty():
    assert summarize([]) == []


def test_records_jsonl_roundtrip():
    records = [BenchRecord(0, "pulse", "optimal", 1234, pulses=5, ap_cost=7)]
    buf = io.StringIO()
    write_records_jsonl(records, buf, meta={"seed": 1})
    meta, line = buf.getvalue().splitlines()
    assert meta == "# seed=1"
    fields = json.loads(line)
    assert list(fields) == sorted(asdict(records[0]))
    assert BenchRecord(**fields) == records[0]


def test_summary_writers_include_meta():
    records = [BenchRecord(0, "pulse", "optimal", 1234)]
    rows = summarize(records)
    for writer in (write_summary_csv, write_summary_text):
        buf = io.StringIO()
        writer(rows, buf, meta={"note": "x"})
        text = buf.getvalue()
        assert text.startswith("# note=x\n")
        assert "pulse" in text


def test_sweep_alpha_runs_all_values():
    net = trap_network()
    task = SrlgTask(0, 5, 0, 100, 50)
    sweeps = sweep_alpha(net, [task], alphas=(1.0, 10.0))
    assert set(sweeps) == {1.0, 10.0}
    for records in sweeps.values():
        assert records[0].outcome == "pair" and records[0].ap_cost == 4


def test_task_node_outside_network_is_rejected_by_every_solver():
    net = Network(3, [Edge(0, 1, 1, 1), Edge(1, 2, 1, 1)])
    trees = build_reverse_trees(net, 2)
    for solver in ("pulse", "btbu1", "btbu2"):
        with pytest.raises(IntegrityError, match="source 7 is not a node"):
            bench_mod.solve(net, trees, DrcrTask(7, 2, 0, 20), solver)
    with pytest.raises(IntegrityError, match="target 5 is not a node"):
        bench_mod.solve(net, trees, SrlgTask(0, 5, 0, 20, 5), "btcs")
    # run_suite builds the trees first, so a bad target fails there
    for base, message in ((DrcrTask(7, 2, 0, 20), "task source 7"),
                          (DrcrTask(0, 5, 0, 20), "target 5")):
        for solver, task in (("btbu1", base), ("btcs", SrlgTask(*astuple(base), 5))):
            record, = run_suite(net, [task], solver)
            assert (record.outcome, record.error) == (
                "error", f"IntegrityError: {message} is not a node of the "
                         "3-node network")


def test_unknown_solver_rejected():
    net = Network(2, [Edge(0, 1, 5, 7)])
    with pytest.raises(ValueError):
        run_suite(net, [DrcrTask(0, 1, 0, 10)], "magic")


def test_unknown_solver_name_raises_in_solve():
    # a name that is no schedule must not fall through to one of them
    net = Network(2, [Edge(0, 1, 5, 7)])
    trees = build_reverse_trees(net, 1)
    for name in ("magic", "btcs2", "PULSE"):
        with pytest.raises(ValueError, match=f"unknown schedule '{name}'"):
            bench_mod.solve(net, trees, DrcrTask(0, 1, 0, 10), name)
        with pytest.raises(ValueError, match=f"unknown schedule '{name}'"):
            drcr.btbu.solve_btbu(net, trees, DrcrTask(0, 1, 0, 10), name)


def test_pulse_solver_is_the_unbounded_pulse_search():
    rng = random.Random(29)
    reached = 0
    for seed in range(80):
        rng.seed(seed)
        net = random_network(rng)
        task = random_task(rng, net)
        trees = build_reverse_trees(net, task.target)
        counters = SearchCounters()
        expected = pulse_optimal(net, trees, task, counters=counters)
        report, path = bench_mod.solve(net, trees, task, "pulse")
        assert path == expected
        assert report.outcome == ("infeasible" if expected is None else "optimal")
        if trees.min_cost_to_target[task.source] == inf:
            # no probe: the root pulse that pulse_optimal spends is saved
            assert (report.iterations, report.counters) == (0, SearchCounters())
        else:
            assert report.iterations == 1 and report.counters == counters
            reached += 1
    assert reached > 40


def test_solve_and_run_suite_look_solvers_up_on_their_modules(monkeypatch):
    # a wrapper on a module attribute (as a span tracer sets) sees every call
    calls = []
    for module, name in ((drcr.trees, "build_reverse_trees"),
                         (drcr.pulse, "pulse_optimal"),
                         (drcr.btbu, "solve_btbu"),
                         (drcr.btcs, "solve_btcs")):
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    net = trap_network()
    drcr_task = DrcrTask(0, 5, 0, 100)
    srlg_task = SrlgTask(0, 5, 0, 100, 50)
    expected = {"pulse": "solve_btbu", "btbu1": "solve_btbu",
                "btbu2": "solve_btbu", "btcs": "solve_btcs"}
    for solver, callee in expected.items():
        task = srlg_task if solver == "btcs" else drcr_task
        calls.clear()
        records = run_suite(net, [task], solver)
        assert records[0].outcome in ("optimal", "pair")
        assert calls == ["build_reverse_trees", callee]
        trees = drcr.trees.build_reverse_trees(net, 5)
        calls.clear()
        bench_mod.solve(net, trees, task, solver)
        assert calls == [callee]
