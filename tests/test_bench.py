"""Benchmark harness: timing protocol, summaries, serialization."""

from __future__ import annotations

import io
import threading

import pytest

from drcr import (BenchRecord, DrcrTask, Edge, Network, SearchControl,
                  SrlgTask, build_reverse_trees, run_suite, summarize,
                  sweep_alpha)
from drcr import bench as bench_mod
from drcr.bench import (read_records_jsonl, write_records_jsonl,
                        write_summary_csv, write_summary_text)

from conftest import trap_network


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
    task = SrlgTask(DrcrTask(0, 5, 0, 100), 50)
    records = run_suite(net, [task], "btcs", alpha=1.0)
    assert records[0].outcome == "pair" and records[0].ap_cost == 4
    assert records[0].corridors_explored >= 1


def test_solver_task_kind_mismatch_is_error_outcome():
    net = Network(2, [Edge(0, 1, 5, 7)])
    records = run_suite(net, [SrlgTask(DrcrTask(0, 1, 0, 10), 1)], "pulse")
    assert records[0].outcome == "error"
    assert records[0].error.startswith(
        "ValueError: solver 'pulse' needs single-path tasks")


def test_solve_reports_stop_event_as_timeout_for_every_solver():
    net = Network(4, [Edge(u, v, 1, 1) for u in range(4) for v in range(4) if u != v])
    trees = build_reverse_trees(net, 3)
    stop = threading.Event()
    stop.set()
    control = SearchControl(stop=stop, poll_every=1)
    for solver in ("pulse", "btbu1", "btbu2"):
        report, path = bench_mod.solve(net, trees, DrcrTask(0, 3, 0, 10), solver,
                                       control)
        assert report.outcome == "timeout" and path is None
        assert report.pulses >= 1
    report, pair = bench_mod.solve(net, trees, SrlgTask(DrcrTask(0, 3, 0, 10), 5),
                                   "btcs", control)
    assert report.outcome == "timeout" and pair is None


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
    records = [BenchRecord(i, "pulse", "optimal", wall_time_us=t * 1000)
               for i, t in enumerate((1, 2, 3))]
    rows = summarize(records, thresholds_ms=(2.0, 50.0))
    row = rows[0]
    assert row.median_ms == 2.0
    assert row.max_ms == 3.0
    assert row.solved_under_ms[2.0] == 1  # strict less-than: the 2 ms one is out
    assert row.solved_under_ms[50.0] == 3


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
    buf.seek(0)
    assert buf.getvalue().startswith("# seed=1\n")
    assert read_records_jsonl(buf) == records


def test_records_jsonl_without_error_field_still_read():
    old = ('{"ap_candidates_checked": 0, "ap_cost": 7, "corridors_explored": 0, '
           '"outcome": "optimal", "pulses": 5, "solver": "pulse", '
           '"task_id": 0, "wall_time_us": 1234}\n')
    [record] = read_records_jsonl(io.StringIO(old))
    assert record.error is None and record.ap_cost == 7


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
    task = SrlgTask(DrcrTask(0, 5, 0, 100), 50)
    sweeps = sweep_alpha(net, [task], alphas=(1.0, 10.0))
    assert set(sweeps) == {1.0, 10.0}
    for records in sweeps.values():
        assert records[0].outcome == "pair" and records[0].ap_cost == 4


def test_unknown_solver_rejected():
    net = Network(2, [Edge(0, 1, 5, 7)])
    with pytest.raises(ValueError):
        run_suite(net, [DrcrTask(0, 1, 0, 10)], "magic")
