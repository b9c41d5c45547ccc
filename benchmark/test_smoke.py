"""Tests of the benchmark itself: ``pytest benchmark/test_smoke.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def _run(args, cwd, timeout=300):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_smoke_mode_passes_and_counts_the_corrupted_answer():
    proc = _run(["--smoke"], HERE.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "smoke: PASS"
    assert "smoke: corrupted answer counted as failed" in lines
    results = [json.loads(line) for line in lines if line.startswith("{")]
    # three workloads, untraced and traced, then the corrupted run
    assert len(results) == 7
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
    assert [r["correct"] for r in results] == [True] * 6 + [False]
    assert results[-1]["failed"] == 1
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for result, trace in zip(results[:6], [0, 1] * 3):
        kind = "per_layer" if trace else "end_to_end"
        assert set(result["metrics"]) == {m["name"] for m in declared[kind]}
    traced = results[1]["metrics"]
    assert traced["trace.coverage_frac"]["value"] > 0.9
    # the tiny srlg-star deadline exercises timeouts, traced ones included
    assert results[5]["failed"] >= 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                           "drcr-1000", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
