"""Generators: topology arithmetic, coverage, determinism, window rules."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import astuple
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcr import (BtcsConfig, DrcrTask, Edge, GenerationError, GenSpec,
                  IntegrityError, Network, SrlgSpec, SrlgTask,
                  build_reverse_trees, check_path, filter_tasks, gen_graph,
                  gen_srlg, gen_tasks, oracle_drcr, pulse_first_feasible,
                  pulse_optimal, save_network, save_tasks, try_protect)
import drcr.pulse
from drcr.cli import main
from drcr.network import format_task
from drcr.netgen import (AVOIDABLE, FEASIBLE, UNAVOIDABLE, UNKNOWN,
                         _barabasi_albert_links)

from conftest import random_network, random_task, write_golden


def test_scale_free_link_counts_match_attachment_arithmetic():
    # undirected attachment gives m*(n-m) edges; both directions are emitted
    net = gen_graph(GenSpec("scale-free", 1000, 2, seed=1))
    assert len(net.edges) == 3992
    net = gen_graph(GenSpec("scale-free", 1000, 3, seed=1))
    assert len(net.edges) == 5982


def test_scale_free_minimal_graph():
    net = gen_graph(GenSpec("scale-free", 2, 1, seed=5))
    assert len(net.edges) == 2
    assert {(e.src, e.dst) for e in net.edges} == {(0, 1), (1, 0)}


def test_barabasi_albert_links_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    cases = [(1000, 2, 1), (300, 2, 11), (500, 2, 2), (2, 1, 0), (9, 8, 3)]
    for _ in range(200):
        n = rng.randint(2, 120)
        m = rng.choice((n - 1, rng.randint(1, n - 1), rng.randint(1, min(4, n - 1))))
        cases.append((n, m, rng.randrange(2**32)))
    assert any(n == m + 1 for n, m, _ in cases)
    for n, m, seed in cases:
        assert _barabasi_albert_links(n, m, seed) == list(
            nx.barabasi_albert_graph(n, m, seed=seed).edges()), (n, m, seed)


def _python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this drcr."""
    src = str(Path(drcr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_package_runs_without_networkx(tmp_path):
    argv = ["gen-graph", "--topology", "scale-free", "--nodes", "300",
            "--density", "2", "--seed", "11", "--out"]
    blocked = _python("import sys\n"
                      "sys.modules['networkx'] = None  # any import of it fails\n"
                      "from drcr.cli import main\n"
                      f"sys.exit(main({argv + ['blocked.csv']!r}))", tmp_path)
    assert blocked.returncode == 0, blocked.stderr
    assert main(argv + [str(tmp_path / "here.csv")]) == 0
    assert ((tmp_path / "blocked.csv").read_bytes()
            == (tmp_path / "here.csv").read_bytes())

    # numpy is the one runtime dependency: importing the package and its
    # CLI loads neither optional package, installed or not
    plain = _python("import sys, drcr, drcr.cli\n"
                    "print(sorted({'networkx', 'scipy'} & set(sys.modules)))",
                    tmp_path)
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout == "[]\n"


def test_er_link_count_near_target():
    net = gen_graph(GenSpec("er", 1000, 7, seed=3))
    assert abs(len(net.edges) - 6929) <= 693  # within 10% of the reported scale
    assert abs(len(net.edges) - 7000) <= 700  # and of the calibrated target


def test_weights_within_range():
    net = gen_graph(GenSpec("er", 100, 5, cost_range=(1, 100),
                            delay_range=(1, 100), seed=9))
    assert all(1 <= e.cost <= 100 and 1 <= e.delay <= 100 for e in net.edges)
    assert all(e.src != e.dst for e in net.edges)


def test_gen_srlg_random_coverage_and_sizes():
    net = gen_graph(GenSpec("er", 20, 3, seed=21))
    assert len(net.edges) >= 50
    groups = gen_srlg(net, SrlgSpec("random", seed=2))
    covered = set()
    for g in groups:
        assert 1 <= len(g) <= 40
        covered |= g
    assert covered == set(range(len(net.edges)))


def test_gen_srlg_single_edge_graph():
    net = Network(2, [Edge(0, 1, 1, 1)])
    groups = gen_srlg(net, SrlgSpec("random", seed=0))
    assert groups == (frozenset({0}),)


def test_gen_srlg_star_groups_share_origin():
    net = gen_graph(GenSpec("er", 30, 4, seed=31))
    groups = gen_srlg(net, SrlgSpec("star", seed=4))
    covered = set()
    for g in groups:
        origins = {net.edges[eid].src for eid in g}
        assert len(origins) == 1
        assert g <= set(net.adjacency[origins.pop()])
        covered |= g
    assert covered == set(range(len(net.edges)))


def test_gen_tasks_counts_and_window_rule():
    net = gen_graph(GenSpec("er", 200, 5, seed=51))
    tasks = gen_tasks(net, 50, "drcr", seed=52)
    assert len(tasks) == 50
    pairs = {(t.source, t.target) for t in tasks}
    assert len(pairs) == 50
    for task in tasks:
        assert task.source != task.target
        assert 0 < task.d_low < task.d_up
        trees = build_reverse_trees(net, task.target)
        min_delay = trees.min_delay_to_target[task.source]
        assert min_delay < float("inf")  # pairs are connected
        # the window is a band scaled from the min delay; it may sit above it
        assert task.d_low <= 4 * min_delay


def test_gen_tasks_srlg_kind_carries_diff():
    net = gen_graph(GenSpec("er", 100, 5, seed=61))
    tasks = gen_tasks(net, 20, "srlg", seed=62)
    for task in tasks:
        assert isinstance(task, SrlgTask)
        assert task.d_low == 0
        assert 1 <= task.d_diff <= task.d_up


def test_gen_tasks_forced_pair_on_minimal_graph():
    net = Network(2, [Edge(0, 1, 3, 4)])
    tasks = gen_tasks(net, 1, "drcr", seed=1)
    assert tasks[0].source == 0 and tasks[0].target == 1


def test_gen_tasks_exhaustion_error():
    net = Network(2, [Edge(0, 1, 3, 4)])
    with pytest.raises(GenerationError):
        gen_tasks(net, 2, "drcr", seed=1)  # only one connected pair exists


def test_filter_tasks_drcr_drops_infeasible():
    net = Network(3, [Edge(0, 1, 1, 5), Edge(1, 2, 1, 5)])
    good = DrcrTask(0, 2, 0, 20)
    bad = DrcrTask(0, 2, 0, 3)  # min delay is 10
    kept, labels = filter_tasks(net, [good, bad], "drcr")
    assert kept == [good] and labels == [FEASIBLE]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_drcr_filter_keeps_exactly_the_oracle_feasible_tasks(seed):
    rng = random.Random(seed)
    net = random_network(rng)
    tasks = [random_task(rng, net) for _ in range(4)]
    feasible = [task for task in tasks if oracle_drcr(net, task) is not None]
    kept, labels = filter_tasks(net, tasks, "drcr")
    assert kept == feasible and labels == [FEASIBLE] * len(kept)
    for task in tasks:
        path = pulse_first_feasible(net, build_reverse_trees(net, task.target),
                                    task)
        assert (path is not None) == (task in feasible)
        if path is not None:
            check_path(net, path, task.source, task.target)
            assert task.d_low <= path.total_delay <= task.d_up


def test_filter_tasks_srlg_keeps_only_traps(trap_net):
    trap = SrlgTask(0, 5, 0, 100, 50)
    non_trap_net = Network(4, [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1),
                               Edge(0, 2, 5, 1), Edge(2, 3, 5, 1)],
                           [{0}, {2}])
    non_trap = SrlgTask(0, 3, 0, 100, 100)

    kept, labels = filter_tasks(trap_net, [trap], "srlg")
    assert kept == [trap] and labels == [AVOIDABLE]
    kept, labels = filter_tasks(non_trap_net, [non_trap], "srlg")
    assert kept == []

    unavoidable_net = Network(4, [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1),
                                  Edge(0, 2, 5, 1), Edge(2, 3, 5, 1)],
                              [{0, 2}])
    kept, labels = filter_tasks(unavoidable_net, [non_trap], "srlg")
    assert kept == [non_trap] and labels == [UNAVOIDABLE]


def test_filter_tasks_trap_labels_recheck(trap_net):
    # every kept srlg task really is a trap: its cheapest AP has no protection
    tasks = [SrlgTask(0, 5, 0, 100, 50)]
    kept, _ = filter_tasks(trap_net, tasks, "srlg")
    for task in kept:
        trees = build_reverse_trees(trap_net, task.target)
        ap = pulse_optimal(trap_net, trees, task)
        assert ap is not None
        assert try_protect(trap_net, trees, task, ap) is None


def test_filter_tasks_srlg_runs_stage_one_once(trap_net, monkeypatch):
    calls = []
    walk = drcr.pulse._pulse

    def counting(*args, **kwargs):
        calls.append(args[6])  # the walk's terminal mode
        return walk(*args, **kwargs)

    monkeypatch.setattr(drcr.pulse, "_pulse", counting)
    trap = SrlgTask(0, 5, 0, 100, 50)
    no_ap = SrlgTask(0, 5, 0, 1, 1)  # every route has delay >= 2
    kept, labels = filter_tasks(trap_net, [trap, no_ap], "srlg")
    assert kept == [trap] and labels == [AVOIDABLE]
    # one optimal search per task: the stage 1 of its single solve_btcs
    assert calls.count(drcr.pulse._BEST) == 2


def test_filter_tasks_srlg_deadline_labels_unknown(trap_net, poll_each_pulse):
    trap = SrlgTask(0, 5, 0, 100, 50)
    kept, labels = filter_tasks(trap_net, [trap], "srlg", time_limit_ms=-1)
    assert kept == [trap] and labels == [UNKNOWN]


def test_filter_tasks_srlg_egress_cut_keeps_only_tasks_with_an_ap(
        poll_each_pulse, monkeypatch):
    # both egress edges of node 0 lie in SRLG 0: settled before any AP search
    net = Network(4, [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1),
                      Edge(0, 2, 5, 1), Edge(2, 3, 5, 1)], [{0, 2}])
    trap = SrlgTask(0, 3, 0, 100, 100)
    no_ap = SrlgTask(0, 3, 0, 1, 1)  # every route has delay 2
    kept, labels = filter_tasks(net, [no_ap, trap], "srlg")
    assert kept == [trap] and labels == [UNAVOIDABLE]
    # a clock that ticks once per read: the deadline, made at 0, passes
    # before the cut test's first search (read 2), after its entry poll
    # (read 1)
    ticks = count()
    monkeypatch.setattr(drcr.pulse, "monotonic", lambda: next(ticks))
    kept, labels = filter_tasks(net, [trap], "srlg", time_limit_ms=1500)
    assert kept == [trap] and labels == [UNKNOWN]


def test_filter_tasks_drcr_deadline_labels_unknown(poll_each_pulse):
    net = Network(3, [Edge(0, 1, 1, 5), Edge(1, 2, 1, 5)])
    task = DrcrTask(0, 2, 0, 20)
    kept, labels = filter_tasks(net, [task], "drcr", time_limit_ms=-1)
    assert kept == [task] and labels == [UNKNOWN]


def _late_feasible() -> tuple[Network, DrcrTask]:
    """A first-feasible search of about 1500 pulses: two polls at 512.

    Only node 7 of the complete digraph on 0..7 has an edge to 8, and the
    window admits only the paths through all eight, so the walk first
    exhausts the shorter ways to 7.
    """
    n = 8
    edges = [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v]
    return Network(n + 1, edges + [Edge(7, 8, 100, 1)]), DrcrTask(0, 8, 8, 8)


def test_filter_tasks_time_limit_is_a_deadline_per_task(monkeypatch):
    net, task = _late_feasible()
    # a clock that ticks once per read: making a deadline reads it once,
    # and each task's walk reads it at its two polls
    ticks = count()
    monkeypatch.setattr(drcr.pulse, "monotonic", lambda: next(ticks))
    kept, labels = filter_tasks(net, [task, task], "drcr", time_limit_ms=2500)
    assert labels == [FEASIBLE, FEASIBLE]
    kept, labels = filter_tasks(net, [task], "drcr", time_limit_ms=1500)
    assert kept == [task] and labels == [UNKNOWN]


def test_filter_tasks_kind_mismatch():
    net = Network(2, [Edge(0, 1, 1, 1)])
    # a pair task is a DrcrTask too, yet the drcr filter refuses it
    with pytest.raises(ValueError, match="expected single-path tasks"):
        filter_tasks(net, [SrlgTask(0, 1, 0, 5, 1)], "drcr")
    with pytest.raises(ValueError, match="expected disjoint-pair tasks"):
        filter_tasks(net, [DrcrTask(0, 1, 0, 5)], "srlg")


@pytest.mark.parametrize("base, message", [
    (DrcrTask(5, 1, 0, 10), "source 5 is not a node"),
    (DrcrTask(0, 3, 0, 10), "target 3 is not a node"),
])
@pytest.mark.parametrize("kind", ["drcr", "srlg"])
def test_filter_tasks_rejects_a_task_node_outside_the_network(base, message,
                                                              kind):
    net = Network(2, [Edge(0, 1, 1, 1)])
    task = base if kind == "drcr" else SrlgTask(*astuple(base), 5)
    with pytest.raises(IntegrityError, match=message):
        filter_tasks(net, [task], kind)


GOLDEN_DIGESTS = Path(__file__).with_name("netgen_golden.json")


def golden_digests(tmp: Path) -> dict[str, str]:
    """sha256 of the saved output of every generator on fixed seeded specs.

    Graphs of both topologies under three weight ranges (the default, a
    wide cost with a narrow delay, and a constant cost); random and star
    SRLGs; tasks of both kinds; and the tasks each filter keeps, with their
    labels, in the ``filter-tasks --labels-out`` format.
    """
    digests: dict[str, str] = {}

    def digest(name, write):
        path = tmp / name
        write(path)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()

    def save_labelled(kept, labels):
        return lambda path: path.write_text("".join(
            f"{format_task(t)},{label}\n" for t, label in zip(kept, labels)))

    ranges = {"default": {}, "c3-1000-d1-7": {"cost_range": (3, 1000),
                                              "delay_range": (1, 7)},
              "c1-1-d1-100": {"cost_range": (1, 1), "delay_range": (1, 100)}}
    nets = {}
    for topology, density, seed in (("er", 5, 21), ("scale-free", 2, 22)):
        for label, kw in ranges.items():
            net = gen_graph(GenSpec(topology, 300, density, seed=seed, **kw))
            nets[topology, label] = net
            digest(f"graph-{topology}-{label}",
                   lambda path, net=net: save_network(net, path))

    er, sf = nets["er", "default"], nets["scale-free", "default"]
    srlg_nets = {}
    for pattern, seed in (("random", 31), ("star", 32)):
        groups = gen_srlg(sf, SrlgSpec(pattern, seed=seed))
        srlg_nets[pattern] = sf.with_srlgs(groups)
        digest(f"srlg-{pattern}", lambda path, groups=groups: save_network(
            sf.with_srlgs(groups), tmp / "srlg-graph.csv", path))

    drcr_tasks = gen_tasks(er, 40, "drcr", seed=42)
    digest("tasks-drcr", lambda path: save_tasks(drcr_tasks, path))
    srlg_tasks = gen_tasks(srlg_nets["star"], 20, "srlg", seed=43)
    digest("tasks-srlg", lambda path: save_tasks(srlg_tasks, path))

    digest("filter-drcr", save_labelled(*filter_tasks(er, drcr_tasks, "drcr")))
    for pattern, net in srlg_nets.items():
        kept = filter_tasks(net, srlg_tasks, "srlg",
                            btcs_cfg=BtcsConfig(max_corridors=30))
        digest(f"filter-srlg-{pattern}", save_labelled(*kept))
    return digests


def test_generator_outputs_match_golden_digests(tmp_path):
    # regenerate with: PYTHONPATH=src:tests python tests/test_netgen.py
    expected = json.loads(GOLDEN_DIGESTS.read_text())
    assert golden_digests(tmp_path) == expected


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        table = golden_digests(Path(tmp))
    write_golden(GOLDEN_DIGESTS, table, lambda digest: digest, indent=" ")
