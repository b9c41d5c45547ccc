"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The trap-instance
suite (criteria 4, 6, 7) is generated once per session.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

import pytest

from drcr import (BTBU1, BTBU2, GenSpec, Network, SrlgSpec, SrlgTask,
                  TreeCache, build_histogram,
                  build_reverse_trees, check_path, enumerate_paths,
                  filter_tasks, gen_graph, gen_srlg, gen_tasks, oracle_drcr,
                  oracle_minmin, pulse_optimal, run_suite,
                  scan_corridor_paths, solve_btbu, solve_btcs)
from drcr.btcs import corridor_width
from drcr.netgen import AVOIDABLE

from conftest import random_network, random_task


def _report(n: int, name: str) -> None:
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_drcr_oracle_equivalence():
    """pulse(inf), btbu1 and btbu2 match the brute-force optimum exactly."""
    rng = random.Random(20240101)
    instances = 0
    feasible = 0
    while instances < 500:
        seed = instances
        rng.seed(seed)
        net = random_network(rng, max_nodes=12, max_edges=30)
        task = random_task(rng, net)
        instances += 1
        trees = build_reverse_trees(net, task.target)
        expected = oracle_drcr(net, task)
        got_pulse = pulse_optimal(net, trees, task)
        got_b1, rep1 = solve_btbu(net, trees, task, BTBU1)
        got_b2, rep2 = solve_btbu(net, trees, task, BTBU2)
        if expected is None:
            assert got_pulse is None and got_b1 is None and got_b2 is None
            assert rep1.outcome == rep2.outcome == "infeasible"
        else:
            feasible += 1
            assert got_pulse.total_cost == expected[0]
            assert got_b1.total_cost == expected[0]
            assert got_b2.total_cost == expected[0]
    assert instances >= 500 and feasible >= 100
    _report(1, f"DRCR oracle equivalence, {instances} instances, "
               f"{feasible} feasible")


def test_criterion_2_minmin_oracle_equivalence():
    """solve_btcs matches the exhaustive min-min optimum."""
    rng = random.Random(20240202)
    instances = 0
    pairs = 0
    while instances < 200:
        seed = instances
        rng.seed(seed)
        net = random_network(rng, max_nodes=10, max_edges=22, min_edges=10,
                             srlg_count=rng.randint(1, 12))
        task = random_task(rng, net, srlg=True)
        if seed % 2:
            task = SrlgTask(task.source, task.target, 0,
                            task.d_up + task.d_low,
                            max(task.d_diff, task.d_up // 2 + 1))
        instances += 1
        trees = build_reverse_trees(net, task.target)
        expected = oracle_minmin(net, task)
        pair, report = solve_btcs(net, trees, task)
        if expected is None:
            assert pair is None and report.outcome == "infeasible"
        else:
            assert report.outcome == "pair"
            assert pair.ap.total_cost == expected[0]
            check_path(net, pair.ap, task.source, task.target)
            check_path(net, pair.pp, task.source, task.target)
            assert task.d_low <= pair.ap.total_delay <= task.d_up
            assert task.d_low <= pair.pp.total_delay <= task.d_up
            assert abs(pair.ap.total_delay - pair.pp.total_delay) <= task.d_diff
            assert not set(pair.ap.edges) & set(pair.pp.edges)
            ap_groups = set()
            for eid in pair.ap.edges:
                ap_groups |= net.edge_srlgs[eid]
            assert all(not (net.edge_srlgs[e] & ap_groups)
                       for e in pair.pp.edges)
            pairs += 1
    assert instances >= 200 and pairs >= 30
    _report(2, f"min-min oracle equivalence, {instances} instances, "
               f"{pairs} pairs")


def test_criterion_3_corridor_completeness():
    """Corridor enumeration equals the filtered exhaustive enumeration."""
    rng = random.Random(20240303)
    instances = 0
    nonempty = 0
    while instances < 200:
        seed = instances
        rng.seed(seed)
        net = random_network(rng, max_nodes=12, max_edges=28, min_edges=8)
        task = random_task(rng, net)
        paths = enumerate_paths(net, task.source, task.target)
        if paths and seed % 2:
            # anchor half the corridors at a real path cost
            base = rng.choice(paths).total_cost
            c_low = max(0, base - rng.randint(0, 10))
            c_up = base + rng.randint(1, 40)
        else:
            c_low = rng.randint(0, 40)
            c_up = c_low + rng.randint(1, 80)
        instances += 1
        trees = build_reverse_trees(net, task.target)
        got = {p.edges for p in scan_corridor_paths(net, trees, task, c_low,
                                                    c_up)[0]}
        expected = {p.edges for p in paths
                    if task.d_low <= p.total_delay <= task.d_up
                    and c_low <= p.total_cost < c_up}
        assert got == expected
        nonempty += bool(expected)
    assert instances >= 200 and nonempty >= 40
    _report(3, f"corridor completeness, {instances} instances, "
               f"{nonempty} non-empty")


@dataclass
class TrapInstance:
    net: Network
    task: SrlgTask
    label: str
    start_cost: int
    ap_cost: int | None
    ap_edges: tuple[int, ...] | None


@pytest.fixture(scope="session")
def trap_suite():
    """Trap instances from generated ~200-node graphs, solved once at alpha=10.

    Solved under the default corridor schedule; a pair's AP is the same
    under every schedule.

    Graph seeds advance until at least 55 avoidable traps are collected.
    """
    instances: list[TrapInstance] = []
    avoidable = 0
    for g in range(24):
        if avoidable >= 55:
            break
        base = gen_graph(GenSpec("scale-free", 200, 4, seed=3000 + g))
        groups = gen_srlg(base, SrlgSpec("random", seed=4000 + g,
                                         random_size_range=(1, 6)))
        net = base.with_srlgs(groups)
        tasks = gen_tasks(net, 50, "srlg", seed=5000 + g)
        kept, labels = filter_tasks(net, tasks, "srlg")
        cache = TreeCache(net)
        for task, label in zip(kept, labels):
            trees = cache.get(task.target)
            start = pulse_optimal(net, trees, task).total_cost
            pair, _ = solve_btcs(net, trees, task)
            instances.append(TrapInstance(
                net=net, task=task, label=label, start_cost=start,
                ap_cost=pair.ap.total_cost if pair else None,
                ap_edges=pair.ap.edges if pair else None))
            avoidable += label == AVOIDABLE
    assert avoidable >= 55, f"only {avoidable} avoidable traps generated"
    return instances


def test_criterion_4_repeat_determinism(trap_suite):
    """A second solve gives the identical pair and identical report counts."""
    avoidable = [t for t in trap_suite if t.label == AVOIDABLE]
    assert len(avoidable) >= 50
    checked = 0
    for inst in avoidable[:60]:
        trees = build_reverse_trees(inst.net, inst.task.target)
        results = []
        for _ in range(2):
            pair, report = solve_btcs(inst.net, trees, inst.task)
            assert report.outcome == "pair"
            results.append((pair, report.corridors_explored,
                            report.ap_candidates_checked, report.counters))
        assert results[0] == results[1]
        pair = results[0][0]
        assert (pair.ap.total_cost, pair.ap.edges) == (inst.ap_cost,
                                                       inst.ap_edges)
        checked += 1
    assert checked >= 50
    _report(4, f"repeat determinism on {checked} trap instances")


def test_criterion_5_btbu_advantage_trend():
    """btbu1 never worse at the max, about equal at the median, vs pulse."""
    pulse_times: list[float] = []
    btbu_times: list[float] = []
    tasks_total = 0
    for topo, density, gseed, tseed in (("er", 7, 1000, 2000),
                                        ("scale-free", 2, 1010, 2010)):
        for g in range(10):
            net = gen_graph(GenSpec(topo, 1000, density, seed=gseed + g))
            tasks = gen_tasks(net, 50, "drcr", seed=tseed + g)
            kept, _ = filter_tasks(net, tasks, "drcr")
            tasks_total += len(kept)
            rp = run_suite(net, kept, "pulse", repetitions=2)
            rb = run_suite(net, kept, "btbu1", repetitions=2)
            assert all(r.outcome == "optimal" for r in rp)
            assert all(r.outcome == "optimal" for r in rb)
            for a, b in zip(rp, rb):
                assert a.ap_cost == b.ap_cost
            pulse_times += [r.wall_time_ms for r in rp]
            btbu_times += [r.wall_time_ms for r in rb]
    assert tasks_total >= 800
    max_ratio = max(btbu_times) / max(pulse_times)
    median_ratio = statistics.median(btbu_times) / statistics.median(pulse_times)
    assert max_ratio <= 1.0, f"max ratio {max_ratio:.3f}"
    assert median_ratio <= 1.1, f"median ratio {median_ratio:.3f}"
    _report(5, f"BTBU trend on {tasks_total} tasks: max ratio "
               f"{max_ratio:.3f}, median ratio {median_ratio:.3f}")


def test_criterion_6_trap_structure(trap_suite):
    """Protected mass sits above the unprotected optimum, in the low tail."""
    avoidable = [t for t in trap_suite if t.label == AVOIDABLE]
    # corridors the paper's fixed-width sweep explores to reach the pair
    fixed = [(t.ap_cost - t.start_cost) // corridor_width(t.net, 10.0) + 1
             for t in avoidable]
    assert max(fixed) <= 50, f"{max(fixed)} fixed-width corridors, beyond " \
                             f"a few dozen"
    strict = []
    for inst in avoidable:
        width = corridor_width(inst.net, 10.0)
        if inst.ap_cost // width > inst.start_cost // width:
            strict.append((inst, width))
    assert len(strict) >= 20, f"only {len(strict)} bin-strict traps"
    for inst, width in strict[:30]:
        hist = build_histogram(inst.net, inst.task, width,
                               cost_ceiling=inst.ap_cost + 2 * width,
                               include_all=False)
        protected = hist.series["protected"]
        start_bin = (inst.start_cost // width) * width
        ap_bin = (inst.ap_cost // width) * width
        assert protected.get(start_bin, 0) == 0
        assert protected.get(ap_bin, 0) >= 1
        assert hist.series["feasible"].get(start_bin, 0) >= 1
    _report(6, f"trap structure on {len(strict)} bin-strict instances, "
               f"max fixed-width corridors {max(fixed)}")


def test_criterion_7_alpha_sweep_stability(trap_suite):
    """Feasible-found counts are stable between alpha = 5 and alpha = 20."""
    avoidable = [t for t in trap_suite if t.label == AVOIDABLE][:55]
    by_net: dict[int, list] = {}
    for inst in avoidable:
        by_net.setdefault(id(inst.net), []).append(inst)
    counts: dict[float, int] = {}
    for alpha in (1, 2, 5, 10, 20, 50):
        found = 0
        for group in by_net.values():
            net = group[0].net
            records = run_suite(net, [i.task for i in group], "btcs",
                                time_limit_ms=10_000.0, alpha=float(alpha))
            found += sum(r.outcome == "pair" for r in records)
        counts[alpha] = found
    assert counts[5] > 0
    drift = abs(counts[5] - counts[20]) / counts[5]
    assert drift <= 0.10, f"alpha drift {drift:.2%}, counts {counts}"
    _report(7, f"alpha sweep stable: counts {counts}, "
               f"drift 5 vs 20 = {drift:.2%}")


def test_criterion_8_dataset_shape():
    """Link counts, SRLG coverage and star structure of generated datasets."""
    sf_expected = {(1000, 2): 3992, (1000, 3): 5982, (1000, 4): 7968,
                   (2000, 2): 7992}
    for (nodes, m), expected in sf_expected.items():
        net = gen_graph(GenSpec("scale-free", nodes, m, seed=7000 + m))
        assert abs(len(net.edges) - expected) <= 0.02 * expected, \
            f"SF {nodes}/m{m}: {len(net.edges)} vs {expected}"
    for k in (7, 15, 21):
        net = gen_graph(GenSpec("er", 1000, k, seed=7100 + k))
        target = 1000 * k
        assert abs(len(net.edges) - target) <= 0.10 * target, \
            f"ER k={k}: {len(net.edges)} vs {target}"
    base = gen_graph(GenSpec("er", 200, 5, seed=7200))
    for pattern, size_range in (("random", (1, 40)), ("star", (1, 40))):
        groups = gen_srlg(base, SrlgSpec(pattern, seed=7300,
                                         random_size_range=size_range))
        covered = set()
        for g in groups:
            covered |= g
            if pattern == "random":
                assert 1 <= len(g) <= 40
            else:
                origins = {base.edges[e].src for e in g}
                assert len(origins) == 1
        assert covered == set(range(len(base.edges)))
    _report(8, "dataset shape: SF exact, ER within 10%, SRLG covered")
