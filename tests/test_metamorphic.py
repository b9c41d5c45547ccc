"""Metamorphic relations of the exact solvers (Chen, Cheung and Yiu, 1998).

Every edge cost times 7 leaves each solve's decisions alone: the same
report, work counts included, and the same path or pair at 7 times the
cost.  Every edge delay and every task delay bound (``d_low``, ``d_up`` and
``d_diff``) times 5 leaves the report and the path or pair alone, at 5
times the delay.  Both relations run on the instances of the CLI golden
test: its 200-node scale-free graph with star SRLGs and that graph's
disjoint-pair tasks under btcs, and its 200-node ER graph and that graph's
single-path tasks under pulse, btbu1 and btbu2.  A pair of solves in which
either times out is skipped and counted.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from drcr import (TIMEOUT, DisjointPair, Edge, GenSpec, Network, Path,
                  SrlgSpec, SrlgTask, build_reverse_trees, gen_graph,
                  gen_srlg, gen_tasks, solve_btbu, solve_btcs)

COST_FACTOR = 7
DELAY_FACTOR = 5
# 20 disjoint-pair tasks under one solver and 20 single-path tasks under
# three: at least this many pairs of solves must be compared, not skipped
MIN_COMPARED = 70


@pytest.fixture(scope="module")
def instances() -> list[tuple[Network, list, tuple[str, ...]]]:
    """(network, tasks, solvers) as the CLI golden test generates them."""
    sf = gen_graph(GenSpec("scale-free", 200, 2, seed=1))
    sf_tasks = gen_tasks(sf, 20, "srlg", seed=3)
    sf = sf.with_srlgs(gen_srlg(sf, SrlgSpec("star", seed=2)))
    er = gen_graph(GenSpec("er", 200, 5, seed=1))
    er_tasks = gen_tasks(er, 20, "drcr", seed=2)
    return [(sf, sf_tasks, ("btcs",)),
            (er, er_tasks, ("pulse", "btbu1", "btbu2"))]


def solve(net: Network, task, solver: str):
    """The report and the path or pair of one task under one solver."""
    trees = build_reverse_trees(net, task.target)
    if solver == "btcs":
        pair, report = solve_btcs(net, trees, task)
        return report, pair
    path, report = solve_btbu(net, trees, task, solver)
    return report, path


def scaled_result(result, cost: int, delay: int):
    """A path or pair with its totals scaled; None stays None."""
    if result is None:
        return None
    if isinstance(result, DisjointPair):
        return DisjointPair(scaled_result(result.ap, cost, delay),
                            scaled_result(result.pp, cost, delay))
    return Path(result.edges, result.total_cost * cost,
                result.total_delay * delay)


def check_relation(instances, cost: int, delay: int) -> tuple[int, int]:
    """Solve every task before and after scaling costs by ``cost`` and
    delays by ``delay``; assert equal reports and scaled results, and return
    how many pairs of solves were compared and how many were skipped."""
    compared = skipped = 0
    for net, tasks, solvers in instances:
        twin = Network(net.node_count,
                       [Edge(e.src, e.dst, e.cost * cost, e.delay * delay)
                        for e in net.edges], net.srlg_groups)
        for task in tasks:
            bounds = dict(d_low=task.d_low * delay, d_up=task.d_up * delay)
            if isinstance(task, SrlgTask):
                bounds["d_diff"] = task.d_diff * delay
            twin_task = replace(task, **bounds)
            for solver in solvers:
                report, result = solve(net, task, solver)
                twin_report, twin_result = solve(twin, twin_task, solver)
                if TIMEOUT in (report.outcome, twin_report.outcome):
                    skipped += 1
                    continue
                assert twin_report == report, (solver, task)
                assert twin_result == scaled_result(result, cost, delay), (
                    solver, task)
                compared += 1
    return compared, skipped


def test_costs_times_7_scale_the_cost_and_keep_the_report(instances):
    compared, skipped = check_relation(instances, COST_FACTOR, 1)
    print(f"\ncosts x{COST_FACTOR}: {compared} pairs of solves equal, "
          f"{skipped} skipped on a timeout")
    assert compared >= MIN_COMPARED


def test_delays_and_bounds_times_5_keep_the_report(instances):
    compared, skipped = check_relation(instances, 1, DELAY_FACTOR)
    print(f"\ndelays x{DELAY_FACTOR}: {compared} pairs of solves equal, "
          f"{skipped} skipped on a timeout")
    assert compared >= MIN_COMPARED
