"""Metamorphic relations of the exact solvers (Chen, Cheung and Yiu, 1998).

Every edge cost times 7 leaves each solve's decisions alone: the same
report, work counts included, and the same path or pair at 7 times the
cost.  Every edge delay and every task delay bound (``d_low``, ``d_up`` and
``d_diff``) times 5 leaves the report and the path or pair alone, at 5
times the delay.  Each relation runs a second time at the smallest factor
that lifts n * W past the int64 guard of ``drcr.trees``, so that the
twin's trees take the heap route and every solver sums in Python ints past
int64.  Relabelling the nodes and shuffling the edge order, with the
groups and tasks mapped along, keeps the outcome, the cost (the AP's for a
pair) and whether an SRLG cut settled the task.  It does not keep the path
or pair, nor the work counts: ties break by EdgeId.  A wider window (a
lower ``d_low`` or a higher ``d_up``) or a wider ``d_diff`` is never
dearer, and a feasible task stays feasible; merged groups or an added group
is never cheaper, and an infeasible task stays infeasible; deleting an edge
on neither returned path keeps the cost.  All these relations run on the
instances of the CLI golden test: its 200-node scale-free graph with star
SRLGs and that graph's disjoint-pair tasks under btcs, and its 200-node ER
graph and that graph's single-path tasks under pulse, btbu1 and btbu2.
A pair of solves in which either times out is skipped and counted.
"""

from __future__ import annotations

import operator
import random
from dataclasses import replace
from math import inf

import pytest

from drcr import (TIMEOUT, DisjointPair, Edge, GenSpec, Network, Path,
                  SrlgSpec, SrlgTask, build_reverse_trees, gen_graph,
                  gen_srlg, gen_tasks, solve_btbu, solve_btcs)
from drcr.trees import _arcs

COST_FACTOR = 7
DELAY_FACTOR = 5
# both instances have 200 nodes and weights up to 100, so this factor puts
# n * W just past 2**62; the corridor width, k * alpha * the cheapest edge
# cost, is a float, so it stays below 2**53 and exact
PAST_INT64 = 2 ** 62 // (200 * 100) + 1
# 20 disjoint-pair tasks under one solver and 20 single-path tasks under
# three: at least this many pairs of solves must be compared, not skipped
MIN_COMPARED = 70


@pytest.fixture(scope="module")
def instances() -> list[tuple[Network, list[tuple]]]:
    """(network, solves) as the CLI golden test generates them, where each
    solve is (task, solver, report, path or pair), solved once for every
    relation."""
    sf = gen_graph(GenSpec("scale-free", 200, 2, seed=1))
    sf_tasks = gen_tasks(sf, 20, "srlg", seed=3)
    sf = sf.with_srlgs(gen_srlg(sf, SrlgSpec("star", seed=2)))
    er = gen_graph(GenSpec("er", 200, 5, seed=1))
    er_tasks = gen_tasks(er, 20, "drcr", seed=2)
    return [(net, [(task, solver, *solve(net, task, solver))
                   for task in tasks for solver in solvers])
            for net, tasks, solvers in (
                (sf, sf_tasks, ("btcs",)),
                (er, er_tasks, ("pulse", "btbu1", "btbu2")))]


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
    for net, solves in instances:
        twin = Network(net.node_count,
                       [Edge(e.src, e.dst, e.cost * cost, e.delay * delay)
                        for e in net.edges], net.srlg_groups)
        # the twin's trees take the heap route just at the larger factor
        assert (_arcs(twin) is None) == (max(cost, delay) >= PAST_INT64)
        for task, solver, report, result in solves:
            bounds = dict(d_low=task.d_low * delay, d_up=task.d_up * delay)
            if isinstance(task, SrlgTask):
                bounds["d_diff"] = task.d_diff * delay
            twin_report, twin_result = solve(twin, replace(task, **bounds),
                                             solver)
            if TIMEOUT in (report.outcome, twin_report.outcome):
                skipped += 1
                continue
            assert twin_report == report, (solver, task)
            assert twin_result == scaled_result(result, cost, delay), (
                solver, task)
            compared += 1
    return compared, skipped


@pytest.mark.parametrize("k", [COST_FACTOR, PAST_INT64])
def test_costs_times_k_scale_the_cost_and_keep_the_report(instances, k):
    compared, skipped = check_relation(instances, k, 1)
    print(f"\ncosts x{k}: {compared} pairs of solves equal, "
          f"{skipped} skipped on a timeout")
    assert compared >= MIN_COMPARED


@pytest.mark.parametrize("k", [DELAY_FACTOR, PAST_INT64])
def test_delays_and_bounds_times_k_keep_the_report(instances, k):
    compared, skipped = check_relation(instances, 1, k)
    print(f"\ndelays x{k}: {compared} pairs of solves equal, "
          f"{skipped} skipped on a timeout")
    assert compared >= MIN_COMPARED


def cost_of(result) -> int | None:
    """The cost of a path, or of a pair's AP; None for no result."""
    if isinstance(result, DisjointPair):
        result = result.ap
    return None if result is None else result.total_cost


def test_relabelled_nodes_and_shuffled_edges_keep_the_cost(instances):
    rng = random.Random(1)
    compared = skipped = 0
    for net, solves in instances:
        label = list(range(net.node_count))  # node v becomes label[v]
        rng.shuffle(label)
        order = list(range(len(net.edges)))  # edge order[i] becomes edge i
        rng.shuffle(order)
        new_eid = {old: new for new, old in enumerate(order)}
        twin = Network(net.node_count, [
            Edge(label[e.src], label[e.dst], e.cost, e.delay)
            for e in (net.edges[i] for i in order)],
            [{new_eid[eid] for eid in group} for group in net.srlg_groups])
        for task, solver, report, result in solves:
            twin_report, twin_result = solve(twin, replace(
                task, source=label[task.source], target=label[task.target]),
                solver)
            if TIMEOUT in (report.outcome, twin_report.outcome):
                skipped += 1
                continue
            assert twin_report.outcome == report.outcome, (solver, task)
            assert cost_of(twin_result) == cost_of(result), (solver, task)
            assert (twin_report.srlg_cut is None) == (
                report.srlg_cut is None), (solver, task)
            compared += 1
    print(f"\nrelabelled: {compared} pairs of solves with the same outcome "
          f"and cost, {skipped} skipped on a timeout")
    assert compared >= MIN_COMPARED


def twin_costs(instances, solvers, twin_of) -> tuple[list[tuple], int]:
    """(solver, task, cost, twin cost) for every solve under one of
    ``solvers`` and the solve of its twin, ``twin_of(net, task, result)``, a
    (network, task) pair; a cost is inf where the solver proved the task
    infeasible.  Also returns how many pairs were skipped on a timeout."""
    costs, skipped = [], 0
    for net, solves in instances:
        for task, solver, report, result in solves:
            if solver not in solvers:
                continue
            twin_report, twin_result = solve(*twin_of(net, task, result),
                                             solver)
            if TIMEOUT in (report.outcome, twin_report.outcome):
                skipped += 1
                continue
            costs.append((solver, task, cost_of(result) or inf,
                          cost_of(twin_result) or inf))
    return costs, skipped


def check_order(costs, skipped, holds, name: str, minimum: int) -> None:
    """Assert ``holds(twin cost, cost)`` on every pair of solves, print how
    many were compared, changed and skipped, and require ``minimum``."""
    for solver, task, cost, twin_cost in costs:
        assert holds(twin_cost, cost), (solver, task, cost, twin_cost)
    changed = sum(cost != twin_cost for _, _, cost, twin_cost in costs)
    print(f"\n{name}: {len(costs)} pairs of solves compared, {changed} "
          f"with another cost, {skipped} skipped on a timeout")
    assert len(costs) >= minimum


SOLVERS = ("btcs", "pulse", "btbu1", "btbu2")
# the 20 disjoint-pair tasks under btcs: at least this many compared
MIN_PAIRS_COMPARED = 18


# each widening, and the solvers whose tasks it applies to
WIDENINGS = {
    "d_low halved": (SOLVERS, lambda t: replace(t, d_low=t.d_low // 2)),
    # far wider windows take the pulse search seconds on the ER graph
    "d_up raised by half the window": (SOLVERS, lambda t: replace(
        t, d_up=t.d_up + (t.d_up - t.d_low) // 2 + 1)),
    "d_diff doubled": (("btcs",), lambda t: replace(t, d_diff=2 * t.d_diff)),
}


@pytest.mark.parametrize("name", WIDENINGS)
def test_a_wider_window_or_d_diff_is_never_dearer(instances, name):
    # a feasible task stays feasible: its cost stays below inf
    solvers, widen = WIDENINGS[name]
    costs, skipped = twin_costs(instances, solvers,
                                lambda net, task, _: (net, widen(task)))
    check_order(costs, skipped, operator.le, name, MIN_PAIRS_COMPARED
                if solvers == ("btcs",) else MIN_COMPARED)


def test_merged_groups_are_never_cheaper(instances):
    # every group on the pair found becomes one group (groups 0 and 1 where
    # there is no pair), so that pair is no longer disjoint where both of its
    # paths have a grouped edge
    def merged(net, task, pair):
        edges = pair.ap.edges + pair.pp.edges if pair else ()
        gids = {gid for eid in edges for gid in net.edge_srlgs[eid]} or {0, 1}
        groups = net.srlg_groups
        return net.with_srlgs(
            [frozenset().union(*(groups[gid] for gid in gids))]
            + [g for gid, g in enumerate(groups) if gid not in gids]), task
    costs, skipped = twin_costs(instances, ("btcs",), merged)
    check_order(costs, skipped, operator.ge, "groups merged",
                MIN_PAIRS_COMPARED)


def test_an_added_group_is_never_cheaper(instances):
    # the new group holds a middle edge of the AP found and every other
    # edge out of the source, which a PP must start on, so that AP has no
    # PP left
    def added(net, task, pair):
        ap = pair.ap.edges if pair else net.adjacency[task.source][:1]
        group = {ap[len(ap) // 2]}.union(
            eid for eid in net.adjacency[task.source] if eid != ap[0])
        return net.with_srlgs([*net.srlg_groups, group]), task
    costs, skipped = twin_costs(instances, ("btcs",), added)
    check_order(costs, skipped, operator.ge, "group added",
                MIN_PAIRS_COMPARED)


def test_deleting_an_edge_on_neither_path_keeps_the_cost(instances):
    # where it can, the edge deleted leaves a node of the path or pair, an
    # edge a search may well have tried; later EdgeIds shift down by one
    rng = random.Random(2)

    def deleted(net, task, result):
        paths = ((result.ap, result.pp) if isinstance(result, DisjointPair)
                 else (result,) if result else ())
        used = {eid for path in paths for eid in path.edges}
        nodes = {net.edges[eid].src for eid in used}
        off_path = [eid for eid in range(len(net.edges)) if eid not in used]
        branches = [eid for eid in off_path if net.edges[eid].src in nodes]
        gone = rng.choice(branches or off_path)
        groups = [{eid - (eid > gone) for eid in group if eid != gone}
                  for group in net.srlg_groups]
        return Network(net.node_count, net.edges[:gone] + net.edges[gone + 1:],
                       [group for group in groups if group]), task
    costs, skipped = twin_costs(instances, SOLVERS, deleted)
    check_order(costs, skipped, operator.eq, "edge deleted", MIN_COMPARED)
