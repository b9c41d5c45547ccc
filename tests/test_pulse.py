"""Pulse engine: spec'd behaviors on tiny fixtures plus randomized oracle checks."""

from __future__ import annotations

import json
import random
import threading
from math import inf
from pathlib import Path
from time import monotonic

import pytest

from drcr import (CostCorridor, DrcrTask, Edge, Network, SearchCancelled,
                  SearchControl, SearchCounters, SearchTimeout,
                  build_reverse_trees, build_search_order, check_path,
                  count_paths_capped, enumerate_paths, oracle_drcr,
                  pulse_all_in_corridor, pulse_first_feasible, pulse_optimal)
from drcr.network import NetworkView, as_view
from drcr.pulse import scan_corridor_paths

from conftest import eager_search_rows, random_network, random_task


def _solve(net, task, bound=inf, **kw):
    trees = build_reverse_trees(net, task.target)
    return pulse_optimal(net, trees, task, bound, **kw)


def test_single_edge(diamond_net):
    net = Network(2, [Edge(0, 1, 5, 7)])
    path = _solve(net, DrcrTask(0, 1, 0, 10))
    assert path.total_cost == 5 and path.edges == (0,)


def test_diamond_delay_window_forces_costly_route(diamond_net):
    path = _solve(diamond_net, DrcrTask(0, 3, 0, 15))
    assert path.total_cost == 10 and path.edges == (2, 3)


def test_diamond_bound_excludes_optimum(diamond_net):
    assert _solve(diamond_net, DrcrTask(0, 3, 0, 15), bound=10) is None
    assert _solve(diamond_net, DrcrTask(0, 3, 0, 15), bound=11).total_cost == 10


def test_delay_lower_bound_respected(diamond_net):
    # only the slow route reaches 20 delay
    path = _solve(diamond_net, DrcrTask(0, 3, 15, 30))
    assert path.edges == (0, 1) and path.total_delay == 20


def test_corridor_collects_exactly_the_window(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    task = DrcrTask(0, 3, 0, 100)
    got = pulse_all_in_corridor(diamond_net, trees, task, CostCorridor(0, 100))
    assert sorted(p.total_cost for p in got) == [2, 10]
    assert pulse_all_in_corridor(diamond_net, trees, task, CostCorridor(3, 10)) == []
    only = pulse_all_in_corridor(diamond_net, trees, task, CostCorridor(10, 11))
    assert [p.total_cost for p in only] == [10]


def test_corridor_rejects_empty_interval():
    with pytest.raises(ValueError):
        CostCorridor(5, 5)


def test_first_feasible_single_edge():
    net = Network(2, [Edge(0, 1, 5, 7)])
    trees = build_reverse_trees(net, 1)
    assert pulse_first_feasible(net, trees, DrcrTask(0, 1, 0, 10)).edges == (0,)


def test_first_feasible_ignores_cost(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    # only the slow cheap route fits the window; feasibility, not optimality
    path = pulse_first_feasible(diamond_net, trees, DrcrTask(0, 3, 16, 25))
    assert path.edges == (0, 1)


def test_first_feasible_empty_window(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    assert pulse_first_feasible(diamond_net, trees, DrcrTask(0, 3, 50, 60)) is None


def test_count_paths_diamond_bins(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    relaxed = DrcrTask(0, 3, 0, 10 ** 9)
    bins, truncated = count_paths_capped(diamond_net, trees, relaxed, 10, 10 ** 8)
    assert bins == {0: 1, 10: 1} and not truncated


def test_count_paths_cap_truncates(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    bins, truncated = count_paths_capped(diamond_net, trees,
                                         DrcrTask(0, 3, 0, 10 ** 9), 10, 1)
    assert sum(bins.values()) == 1 and truncated


def test_count_paths_disconnected():
    net = Network(3, [Edge(0, 1, 1, 1)])
    trees = build_reverse_trees(net, 2)
    bins, truncated = count_paths_capped(net, trees, DrcrTask(0, 2, 0, 10 ** 9),
                                         10, 10 ** 8)
    assert bins == {} and not truncated


def test_matches_oracle_on_random_instances():
    rng = random.Random(101)
    checked = found_on_view = 0
    for seed in range(150):
        rng.seed(seed)
        net = random_network(rng)
        task = random_task(rng, net)
        trees = build_reverse_trees(net, task.target)
        expected = oracle_drcr(net, task)
        got = pulse_optimal(net, trees, task)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.total_cost == expected[0]
            check_path(net, got, task.source, task.target)
            assert task.d_low <= got.total_delay <= task.d_up
            checked += 1
        view = NetworkView(net, frozenset(rng.sample(range(len(net.edges)),
                                                     len(net.edges) // 3)))
        for space in (net, view):
            first = pulse_first_feasible(space, trees, task)
            if oracle_drcr(space, task) is None:
                assert first is None
            else:
                assert first is not None
                check_path(net, first, task.source, task.target)
                assert task.d_low <= first.total_delay <= task.d_up
                assert not set(first.edges) & as_view(space).excluded
                found_on_view += space is view
    assert checked > 20
    assert found_on_view > 10


def test_corridor_matches_oracle_enumeration():
    rng = random.Random(202)
    for seed in range(100):
        rng.seed(seed)
        net = random_network(rng)
        task = random_task(rng, net)
        c_low = rng.randint(0, 30)
        c_up = c_low + rng.randint(1, 60)
        trees = build_reverse_trees(net, task.target)
        got = pulse_all_in_corridor(net, trees, task, CostCorridor(c_low, c_up))
        expected = {
            p.edges for p in enumerate_paths(net, task.source, task.target)
            if task.d_low <= p.total_delay <= task.d_up
            and c_low <= p.total_cost < c_up}
        assert {p.edges for p in got} == expected
        for p in got:
            check_path(net, p, task.source, task.target)


def test_pruning_neutrality():
    rng = random.Random(303)
    for seed in range(60):
        rng.seed(seed)
        net = random_network(rng, max_nodes=8, max_edges=18)
        task = random_task(rng, net)
        trees = build_reverse_trees(net, task.target)
        pruned = pulse_optimal(net, trees, task, prune=True)
        unpruned = pulse_optimal(net, trees, task, prune=False)
        assert (pruned is None) == (unpruned is None)
        if pruned is not None:
            assert pruned.total_cost == unpruned.total_cost


def test_monotone_bound():
    rng = random.Random(404)
    for seed in range(60):
        rng.seed(seed)
        net = random_network(rng)
        task = random_task(rng, net)
        trees = build_reverse_trees(net, task.target)
        low = rng.randint(1, 40)
        high = low + rng.randint(1, 40)
        got_low = pulse_optimal(net, trees, task, low)
        got_high = pulse_optimal(net, trees, task, high)
        if got_low is not None:
            assert got_high is not None
            assert got_low.total_cost == got_high.total_cost


def test_deterministic_result(diamond_net):
    task = DrcrTask(0, 3, 0, 100)
    trees = build_reverse_trees(diamond_net, 3)
    runs = [pulse_optimal(diamond_net, trees, task) for _ in range(3)]
    assert len({r.edges for r in runs}) == 1


def test_counters_populated(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    counters = SearchCounters()
    pulse_optimal(diamond_net, trees, DrcrTask(0, 3, 0, 15), counters=counters)
    assert counters.pulses > 0
    assert counters.infeasibility_prunes > 0  # slow route cut at depth 1


def test_view_exclusions_respected(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    view = NetworkView(diamond_net, frozenset({2}))
    path = pulse_optimal(view, trees, DrcrTask(0, 3, 0, 100))
    assert path.edges == (0, 1)


def test_deep_chain_does_not_hit_recursion_limit():
    n = 5000
    net = Network(n, [Edge(i, i + 1, 1, 1) for i in range(n - 1)])
    trees = build_reverse_trees(net, n - 1)
    path = pulse_optimal(net, trees, DrcrTask(0, n - 1, 0, n))
    assert path is not None and len(path.edges) == n - 1


def test_deadline_raises_timeout():
    n = 8
    edges = [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v]
    net = Network(n, edges)
    task = DrcrTask(0, n - 1, 0, 10 ** 9)
    trees = build_reverse_trees(net, task.target)
    control = SearchControl(deadline=monotonic() - 1.0, poll_every=1)
    with pytest.raises(SearchTimeout):
        pulse_optimal(net, trees, task, control=control, prune=False)


def test_preset_stop_event_cancels_search():
    # complete digraph, delay window only met by Hamiltonian paths: the
    # unpruned walk runs far past the 512-pulse poll interval
    n = 8
    net = Network(n, [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v])
    task = DrcrTask(0, n - 1, n - 1, n - 1)
    trees = build_reverse_trees(net, task.target)
    stop = threading.Event()
    stop.set()
    counters = SearchCounters()
    with pytest.raises(SearchCancelled):
        pulse_optimal(net, trees, task, counters=counters,
                      control=SearchControl(stop=stop), prune=False)
    # the root pulse, then the poll_every pulses up to the first poll
    assert counters.pulses == 1 + SearchControl().poll_every


def test_lazy_rows_match_eager_reference():
    rng = random.Random(41)
    built = 0
    for seed in range(60):
        rng.seed(seed)
        net = random_network(rng, max_nodes=14, max_edges=40)
        task = random_task(rng, net)
        trees = build_reverse_trees(net, task.target)
        reference = eager_search_rows(net, trees.min_cost_to_target,
                                      trees.min_delay_to_target)
        order = build_search_order(net, trees)
        assert order.rows == [None] * net.node_count
        pulse_optimal(net, trees, task, order=order)
        pulse_all_in_corridor(net, trees, task, CostCorridor(0, inf), order=order)
        view = NetworkView(net, frozenset(rng.sample(range(len(net.edges)),
                                                     len(net.edges) // 3)))
        pulse_first_feasible(view, trees, task, order=order)
        for u, row in enumerate(order.rows):
            if row is not None:
                built += 1
                assert row == reference[u]
        assert [order.row(u) for u in range(net.node_count)] == reference
    assert built > 60


def test_search_builds_only_the_rows_it_walks():
    # chain 0 -> 1 -> ... -> m-1; every chain node also has a dead-end side
    # node and a costly detour node that rejoins the chain
    m = 200
    edges = [Edge(i, i + 1, 1, 1) for i in range(m - 1)]
    for i in range(m - 1):
        dead, detour = m + 2 * i, m + 2 * i + 1
        edges += [Edge(i, dead, 1, 1), Edge(i, detour, 5, 1),
                  Edge(detour, i + 1, 5, 1)]
    net = Network(3 * m - 2, edges)
    task = DrcrTask(0, m - 1, 0, 10 * m)
    trees = build_reverse_trees(net, task.target)
    order = build_search_order(net, trees)
    path = pulse_optimal(net, trees, task, order=order)
    assert path.edges == tuple(range(m - 1))
    built = {u for u, row in enumerate(order.rows) if row is not None}
    assert built == set(range(m - 1))
    assert len(built) < net.node_count


GOLDEN_COUNTS = Path(__file__).with_name("pulse_golden_counts.json")


def _counted(fn, *args, **kw):
    counters = SearchCounters()
    result = fn(*args, counters=counters, **kw)
    return result, [counters.pulses, counters.infeasibility_prunes,
                    counters.cost_prunes]


def _edges(path):
    return None if path is None else list(path.edges)


def golden_observations() -> dict[str, list]:
    """Result and (pulses, infeasibility_prunes, cost_prunes) of every public
    engine entry point on 50 seeded small instances, keyed "seed:call".

    Bounds for pulse_optimal sit at and half a unit around the optimum c*
    (the unconstrained shortest cost when no feasible path exists), which
    covers the integer and non-integer cases of the incumbent cut.
    """
    rng = random.Random()
    seen: dict[str, list] = {}
    for seed in range(50):
        rng.seed(9000 + seed)
        net = random_network(rng, max_nodes=10, max_edges=40, min_edges=15)
        task = random_task(rng, net)
        trees = build_reverse_trees(net, task.target)
        best = oracle_drcr(net, task)
        shortest = trees.min_cost_to_target[task.source]
        c_star = best[0] if best else (shortest if shortest != inf else 10)
        c_low = rng.randint(0, 30)
        c_up = c_low + rng.randint(1, 40)
        view = NetworkView(net, frozenset(rng.sample(range(len(net.edges)),
                                                     len(net.edges) // 3)))
        relaxed = DrcrTask(task.source, task.target, 0, inf)
        calls = {
            "optimal@inf": (pulse_optimal, net, trees, task),
            "optimal@c*": (pulse_optimal, net, trees, task, c_star),
            "optimal@c*-0.5": (pulse_optimal, net, trees, task, c_star - 0.5),
            "optimal@c*+0.5": (pulse_optimal, net, trees, task, c_star + 0.5),
            "optimal@c*+1": (pulse_optimal, net, trees, task, c_star + 1),
            "unpruned@inf": (pulse_optimal, net, trees, task, inf),
            "unpruned@c*+0.5": (pulse_optimal, net, trees, task, c_star + 0.5),
            "corridor": (scan_corridor_paths, net, trees, task,
                         CostCorridor(c_low, c_up)),
            "corridor-open": (scan_corridor_paths, net, trees, task,
                              CostCorridor(c_low, inf)),
            "first": (pulse_first_feasible, net, trees, task),
            "first-stripped": (pulse_first_feasible, view, trees, task),
            "count": (count_paths_capped, net, trees, task, 7, 5),
            "count-relaxed": (count_paths_capped, net, trees, relaxed, 5, 9),
        }
        for name, (fn, *args) in calls.items():
            kw = {"prune": False} if name.startswith("unpruned") else {}
            result, counts = _counted(fn, *args, **kw)
            if fn is scan_corridor_paths:
                result = [[_edges(p) for p in result[0]], result[1]]
            elif fn is count_paths_capped:
                result = [sorted(result[0].items()), result[1]]
            else:
                result = _edges(result)
            seen[f"{seed}:{name}"] = [result, counts]
    return seen


def test_work_counts_match_golden_table():
    # regenerate with: PYTHONPATH=src:tests python tests/test_pulse.py
    expected = json.loads(GOLDEN_COUNTS.read_text())
    got = json.loads(json.dumps(golden_observations()))
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key


if __name__ == "__main__":
    table = golden_observations()
    GOLDEN_COUNTS.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table))
        + "\n}\n")
