"""Pulse engine: spec'd behaviors on tiny fixtures plus randomized oracle checks."""

from __future__ import annotations

import json
import random
import threading
from math import inf
from pathlib import Path
from time import monotonic
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drcr.btbu
import drcr.pulse
from drcr import (BTBU2, DrcrTask, Edge, Network, SearchCancelled,
                  SearchControl, SearchCounters,
                  SearchTimeout, SrlgTask, build_histogram,
                  build_reverse_trees, build_search_order, check_path,
                  count_paths_capped, enumerate_paths, oracle_drcr,
                  pulse_first_feasible, pulse_optimal, scan_corridor_paths,
                  solve_btbu)
from drcr import oracle as oracle_mod
from drcr import pulse as pulse_mod
from drcr.network import NetworkView, as_view
from drcr.pulse import UNLIMITED, pulse_probe

from conftest import eager_search_rows, random_network, random_task


def _solve(net, task, bound=inf, **kw):
    trees = build_reverse_trees(net, task.target)
    return pulse_probe(net, trees, task, bound, **kw)[0]


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

    def scan(c_low, c_up):
        return scan_corridor_paths(diamond_net, trees, task, c_low, c_up)[0]

    assert sorted(p.total_cost for p in scan(0, 100)) == [2, 10]
    assert scan(3, 10) == []
    assert [p.total_cost for p in scan(10, 11)] == [10]


def test_corridor_rejects_empty_interval(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    with pytest.raises(ValueError, match="empty corridor"):
        scan_corridor_paths(diamond_net, trees, DrcrTask(0, 3, 0, 100), 5, 5)


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
        got = scan_corridor_paths(net, trees, task, c_low, c_up)[0]
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_pulse_optimal_matches_oracle_cost(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=9, max_edges=36, min_edges=16)
    task = random_task(rng, net)
    trees = build_reverse_trees(net, task.target)
    expected = oracle_drcr(net, task)
    bound = rng.randint(1, 80)
    for prune in (True, False):
        got = pulse_optimal(net, trees, task, prune=prune)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.total_cost == expected[0]
            check_path(net, got, task.source, task.target)
            assert task.d_low <= got.total_delay <= task.d_up
        below = pulse_probe(net, trees, task, bound, prune=prune)[0]
        if expected is None or expected[0] >= bound:
            assert below is None
        else:
            assert below.total_cost == expected[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_corridor_scan_is_exactly_the_corridor(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=9, max_edges=36, min_edges=16)
    task = random_task(rng, net)
    space = rng.choice([net, NetworkView(net, frozenset(
        rng.sample(range(len(net.edges)), len(net.edges) // 3)))])
    c_low = rng.randint(0, 40)
    c_up = rng.choice([inf, c_low + rng.randint(1, 60)])
    trees = build_reverse_trees(net, task.target)
    got, floor = scan_corridor_paths(space, trees, task, c_low, c_up)
    feasible = [p for p in enumerate_paths(space, task.source, task.target)
                if task.d_low <= p.total_delay <= task.d_up]
    assert sorted(p.edges for p in got) == sorted(
        p.edges for p in feasible if c_low <= p.total_cost < c_up)
    # every window-feasible path at or above the top costs at least the
    # floor, so a floor of inf proves there is none
    assert floor >= c_up
    assert all(p.total_cost >= floor for p in feasible if p.total_cost >= c_up)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_failed_probe_floor_bounds_the_optimum(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=9, max_edges=36, min_edges=16)
    task = random_task(rng, net)
    trees = build_reverse_trees(net, task.target)
    expected = oracle_drcr(net, task)
    bound = rng.randint(1, 80) - rng.choice([0, 0.5])
    path, floor = pulse_probe(net, trees, task, bound)
    if path is not None:
        assert path.total_cost == expected[0] < bound
        return
    # nothing lies below the bound, nor in [bound, floor), so a floor of
    # inf proves the task infeasible
    assert floor >= bound
    assert expected is None or expected[0] >= floor


def test_finite_floor_is_a_bound_not_a_witness():
    # the cost cut at node 0 comes before the delay test, so the floor is
    # 101 although the one path above the corridor misses the window
    net = Network(3, [Edge(0, 1, 100, 1), Edge(1, 2, 1, 100)])
    trees = build_reverse_trees(net, 2)
    got, floor = scan_corridor_paths(net, trees, DrcrTask(0, 2, 0, 50), 0, 10)
    assert got == [] and floor == 101
    assert oracle_drcr(net, DrcrTask(0, 2, 0, 50)) is None


def test_wide_weights_skip_empty_bins_and_probes(monkeypatch):
    # route A 0-1-3 costs 2000 (delay 2), route B 0-2-3 costs 6000 (delay
    # 10); edge 3-0 only makes the cheapest edge cost 1, so btbu2's first
    # step is 2, and no s-t path can use it
    net = Network(4, [Edge(0, 1, 1000, 1), Edge(1, 3, 1000, 1),
                      Edge(0, 2, 3000, 5), Edge(2, 3, 3000, 5),
                      Edge(3, 0, 1, 1)], [{0}, {2}])
    trees = build_reverse_trees(net, 3)
    # bin 0 cuts at 2000 and bin 2000 at 6000, so three walks of 1, 3 and
    # 5 pulses count both routes, not one walk for each of 6001 bins
    counters = SearchCounters()
    bins, truncated = count_paths_capped(net, trees, DrcrTask(0, 3, 0, inf),
                                         1, 10, counters=counters)
    assert bins == {2000: 1, 6000: 1} and not truncated
    assert counters.pulses == 9
    scans = []
    scan = oracle_mod.scan_corridor_paths

    def recording(net, trees, task, c_low, c_up, **kwargs):
        scans.append((c_low, c_up))
        return scan(net, trees, task, c_low, c_up, **kwargs)

    monkeypatch.setattr(oracle_mod, "scan_corridor_paths", recording)
    hist = build_histogram(net, SrlgTask(0, 3, 0, 20, 20), 1,
                           include_all=False)
    assert hist.series == {"feasible": {2000: 1, 6000: 1},
                           "protected": {2000: 1, 6000: 1}}
    assert scans == [(0, 1), (2000, 2001), (6000, 6001)]
    # neither route meets [50, 60]: btbu2 probes 2002, and its floor 6000
    # lifts the next bound to 6001, whose walk cuts nothing, so the step
    # of 2 never doubles its way up to 6000
    bounds = []
    probe = drcr.btbu.pulse_probe

    def recording_probe(net, trees, task, bound, **kwargs):
        bounds.append(bound)
        return probe(net, trees, task, bound, **kwargs)

    monkeypatch.setattr(drcr.btbu, "pulse_probe", recording_probe)
    path, report = solve_btbu(net, trees, DrcrTask(0, 3, 50, 60), BTBU2)
    assert path is None and report.outcome == "infeasible"
    assert bounds == [2002, 6001] and report.iterations == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_capped_counts_match_oracle_bins(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=9, max_edges=36, min_edges=16)
    task = random_task(rng, net)
    relaxed = DrcrTask(task.source, task.target, 0, inf)
    width = rng.randint(1, 12)
    trees = build_reverse_trees(net, task.target)
    paths = enumerate_paths(net, task.source, task.target)
    for counted in (task, relaxed):
        bins, truncated = count_paths_capped(net, trees, counted, width,
                                             len(paths) + 1)
        expected: dict[int, int] = {}
        for p in paths:
            if counted.d_low <= p.total_delay <= counted.d_up:
                b = p.total_cost // width * width
                expected[b] = expected.get(b, 0) + 1
        assert bins == expected and not truncated


def test_monotone_bound():
    rng = random.Random(404)
    for seed in range(60):
        rng.seed(seed)
        net = random_network(rng)
        task = random_task(rng, net)
        trees = build_reverse_trees(net, task.target)
        low = rng.randint(1, 40)
        high = low + rng.randint(1, 40)
        got_low = pulse_probe(net, trees, task, low)[0]
        got_high = pulse_probe(net, trees, task, high)[0]
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


def test_deadline_raises_timeout(poll_each_pulse):
    n = 8
    edges = [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v]
    net = Network(n, edges)
    task = DrcrTask(0, n - 1, 0, 10 ** 9)
    trees = build_reverse_trees(net, task.target)
    control = SearchControl(deadline=monotonic() - 1.0)
    with pytest.raises(SearchTimeout):
        pulse_optimal(net, trees, task, control=control, prune=False)


def test_nan_time_limit_is_rejected_and_a_negative_one_has_passed(
        monkeypatch):
    # monotonic() >= nan is never true, so a NaN deadline would never end
    with pytest.raises(ValueError, match="nan"):
        SearchControl.from_time_limit_ms(float("nan"))
    assert SearchControl.from_time_limit_ms(0).deadline is not None
    with pytest.raises(SearchTimeout):
        SearchControl.from_time_limit_ms(-1).poll()
    # a coarse clock reads the same before and after a zero limit is set:
    # the deadline is reached at that reading, so the solve ends on entry
    monkeypatch.setattr(drcr.pulse, "monotonic", lambda: 100.0)
    net = Network(2, [Edge(0, 1, 5, 7)])
    path, report = solve_btbu(net, build_reverse_trees(net, 1),
                              DrcrTask(0, 1, 0, 10), "pulse",
                              control=SearchControl.from_time_limit_ms(0))
    assert (path, report.outcome) == (None, "timeout")


def test_no_time_limit_and_no_stop_is_unlimited():
    assert SearchControl.from_time_limit_ms(None) is UNLIMITED
    assert (UNLIMITED.deadline, UNLIMITED.stop) == (None, None)


def test_preset_stop_event_cancels_search():
    # complete digraph, delay window only met by Hamiltonian paths: the
    # unpruned walk runs far past the 512-pulse poll interval, and so does
    # the pruned one (2476 pulses to a path); a set stop and a passed
    # deadline each end both walks at their first poll
    n = 8
    net = Network(n, [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v])
    task = DrcrTask(0, n - 1, n - 1, n - 1)
    trees = build_reverse_trees(net, task.target)
    stop = threading.Event()
    stop.set()
    for control, interruption in (
            (SearchControl(stop=stop), SearchCancelled),
            (SearchControl(deadline=monotonic() - 1.0), SearchTimeout)):
        for prune in (False, True):
            counters = SearchCounters()
            with pytest.raises(interruption):
                pulse_optimal(net, trees, task, counters=counters,
                              control=control, prune=prune)
            # the root pulse, then the POLL_EVERY pulses up to the first poll
            assert counters.pulses == 1 + drcr.pulse.POLL_EVERY == 513


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
        scan_corridor_paths(net, trees, task, 0, inf, order=order)
        view = NetworkView(net, frozenset(rng.sample(range(len(net.edges)),
                                                     len(net.edges) // 3)))
        pulse_first_feasible(view, trees, task, order=order)
        for u, row in enumerate(order.rows):
            if row is not None:
                built += 1
                assert row == reference[u]
        assert [order.row(u) for u in range(net.node_count)] == reference
    assert built > 60


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 3, 20)))
def test_property_rows_match_reference_order(seed, max_cost):
    # costs of 1..3 tie many cost_lb values, so the (cost_lb, eid) order
    # rests on the sort keeping EdgeId order among equal keys
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=8, max_edges=40, max_cost=max_cost)
    target = rng.randrange(net.node_count)
    trees = build_reverse_trees(net, target)
    reference = eager_search_rows(net, trees.min_cost_to_target,
                                  trees.min_delay_to_target)
    order = build_search_order(net, trees)
    nodes = list(range(net.node_count))
    rng.shuffle(nodes)
    for u in nodes:
        assert order.row(u) == reference[u]
        assert all(trees.min_cost_to_target[entry[4]] != inf
                   for entry in order.row(u))


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


_real_pulse = pulse_mod._pulse


def _bit_walk(net, trees, task, order, counters, control, mode, lo=0,
              hi=inf, cap=inf, prune=True):
    """``_pulse`` with the floor switched off: any finite floor reads as hi.

    This is the yes/no answer the walk gave before it returned its floor,
    so the histogram sweeps step one bin at a time again."""
    result, floor = _real_pulse(net, trees, task, order, counters, control,
                                mode, lo, hi, cap, prune)
    return result, hi if floor < inf else inf


def _floor(value):
    return None if value == inf else value


def golden_observations() -> dict[str, list]:
    """Result and (pulses, infeasibility_prunes, cost_prunes) of every public
    engine entry point on 50 seeded small instances, keyed "seed:call".

    The bounds of the bounded optimal search (pulse_probe's path) sit at
    and half a unit around the optimum c* (the unconstrained shortest cost
    when no feasible path exists), which covers the integer and
    non-integer cases of the incumbent cut.  These
    entries are taken with the walk's floor switched off (``_bit_walk``),
    and a corridor records only whether its floor is finite; each
    "seed:call+floor" entry is the full rule's, with the floor itself
    (None for inf), and "seed:probe@c*" is pulse_probe's path and floor.
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
            "optimal@c*": (pulse_probe, net, trees, task, c_star),
            "optimal@c*-0.5": (pulse_probe, net, trees, task, c_star - 0.5),
            "optimal@c*+0.5": (pulse_probe, net, trees, task, c_star + 0.5),
            "optimal@c*+1": (pulse_probe, net, trees, task, c_star + 1),
            "unpruned@inf": (pulse_optimal, net, trees, task),
            "unpruned@c*+0.5": (pulse_probe, net, trees, task, c_star + 0.5),
            "corridor": (scan_corridor_paths, net, trees, task, c_low, c_up),
            "corridor-open": (scan_corridor_paths, net, trees, task, c_low,
                              inf),
            "first": (pulse_first_feasible, net, trees, task),
            "first-stripped": (pulse_first_feasible, view, trees, task),
            "count": (count_paths_capped, net, trees, task, 7, 5),
            "count-relaxed": (count_paths_capped, net, trees, relaxed, 5, 9),
        }
        for name, (fn, *args) in calls.items():
            kw = {"prune": False} if name.startswith("unpruned") else {}
            with patch.object(pulse_mod, "_pulse", _bit_walk):
                result, counts = _counted(fn, *args, **kw)
            if fn is scan_corridor_paths:
                result = [[_edges(p) for p in result[0]], result[1] < inf]
            elif fn is count_paths_capped:
                result = [sorted(result[0].items()), result[1]]
            elif fn is pulse_probe:  # a bounded optimal search's path
                result = _edges(result[0])
            else:
                result = _edges(result)
            seen[f"{seed}:{name}"] = [result, counts]
        for name in ("corridor", "count", "count-relaxed"):
            fn, *args = calls[name]
            result, counts = _counted(fn, *args)
            if fn is scan_corridor_paths:
                result = [[_edges(p) for p in result[0]], _floor(result[1])]
            else:
                result = [sorted(result[0].items()), result[1]]
            seen[f"{seed}:{name}+floor"] = [result, counts]
        (path, floor), counts = _counted(pulse_probe, net, trees, task, c_star)
        seen[f"{seed}:probe@c*"] = [[_edges(path), _floor(floor)], counts]
    return seen


def test_work_counts_match_golden_table():
    # regenerate with: PYTHONPATH=src:tests python tests/test_pulse.py
    expected = json.loads(GOLDEN_COUNTS.read_text())
    # the floor changes no result: a corridor's paths and a histogram's
    # bins are its twin's, and only the sweeps' pulses may fall
    for key, (result, counts) in expected.items():
        seed, name = key.split(":")
        if name.endswith("+floor"):
            twin_result, twin_counts = expected[key[:-len("+floor")]]
            if name == "corridor+floor":
                assert result[0] == twin_result[0], key
                assert (result[1] is not None) == twin_result[1], key
                assert counts == twin_counts, key
            else:
                assert result == twin_result, key
                assert counts[0] <= twin_counts[0], key
        elif name == "probe@c*":
            assert result[0] == expected[f"{seed}:optimal@c*"][0], key
            assert counts == expected[f"{seed}:optimal@c*"][1], key
    got = json.loads(json.dumps(golden_observations()))
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key


if __name__ == "__main__":
    table = golden_observations()
    GOLDEN_COUNTS.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table))
        + "\n}\n")
