"""Bound schedules: exactness against the plain search and the oracle."""

from __future__ import annotations

import random
import threading
from math import inf
from time import monotonic

import pytest

from drcr import (BTBU1, BTBU2, DrcrTask, Edge, GenSpec,
                  IntegrityError, Network, build_reverse_trees, gen_graph,
                  gen_tasks, oracle_drcr, pulse_optimal, solve_btbu)
import drcr.btbu
from drcr.btbu import PULSE
from drcr.pulse import SearchControl

from conftest import random_network, random_task


def test_diamond_bound_schedule(diamond_net):
    # shortest unconstrained cost 2; optimum 10 is delay-forced: probe 4
    # finds nothing and cuts the fast route at 10, its floor, so the next
    # bound is max(4 + 4, 10 + 1) = 11, which succeeds
    trees = build_reverse_trees(diamond_net, 3)
    path, report = solve_btbu(diamond_net, trees, DrcrTask(0, 3, 0, 15), BTBU1)
    assert path.total_cost == 10
    assert report.outcome == "optimal"
    assert report.iterations == 2


def test_unconstrained_optimum_succeeds_first_probe(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    for cfg in (BTBU1, BTBU2):
        path, report = solve_btbu(diamond_net, trees, DrcrTask(0, 3, 0, 100), cfg)
        assert path.total_cost == 2
        assert report.iterations == 1


def test_step_bases(diamond_net):
    trees = build_reverse_trees(diamond_net, 3)
    for name in ("tripling", "doubling-bound", "BTBU1", None):
        with pytest.raises(ValueError, match="unknown schedule"):
            solve_btbu(diamond_net, trees, DrcrTask(0, 3, 0, 15), name)


def _record_probes(monkeypatch) -> list:
    """The bound of every probe ``solve_btbu`` makes, in order."""
    bounds = []
    probe = drcr.btbu.pulse_probe

    def recording(net, trees, task, bound, **kwargs):
        bounds.append(bound)
        return probe(net, trees, task, bound, **kwargs)

    monkeypatch.setattr(drcr.btbu, "pulse_probe", recording)
    return bounds


def test_pulse_schedule_makes_one_unbounded_probe(monkeypatch, diamond_net):
    # f = inf makes the first bound inf, and an unbounded walk cuts nothing
    trees = build_reverse_trees(diamond_net, 3)
    bounds = _record_probes(monkeypatch)
    for task, cost in ((DrcrTask(0, 3, 0, 15), 10), (DrcrTask(0, 3, 50, 60), None)):
        bounds.clear()
        path, report = solve_btbu(diamond_net, trees, task, PULSE)
        assert bounds == [inf] and report.iterations == 1
        assert (path and path.total_cost) == cost


def test_pulse_schedule_unreachable_source_spends_no_pulse():
    net = Network(3, [Edge(0, 1, 1, 1)])
    trees = build_reverse_trees(net, 2)
    path, report = solve_btbu(net, trees, DrcrTask(0, 2, 0, 10), PULSE)
    assert path is None and report.outcome == "infeasible"
    assert (report.iterations, report.pulses) == (0, 0)


def test_probe_bounds_of_both_schedules(monkeypatch):
    # cheap slow route 0-1-3 (cost 7, delay 20), middle route 0-4-3 (cost
    # 15, delay 30), costly fast route 0-2-3 (cost 100, delay 2); s = 7 and
    # m = 3, so 2m = 6 differs from s and the two schedules part at once
    net = Network(5, [Edge(0, 1, 3, 10), Edge(1, 3, 4, 10),
                      Edge(0, 2, 50, 1), Edge(2, 3, 50, 1),
                      Edge(0, 4, 7, 15), Edge(4, 3, 8, 15)])
    trees = build_reverse_trees(net, 3)
    s, m = trees.min_cost_to_target[0], net.min_edge_cost
    assert (s, m) == (7, 3)
    bounds = _record_probes(monkeypatch)
    fast_only, neither = DrcrTask(0, 3, 0, 5), DrcrTask(0, 3, 50, 60)
    # each bound is max(last bound + doubled step, floor + 1).  The first
    # probe (btbu1 2s = 14, btbu2 s + 2m = 13) cuts the middle route at 15,
    # so the doubled step wins: 14 + 14 = 28 and 13 + 12 = 25.  That probe
    # cuts the fast route at 100, so floor + 1 = 101 wins over 56 and 49.
    # Probe 101 finds the fast route, or, for a window that neither route
    # meets, cuts nothing: a floor of inf settles the task with no
    # unbounded probe.
    btbu1, btbu2 = [14, 28, 101], [13, 25, 101]
    for cfg, task, expected in ((BTBU1, fast_only, btbu1),
                                (BTBU2, fast_only, btbu2),
                                (BTBU1, neither, btbu1),
                                (BTBU2, neither, btbu2)):
        bounds.clear()
        path, report = solve_btbu(net, trees, task, cfg)
        assert bounds == expected
        assert report.iterations == len(expected)
        assert (path is None) == (task is neither)
        assert task is neither or path.total_cost == 100


def test_infeasible_reported_after_exhaustive_probe(diamond_net):
    # probe 4 cuts the fast route at 10; probe 11 cuts nothing, and its
    # floor of inf proves that no path meets the window
    trees = build_reverse_trees(diamond_net, 3)
    path, report = solve_btbu(diamond_net, trees, DrcrTask(0, 3, 50, 60), BTBU1)
    assert path is None
    assert report.outcome == "infeasible"
    assert report.iterations == 2


def test_unreachable_target_immediately_infeasible():
    net = Network(3, [Edge(0, 1, 1, 1)])
    trees = build_reverse_trees(net, 2)
    path, report = solve_btbu(net, trees, DrcrTask(0, 2, 0, 10), BTBU1)
    assert path is None and report.outcome == "infeasible"
    assert report.iterations == 0


def test_matches_unbounded_pulse_and_oracle():
    rng = random.Random(55)
    agreements = 0
    for seed in range(120):
        rng.seed(seed)
        net = random_network(rng)
        task = random_task(rng, net)
        trees = build_reverse_trees(net, task.target)
        reference = pulse_optimal(net, trees, task)
        expected = oracle_drcr(net, task)
        for cfg in (BTBU1, BTBU2):
            path, report = solve_btbu(net, trees, task, cfg)
            if reference is None:
                assert path is None and expected is None
                assert report.outcome == "infeasible"
            else:
                assert path.total_cost == reference.total_cost == expected[0]
                agreements += 1
    assert agreements > 40


def test_agreement_on_er_graph_tasks():
    # one moderately sized generated graph, both schedules vs the plain search
    net = gen_graph(GenSpec("er", nodes=1000, density_param=7, seed=42))
    tasks = gen_tasks(net, 50, "drcr", seed=43)
    from drcr import TreeCache
    cache = TreeCache(net)
    feasible = 0
    for task in tasks:
        trees = cache.get(task.target)
        reference = pulse_optimal(net, trees, task)
        for cfg in (BTBU1, BTBU2):
            path, report = solve_btbu(net, trees, task, cfg)
            if reference is None:
                assert path is None and report.outcome == "infeasible"
            else:
                assert report.outcome == "optimal"
                assert path.total_cost == reference.total_cost
        feasible += reference is not None
    assert feasible >= 25


def test_timeout_outcome():
    n = 9
    edges = [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v]
    net = Network(n, edges)
    trees = build_reverse_trees(net, n - 1)
    control = SearchControl(deadline=monotonic() - 1.0, poll_every=1)
    path, report = solve_btbu(net, trees, DrcrTask(0, n - 1, 0, 10 ** 9), BTBU1,
                              control=control)
    assert path is None and report.outcome == "timeout"


def test_stop_event_is_a_timeout_outcome():
    # complete digraph, delay window only met by Hamiltonian paths: the
    # probe at bound 8 walks well past the 512-pulse poll interval
    n = 8
    net = Network(n, [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v])
    task = DrcrTask(0, n - 1, n - 1, n - 1)
    trees = build_reverse_trees(net, task.target)
    stop = threading.Event()
    path, report = solve_btbu(net, trees, task, BTBU1,
                              control=SearchControl(stop=stop))
    assert report.outcome == "optimal" and path.total_cost == n - 1
    stop.set()
    path, report = solve_btbu(net, trees, task, BTBU1,
                              control=SearchControl(stop=stop))
    assert path is None and report.outcome == "timeout"


def test_task_node_outside_network_is_rejected():
    net = Network(3, [Edge(0, 1, 1, 1), Edge(1, 2, 1, 1)])
    trees = build_reverse_trees(net, 2)
    with pytest.raises(IntegrityError, match="source 7 is not a node of the "
                                             "3-node network"):
        solve_btbu(net, trees, DrcrTask(7, 2, 0, 20), BTBU1)
    with pytest.raises(IntegrityError, match="target 3 is not a node"):
        solve_btbu(net, trees, DrcrTask(0, 3, 0, 20), BTBU2)
