"""Corridor search: windows, protection, traps, determinism, oracle parity."""

from __future__ import annotations

import json
import random
import threading
from itertools import product
from math import inf
from pathlib import Path
from time import monotonic

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcr import (BtcsConfig, DisjointPair, Edge, IntegrityError, Network,
                  SearchCounters, SrlgTask, build_reverse_trees,
                  check_path, enumerate_paths, oracle_minmin,
                  pp_delay_window, pulse_optimal, solve_btcs, try_protect)
from drcr import btcs
from drcr.btcs import corridor_width, find_srlg_cut
from drcr.network import is_connected, remove_conflicting_edges
from drcr.pulse import UNLIMITED, SearchControl, SearchTimeout
from drcr.trees import COST, DELAY

from conftest import (CountingStop, least_delay, random_network,
                      random_task, write_golden)


def _verify_pair(net, task, pair):
    check_path(net, pair.ap, task.source, task.target)
    check_path(net, pair.pp, task.source, task.target)
    assert task.d_low <= pair.ap.total_delay <= task.d_up
    assert task.d_low <= pair.pp.total_delay <= task.d_up
    assert abs(pair.ap.total_delay - pair.pp.total_delay) <= task.d_diff
    assert not set(pair.ap.edges) & set(pair.pp.edges)
    ap_groups = set()
    for eid in pair.ap.edges:
        ap_groups |= net.edge_srlgs[eid]
    for eid in pair.pp.edges:
        assert not (net.edge_srlgs[eid] & ap_groups)


def test_pp_delay_window_cases():
    task = SrlgTask(0, 1, 0, 100, 10)
    assert pp_delay_window(task, 50) == (40, 60)
    clamped = SrlgTask(0, 1, 45, 100, 10)
    assert pp_delay_window(clamped, 50) == (45, 60)
    exact = SrlgTask(0, 1, 0, 100, 0)
    assert pp_delay_window(exact, 33) == (33, 33)
    tight = SrlgTask(0, 1, 80, 100, 5)
    assert pp_delay_window(tight, 90) == (85, 95)
    clip = SrlgTask(0, 1, 97, 100, 5)
    assert pp_delay_window(clip, 100) == (97, 100)


def _two_route_net(shared_srlg: bool) -> Network:
    edges = [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1),
             Edge(0, 2, 5, 1), Edge(2, 3, 5, 1)]
    groups = [{0, 2}] if shared_srlg else [{0}, {2}]
    return Network(4, edges, groups)


def test_try_protect_finds_sibling_route():
    net = _two_route_net(shared_srlg=False)
    task = SrlgTask(0, 3, 0, 100, 100)
    trees = build_reverse_trees(net, 3)
    ap = net.path([0, 1])
    pp = try_protect(net, trees, task, ap)
    assert pp is not None and pp.edges == (2, 3)


def test_try_protect_shared_srlg_blocks():
    net = _two_route_net(shared_srlg=True)
    task = SrlgTask(0, 3, 0, 100, 100)
    trees = build_reverse_trees(net, 3)
    assert try_protect(net, trees, task, net.path([0, 1])) is None


def test_try_protect_disconnection_short_circuits_without_pulses():
    net = _two_route_net(shared_srlg=True)
    task = SrlgTask(0, 3, 0, 100, 100)
    trees = build_reverse_trees(net, 3)
    counters = SearchCounters()
    pp = try_protect(net, trees, task, net.path([0, 1]), counters=counters)
    assert pp is None and counters.pulses == 0


def test_try_protect_empty_window_short_circuits():
    net = _two_route_net(shared_srlg=False)
    task = SrlgTask(0, 3, 0, 100, 0)
    trees = build_reverse_trees(net, 3)
    # sibling route has delay 2 vs ap delay 2: window [2,2] still works
    assert try_protect(net, trees, task, net.path([0, 1])) is not None
    # force an empty intersection
    off = SrlgTask(0, 3, 3, 100, 0)
    assert pp_delay_window(off, 2) is None


def test_non_trap_returns_in_stage_one():
    net = _two_route_net(shared_srlg=False)
    task = SrlgTask(0, 3, 0, 100, 100)
    trees = build_reverse_trees(net, 3)
    pair, report = solve_btcs(net, trees, task)
    assert report.outcome == "pair"
    assert report.corridors_explored == 0
    assert pair.ap.total_cost == 2
    _verify_pair(net, task, pair)


def test_trap_instance_resolved_beyond_global_shortest(trap_net):
    task = SrlgTask(0, 5, 0, 100, 50)
    trees = build_reverse_trees(trap_net, 5)
    pair, report = solve_btcs(trap_net, trees, task, BtcsConfig(alpha=1.0))
    assert report.outcome == "pair"
    assert pair.ap.total_cost == 4  # strictly above the unprotected optimum 2
    assert pair.ap.edges == (2, 3)
    expected = oracle_minmin(trap_net, task)
    assert expected is not None and expected[0] == 4
    _verify_pair(trap_net, task, pair)
    assert report.corridors_explored >= 1
    # duplicate-AP exclusion: stage-1 candidate is not re-checked in corridor 0
    assert report.ap_candidates_checked == 2


def test_unavoidable_trap_is_infeasible():
    edges = [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1),
             Edge(0, 2, 5, 1), Edge(2, 3, 5, 1)]
    net = Network(4, edges, [{0, 2}])  # both routes share a group
    task = SrlgTask(0, 3, 0, 100, 100)
    trees = build_reverse_trees(net, 3)
    pair, report = solve_btcs(net, trees, task)
    assert pair is None and report.outcome == "infeasible"
    assert oracle_minmin(net, task) is None


def test_no_feasible_ap_is_infeasible():
    net = _two_route_net(shared_srlg=False)
    task = SrlgTask(0, 3, 50, 60, 5)  # window above any delay
    trees = build_reverse_trees(net, 3)
    pair, report = solve_btcs(net, trees, task)
    assert pair is None and report.outcome == "infeasible"
    assert report.corridors_explored == 0


def test_corridor_progression_invariant(monkeypatch):
    scans = []
    scan = btcs.scan_corridor_paths

    def recording(net, trees, task, c_low, c_up, **kwargs):
        scans.append((c_low, c_up))
        return scan(net, trees, task, c_low, c_up, **kwargs)

    monkeypatch.setattr(btcs, "scan_corridor_paths", recording)
    beyond_first = gaps = 0
    for seed, growth in product(range(50), (1, 2)):
        net, task = _golden_instance(seed)
        trees = build_reverse_trees(net, task.target)
        first_ap = pulse_optimal(net, trees, task)
        if first_ap is None:
            continue
        costs = [p.total_cost
                 for p in enumerate_paths(net, task.source, task.target)
                 if task.d_low <= p.total_delay <= task.d_up]
        for alpha in (0.5, 1, 2, 10):
            cfg = BtcsConfig(alpha=alpha, growth=growth)
            scans.clear()
            pair, report = solve_btcs(net, trees, task, cfg)
            assert len(scans) == report.corridors_explored
            if not scans:
                continue
            width = corridor_width(net, alpha)
            assert scans[0][0] == first_ap.total_cost
            for k, (c_low, c_up) in enumerate(scans):
                assert c_up - c_low == width * growth ** k
            # each corridor starts at or above the last one's end, and the
            # stretch it skips holds no window-feasible path
            for (_, last_up), (c_low, _) in zip(scans, scans[1:]):
                assert c_low >= last_up
                assert not any(last_up <= c < c_low for c in costs)
                gaps += c_low > last_up
            c_low, c_up = scans[-1]
            if pair is not None:
                # the accepted candidate lies inside the last corridor
                assert c_low <= pair.ap.total_cost < c_up
            else:
                # the last floor was inf: no AP lies at or above its top
                assert all(c < c_up for c in costs)
            beyond_first += len(scans) > 1
    assert beyond_first >= 10 and gaps >= 10


@st.composite
def _srlg_instance(draw):
    """A small dense network with SRLGs and a disjoint-pair task on it.

    About half are stage-1 pairs and a quarter are traps swept to a
    verdict; a few percent are avoidable traps.
    """
    n = draw(st.integers(3, 6))
    node = st.integers(0, n - 1)
    raw = draw(st.lists(st.tuples(node, node, st.integers(1, 9),
                                  st.integers(1, 9)), min_size=12, max_size=30))
    edges = [Edge(u, v, c, d) for u, v, c, d in raw if u != v]
    if not edges:
        edges = [Edge(0, 1, 1, 1)]
    eid = st.integers(0, len(edges) - 1)
    groups = draw(st.lists(st.sets(eid, min_size=1, max_size=3), max_size=6))
    s = draw(node)
    t = draw(node.filter(lambda v: v != s))
    d_low = draw(st.integers(0, 10))
    task = SrlgTask(s, t, d_low, d_low + draw(st.integers(5, 60)),
                    draw(st.integers(0, 30)))
    return Network(n, edges, groups), task


@settings(max_examples=300, deadline=None)
@given(_srlg_instance(), st.sampled_from([0.5, 1.0, 3.0]))
def test_property_every_schedule_matches_minmin_oracle(case, alpha):
    net, task = case
    trees = build_reverse_trees(net, task.target)
    expected = oracle_minmin(net, task)
    for growth in (1, 2, 3):
        pair, report = solve_btcs(net, trees, task,
                                  BtcsConfig(alpha=alpha, growth=growth))
        if report.srlg_cut is not None:
            # a path keeps to d_up, and none of them avoids the group
            cut = net.srlg_groups[report.srlg_cut]
            assert least_delay(net, task.source, task.target) <= task.d_up
            assert least_delay(net, task.source, task.target,
                               cut) > task.d_up
            assert expected is None and report.corridors_explored == 0
            assert report.ap_candidates_checked == 0 and report.pulses == 0
        if expected is None:
            assert pair is None and report.outcome == "infeasible"
        else:
            assert report.outcome == "pair"
            assert pair.ap.total_cost == expected[0]
            _verify_pair(net, task, pair)


def test_max_corridors_cap_times_out(trap_net):
    task = SrlgTask(0, 5, 0, 100, 50)
    trees = build_reverse_trees(trap_net, 5)
    pair, report = solve_btcs(trap_net, trees, task,
                              BtcsConfig(alpha=1.0, max_corridors=1))
    assert pair is None and report.outcome == "timeout"


def test_deadline_times_out(poll_each_pulse):
    n = 9
    edges = [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v]
    net = Network(n, edges, [{0}])
    task = SrlgTask(0, n - 1, 0, 10 ** 9, 10 ** 9)
    trees = build_reverse_trees(net, n - 1)
    control = SearchControl(deadline=monotonic() - 1.0)
    pair, report = solve_btcs(net, trees, task, control=control)
    assert pair is None and report.outcome == "timeout"


def _stage1_heavy() -> tuple[Network, SrlgTask]:
    """Stage-1 search alone walks far past the 512-pulse poll interval."""
    n = 8
    net = Network(n, [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v])
    return net, SrlgTask(0, n - 1, n - 1, n - 1, 0)


def _corridor_heavy() -> tuple[Network, SrlgTask]:
    """Stage 1 is a few pulses, the first corridor holds ~2000 paths.

    One SRLG holds every egress edge of the source, so no active path can
    be protected: an unavoidable trap, which the SRLG-cut test settles
    before stage 1.
    """
    n = 8
    edges = [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v]
    net = Network(n, edges, [{eid for eid, e in enumerate(edges) if e.src == 0}])
    return net, SrlgTask(0, n - 1, 0, 10 ** 9, 10 ** 9)


def _cross() -> tuple[Network, SrlgTask]:
    """A trap without a single-SRLG cut, settled in corridor 0 after ~3900 pulses.

    Complete 8-node digraph, unit weights.  SRLG A holds 0->1, 0->2, 0->3,
    4->7, 5->7, 6->7 and 0->7; SRLG B is its mirror 0->4, 0->5, 0->6, 1->7,
    2->7, 3->7 and 0->7.  Every two-hop path uses both groups; a three-hop
    path such as 0->1->4->7 uses A alone and is protected through B.
    """
    n = 8
    edges = [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v]
    eid = {(e.src, e.dst): i for i, e in enumerate(edges)}
    a = [(0, 1), (0, 2), (0, 3), (4, 7), (5, 7), (6, 7), (0, 7)]
    b = [(0, 4), (0, 5), (0, 6), (1, 7), (2, 7), (3, 7), (0, 7)]
    net = Network(n, edges, [{eid[p] for p in a}, {eid[p] for p in b}])
    return net, SrlgTask(0, n - 1, 0, 10 ** 9, 10 ** 9)


@pytest.mark.parametrize("instance", [_stage1_heavy, _corridor_heavy, _cross])
def test_stop_event_is_a_timeout_outcome(instance):
    net, task = instance()
    trees = build_reverse_trees(net, task.target)
    stop = threading.Event()
    unset = solve_btcs(net, trees, task, control=SearchControl(stop=stop))
    assert unset[1].outcome == solve_btcs(net, trees, task)[1].outcome != "timeout"
    stop.set()
    pair, report = solve_btcs(net, trees, task, control=SearchControl(stop=stop))
    assert pair is None and report.outcome == "timeout"


def test_stage_two_polls_at_the_callers_interval(poll_each_pulse):
    net, task = _cross()
    trees = build_reverse_trees(net, task.target)
    stop = CountingStop()
    pair, report = solve_btcs(net, trees, task,
                              control=SearchControl(stop=stop))
    assert pair is not None and report.corridors_explored >= 1
    stage1 = SearchCounters()
    first_ap = pulse_optimal(net, trees, task, counters=stage1)
    assert try_protect(net, trees, task, first_ap, counters=stage1) is None
    # every pulse but a search's root is polled at POLL_EVERY = 1
    assert stop.polls >= report.pulses - stage1.pulses > 1000


def test_protection_loop_polls_between_candidates(monkeypatch,
                                                 poll_each_pulse):
    net, task = _cross()
    trees = build_reverse_trees(net, task.target)
    stop = CountingStop()
    polls_at_protect = []
    protect = btcs.try_protect

    def recording_protect(*args, **kwargs):
        polls_at_protect.append(stop.polls)
        return protect(*args, **kwargs)

    monkeypatch.setattr(btcs, "try_protect", recording_protect)
    pair, report = solve_btcs(net, trees, task,
                              control=SearchControl(stop=stop))
    assert pair is not None and report.ap_candidates_checked == 10
    # stage 2's candidates, most of which fail on connectivity (no pulses)
    stage2 = polls_at_protect[1:]
    assert len(stage2) == 9
    assert all(b > a for a, b in zip(stage2, stage2[1:]))


def test_stop_set_before_protection_loop_times_out_there(monkeypatch,
                                                        poll_each_pulse):
    # alpha 2: corridor 0 is [1, 3), the six two-hop paths 0->k->7, each
    # crossing both SRLGs, so every candidate fails on connectivity and
    # spends no pulse; only the protection-loop poll can see the stop
    net, task = _cross()
    trees = build_reverse_trees(net, task.target)
    cfg = BtcsConfig(alpha=2.0)
    stop = threading.Event()
    first_ap = pulse_optimal(net, trees, task)
    assert find_srlg_cut(net, trees, task) is None
    scan = btcs.scan_corridor_paths
    corridors = []

    def scan_then_stop(*args, **kwargs):
        candidates, floor = scan(*args, **kwargs)
        corridors.append(candidates)
        stop.set()
        return candidates, floor

    monkeypatch.setattr(btcs, "scan_corridor_paths", scan_then_stop)
    protects = []
    protect = btcs.try_protect

    def recording_protect(*args, **kwargs):
        protects.append(args[3])
        return protect(*args, **kwargs)

    monkeypatch.setattr(btcs, "try_protect", recording_protect)
    pair, report = solve_btcs(net, trees, task, cfg,
                              control=SearchControl(stop=stop))
    assert pair is None and report.outcome == "timeout"
    assert report.corridors_explored == 0 and report.ap_candidates_checked == 1
    assert protects == [first_ap]
    stage2 = [ap for ap in corridors[0] if ap.edges != first_ap.edges]
    assert len(stage2) == 6
    assert not any(is_connected(remove_conflicting_edges(net, ap),
                                task.source, task.target) for ap in stage2)


def _target_ingress_cut() -> tuple[Network, SrlgTask]:
    """A trap whose one cut lies at the target, found after narrowing.

    Complete 8-node digraph, unit weights.  SRLG 1 holds every ingress edge
    of the target 7, so it is on every path; SRLG 0 holds 0->7 and 0->1.
    The least-delay path 0->7 meets group 0 first, and a path avoiding it,
    0->2->7, narrows the candidates to group 1.
    """
    n = 8
    edges = [Edge(u, v, 1, 1) for u in range(n) for v in range(n) if u != v]
    eid = {(e.src, e.dst): i for i, e in enumerate(edges)}
    groups = [{eid[0, 7], eid[0, 1]}, {eid[u, 7] for u in range(7)}]
    return (Network(n, edges, groups),
            SrlgTask(0, n - 1, 0, 10 ** 9, 10 ** 9))


def _no_cut(*args) -> None:
    return None


def test_single_srlg_cut_is_infeasible_before_any_corridor(monkeypatch):
    net, task = _target_ingress_cut()
    trees = build_reverse_trees(net, task.target)
    pair, report = solve_btcs(net, trees, task)
    assert pair is None and report.outcome == "infeasible"
    assert report.srlg_cut == 1 and report.corridors_explored == 0
    assert report.ap_candidates_checked == 0 and report.pulses == 0
    # the sweep without the test reaches the same verdict the long way
    monkeypatch.setattr(btcs, "find_srlg_cut", _no_cut)
    pair, swept = solve_btcs(net, trees, task)
    assert pair is None and swept.outcome == "infeasible"
    assert swept.srlg_cut is None and swept.pulses > 1000


def test_source_egress_cut_settles_the_trap_before_stage_one(monkeypatch):
    net, task = _corridor_heavy()
    trees = build_reverse_trees(net, task.target)
    assert find_srlg_cut(net, trees, task) == 0
    # a window no path meets names no group: stage 1 finds no AP
    no_ap = SrlgTask(0, task.target, 0, 0, 0)
    assert find_srlg_cut(net, trees, no_ap) is None
    assert solve_btcs(net, trees, no_ap)[1].srlg_cut is None

    def no_search(*args):
        raise AssertionError("stage 1 ran")

    monkeypatch.setattr(btcs, "build_search_order", no_search)
    pair, report = solve_btcs(net, trees, task)
    assert pair is None and report.outcome == "infeasible"
    assert report.srlg_cut == 0 and report.corridors_explored == 0
    assert report.ap_candidates_checked == 0
    assert report.counters == SearchCounters()


def test_a_cut_verdict_walks_the_delay_half_only(tree_walks):
    # the cut test reads the delay tree alone, so a verdict walks no cost
    # half; a task that goes on to stage 1 then walks the cost half alone
    for instance, cut, expected in ((_corridor_heavy, 0, [(DELAY,)]),
                                    (_cross, None, [(DELAY,), (COST,)])):
        tree_walks.clear()
        net, task = instance()
        pair, report = solve_btcs(net, build_reverse_trees(net, task.target),
                                  task)
        assert report.srlg_cut == cut and (pair is None) == (cut is not None)
        assert tree_walks == expected


def test_find_srlg_cut_tries_groups_in_path_order():
    # least-delay path 0->1->3: edge 0 (0->1) then edge 1 (1->3); the
    # egress of 0 is edges 0 and 2 (0->2)
    edges = [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1),
             Edge(0, 2, 5, 1), Edge(2, 3, 5, 1)]
    net = Network(4, edges, [{1, 3}, {0}, {0, 2}])
    task = SrlgTask(0, 3, 0, 100, 100)
    trees = build_reverse_trees(net, 3)
    # group 1 is avoided by 0->2->3, which narrows the candidates to group
    # 2, on every egress edge; group 0, every ingress edge of 3, is a cut
    # too, but the path meets it last
    assert find_srlg_cut(net, trees, task) == 2
    assert find_srlg_cut(net.with_srlgs([{0}, {2}]), trees, task) is None
    assert find_srlg_cut(net.with_srlgs([{0}]), trees, task) is None
    # no path from 3 at all
    back = SrlgTask(3, 0, 0, 100, 100)
    assert find_srlg_cut(net, build_reverse_trees(net, 0), back) is None
    # the trees of another target are refused, not walked forever
    with pytest.raises(ValueError, match="trees do not lead"):
        find_srlg_cut(net, build_reverse_trees(net, 2), task)


def test_source_without_shared_egress_group_runs_stage_one():
    # 0->1 lies in A alone and 0->4 in B alone; 0->7 in both
    net, task = _cross()
    trees = build_reverse_trees(net, task.target)
    assert find_srlg_cut(net, trees, task) is None
    pair, report = solve_btcs(net, trees, task)
    assert pair is not None and report.srlg_cut is None
    assert report.ap_candidates_checked > 1 and report.pulses > 1000


def test_find_srlg_cut_narrows_to_the_cut():
    # SRLG 0 = {0->1}, SRLG 1 = {1->3, 2->3}: avoiding 0 leaves 0->2->3,
    # which crosses 1, and avoiding 1 leaves no path
    edges = [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1),
             Edge(0, 2, 5, 1), Edge(2, 3, 5, 1)]
    net = Network(4, edges, [{0}, {1, 3}])
    task = SrlgTask(0, 3, 0, 100, 100)
    trees = build_reverse_trees(net, 3)
    assert find_srlg_cut(net, trees, task) == 1
    assert find_srlg_cut(net.with_srlgs([{0}, {1}]), trees, task) is None
    cross, cross_task = _cross()
    cross_trees = build_reverse_trees(cross, cross_task.target)
    assert find_srlg_cut(cross, cross_trees, cross_task) is None
    with pytest.raises(SearchTimeout):
        find_srlg_cut(net, trees, task,
                      SearchControl(deadline=monotonic() - 1.0))


def test_delay_bounded_cut_depends_on_d_up():
    # A = 0->1->3 (cost 2, delay 2), B = 0->2->3 (cost 4, delay 10) and
    # C = 0->4->3 (cost 6, delay 10); G = {0->1, 0->2} and H = {1->3, 4->3}.
    # Below delay 10 every path is A, so G is a cut; from 10 up, C avoids
    # G and B avoids H, and (B, C) is the pair the sweep finds
    edges = [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1), Edge(0, 2, 2, 5),
             Edge(2, 3, 2, 5), Edge(0, 4, 3, 5), Edge(4, 3, 3, 5)]
    net = Network(5, edges, [{0, 2}, {1, 5}])
    trees = build_reverse_trees(net, 3)
    tight = SrlgTask(0, 3, 0, 9, 100)
    pair, report = solve_btcs(net, trees, tight)
    assert pair is None and report.outcome == "infeasible"
    assert report.srlg_cut == 0 and report.corridors_explored == 0
    assert oracle_minmin(net, tight) is None
    loose = SrlgTask(0, 3, 0, 100, 100)
    assert find_srlg_cut(net, trees, loose) is None
    pair, report = solve_btcs(net, trees, loose, BtcsConfig(alpha=1))
    assert report.outcome == "pair" and report.corridors_explored > 0
    assert pair.ap.total_cost == oracle_minmin(net, loose)[0] == 4
    _verify_pair(net, loose, pair)


def test_unreachable_target_without_a_delay_bound_is_infeasible():
    # d_up = inf: the delay-tree walk must not follow the tight arcs
    # 1->2->1 between nodes that cannot reach the target
    net = Network(4, [Edge(0, 1, 1, 1), Edge(1, 2, 1, 1), Edge(2, 1, 1, 1)],
                  [{0}, {1, 2}])
    task = SrlgTask(0, 3, 0, inf, 5)
    trees = build_reverse_trees(net, 3)
    assert find_srlg_cut(net, trees, task) is None
    pair, report = solve_btcs(net, trees, task)
    assert pair is None and report.outcome == "infeasible"
    assert report.srlg_cut is None


def test_only_one_corridor_worker_is_accepted():
    assert BtcsConfig(workers=1).workers == 1
    with pytest.raises(ValueError, match="corridor workers were removed"):
        BtcsConfig(workers=2)


def test_growth_below_one_is_rejected():
    assert BtcsConfig(growth=1).growth == 1
    with pytest.raises(ValueError, match="growth must be >= 1"):
        BtcsConfig(growth=0)


@pytest.mark.parametrize("alpha", [0, -1.0, float("inf"), float("nan")])
def test_alpha_must_be_finite_and_positive(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        BtcsConfig(alpha=alpha)


def test_task_node_outside_network_is_rejected():
    net = _two_route_net(shared_srlg=False)
    trees = build_reverse_trees(net, 3)
    with pytest.raises(IntegrityError, match="source 7 is not a node of the "
                                             "4-node network"):
        solve_btcs(net, trees, SrlgTask(7, 3, 0, 100, 100))
    with pytest.raises(IntegrityError, match="target 4 is not a node"):
        solve_btcs(net, trees, SrlgTask(0, 4, 0, 100, 100))


GOLDEN_REPORTS = Path(__file__).with_name("btcs_golden_reports.json")

# entries without a growth suffix pin the paper's fixed-width schedule
GOLDEN_CONFIGS = {
    "alpha=0.5": BtcsConfig(alpha=0.5, growth=1),
    "alpha=1": BtcsConfig(alpha=1, growth=1),
    "alpha=10": BtcsConfig(alpha=10, growth=1),
    "cap=1": BtcsConfig(alpha=1, max_corridors=1, growth=1),
    "cap=2": BtcsConfig(alpha=1, max_corridors=2, growth=1),
    "alpha=0.5,growth=2": BtcsConfig(alpha=0.5, growth=2),
    "alpha=1,growth=2": BtcsConfig(alpha=1, growth=2),
    "alpha=10,growth=2": BtcsConfig(alpha=10, growth=2),
    "cap=2,growth=2": BtcsConfig(alpha=1, max_corridors=2, growth=2),
}


def _golden_instance(seed: int) -> tuple[Network, SrlgTask]:
    """Seeds below 44: small random networks (stage-1 pairs, few traps).

    Seeds from 44: complete 8-node digraphs with many SRLGs, mostly traps
    whose corridors hold enough paths for one search to pass the 512-pulse
    poll interval, so a stop event set after a few polls can cut them short
    in stage 2.
    """
    rng = random.Random(7000 + seed)
    if seed < 44:
        net = random_network(rng, max_nodes=11, max_edges=40, min_edges=15,
                             srlg_count=rng.randint(2, 12))
        task = random_task(rng, net, srlg=True)
        if seed % 2:
            task = SrlgTask(task.source, task.target, 0,
                            task.d_up + task.d_low,
                            max(task.d_diff, task.d_up // 2 + 1))
        return net, task
    n = 8
    edges = [Edge(u, v, rng.randint(1, 4), rng.randint(1, 4))
             for u in range(n) for v in range(n) if u != v]
    groups = [set(rng.sample(range(len(edges)), rng.randint(6, 30)))
              for _ in range(rng.randint(4, 12))]
    task = SrlgTask(0, n - 1, rng.randint(0, 4), rng.randint(14, 40),
                    rng.randint(0, 6))
    return Network(n, edges, groups), task


def _observe(net, trees, task, cfg, control) -> list:
    pair, report = solve_btcs(net, trees, task, cfg, control=control)
    c = report.counters
    return [report.outcome,
            list(pair.ap.edges) if pair else None,
            list(pair.pp.edges) if pair else None,
            report.corridors_explored, report.ap_candidates_checked,
            [c.pulses, c.infeasibility_prunes, c.cost_prunes],
            report.srlg_cut]


# from poll 5 on: no solve stops before its first search (a preset stop,
# pinned by test_stop_event_is_a_timeout_outcome), seeds 47 and 49 stop in
# corridor 0 and seed 45 after its first corridor
STOP_AFTER = 5


def golden_observations() -> dict[str, list]:
    """Report of solve_btcs on 50 seeded instances, keyed "seed:config".

    Each entry is [outcome, AP edges, PP edges, corridors_explored,
    ap_candidates_checked, (pulses, infeasibility_prunes, cost_prunes),
    srlg_cut] under three first-corridor widths and two corridor caps, each
    with fixed and doubling widths (no cap=1 for doubling: corridor 0 is the
    same), and under a stop event set from its STOP_AFTER-th poll on.
    """
    seen: dict[str, list] = {}
    for seed in range(50):
        net, task = _golden_instance(seed)
        trees = build_reverse_trees(net, task.target)
        for name, cfg in GOLDEN_CONFIGS.items():
            seen[f"{seed}:{name}"] = _observe(net, trees, task, cfg, UNLIMITED)
        stop = SearchControl(stop=CountingStop(after=STOP_AFTER))
        seen[f"{seed}:stop@{STOP_AFTER}"] = _observe(
            net, trees, task, BtcsConfig(alpha=10, growth=1), stop)
    return seen


def _answer(entry: list) -> list:
    return entry[:3] + entry[6:]


def test_reports_match_golden_table():
    # regenerate with: PYTHONPATH=src:tests python tests/test_btcs.py
    expected = json.loads(GOLDEN_REPORTS.read_text())
    stop = f"stop@{STOP_AFTER}"
    kinds = {(key.split(":")[1], entry[0], entry[3] > 0)
             for key, entry in expected.items()}
    assert {("alpha=1", "pair", False),        # stage-1 pair
            ("alpha=1", "pair", True),         # avoidable trap
            ("alpha=1", "infeasible", True),   # unavoidable trap
            ("cap=1", "timeout", True),
            ("cap=2", "timeout", True),
            ("alpha=1,growth=2", "pair", True),
            ("alpha=1,growth=2", "infeasible", True),
            ("cap=2,growth=2", "pair", True),   # finished within the cap
            ("cap=2,growth=2", "timeout", True),
            (stop, "timeout", False),           # stopped in corridor 0
            (stop, "timeout", True)} <= kinds   # after a corridor
    # every finished config of a seed gives one answer: outcome, pair,
    # checked count and cut; only corridors and pulse counters may differ.
    # That answer is the exhaustive min-min oracle's, and a cut settles
    # the seed before stage 1 under every config
    settled = 0
    for seed in range(50):
        entries = [entry for key, entry in expected.items()
                   if key.startswith(f"{seed}:")]
        finished = [_answer(e) + e[4:5] for e in entries if e[0] != "timeout"]
        assert all(f == finished[0] for f in finished), seed
        outcome, ap, pp, cut, _ = finished[0]
        net, task = _golden_instance(seed)
        best = oracle_minmin(net, task)
        if best is None:
            assert outcome == "infeasible", seed
        else:
            pair = DisjointPair(net.path(ap), net.path(pp))
            assert outcome == "pair" and pair.ap.total_cost == best[0], seed
            _verify_pair(net, task, pair)
        if cut is not None:
            assert all(e[:6] == ["infeasible", None, None, 0, 0, [0, 0, 0]]
                       for e in entries), seed
            settled += 1
    assert settled >= 10
    got = json.loads(json.dumps(golden_observations()))
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key


if __name__ == "__main__":
    write_golden(GOLDEN_REPORTS, golden_observations(), _answer)
