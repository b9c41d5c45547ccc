"""Exhaustive enumeration, the two optima, and histogram building."""

from __future__ import annotations

import io
import random
from dataclasses import astuple
from math import inf
from time import monotonic

import pytest

import drcr.btcs
import drcr.oracle
import drcr.pulse
from drcr import (DrcrTask, Edge, IntegrityError, Network,
                  OracleTooLargeError, SearchControl, SrlgTask,
                  build_histogram, enumerate_paths, oracle_drcr,
                  oracle_minmin)

from conftest import CountingStop, diamond, random_network, random_task


def complete_digraph(n: int) -> Network:
    return Network(n, [Edge(u, v, 1, 1) for u in range(n)
                       for v in range(n) if u != v])


def test_diamond_has_two_paths(diamond_net):
    paths = enumerate_paths(diamond_net, 0, 3)
    assert sorted(p.total_cost for p in paths) == [2, 10]


def test_complete_five_node_count():
    # fixed s,t plus permutations over 3 intermediates: 1 + 3 + 6 + 6
    assert len(enumerate_paths(complete_digraph(5), 0, 4)) == 16


def test_disconnected_is_empty():
    net = Network(3, [Edge(0, 1, 1, 1)])
    assert enumerate_paths(net, 0, 2) == []


def test_limit_exceeded_raises():
    with pytest.raises(OracleTooLargeError):
        enumerate_paths(complete_digraph(5), 0, 4, limit=10)


def test_path_longer_than_the_recursion_limit():
    # 1499 hops, past CPython's default recursion limit of 1000, and a
    # dead-end branch at every node that the walk must step back out of
    n = 1500
    edges = [Edge(i, i + 1, 1, 2) for i in range(n - 1)]
    edges += [Edge(i, i - 1, 1, 1) for i in range(1, n - 1)]
    paths = enumerate_paths(Network(n, edges), 0, n - 1)
    assert [p.edges for p in paths] == [tuple(range(n - 1))]
    assert (paths[0].total_cost, paths[0].total_delay) == (n - 1, 2 * (n - 1))


def test_oracle_drcr_windows(diamond_net):
    assert oracle_drcr(diamond_net, DrcrTask(0, 3, 0, 15))[0] == 10
    assert oracle_drcr(diamond_net, DrcrTask(0, 3, 0, 1)) is None
    assert oracle_drcr(diamond_net, DrcrTask(0, 3, 0, 10 ** 9))[0] == 2


def test_oracle_minmin_prefers_cheap_protected_route():
    edges = [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1),
             Edge(0, 2, 5, 1), Edge(2, 3, 5, 1)]
    net = Network(4, edges, [{0}, {2}])
    task = SrlgTask(0, 3, 0, 100, 100)
    cost, pair = oracle_minmin(net, task)
    assert cost == 2 and pair.ap.edges == (0, 1) and pair.pp.edges == (2, 3)


def test_oracle_minmin_shared_srlg_absent():
    edges = [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1),
             Edge(0, 2, 5, 1), Edge(2, 3, 5, 1)]
    net = Network(4, edges, [{0, 2}])
    assert oracle_minmin(net, SrlgTask(0, 3, 0, 100, 100)) is None


def test_oracle_minmin_wide_diff_reduces_to_disjointness():
    rng = random.Random(61)
    for seed in range(30):
        rng.seed(seed)
        net = random_network(rng, max_nodes=8, max_edges=20,
                             srlg_count=rng.randint(1, 6))
        base = random_task(rng, net)
        wide = SrlgTask(*astuple(base), base.d_up - base.d_low)
        got = oracle_minmin(net, wide)
        # reference: disjointness plus windows only
        paths = [p for p in enumerate_paths(net, base.source, base.target)
                 if base.d_low <= p.total_delay <= base.d_up]
        paths.sort(key=lambda p: (p.total_cost, p.edges))
        expected = None
        for ap in paths:
            groups = set()
            for eid in ap.edges:
                groups |= net.edge_srlgs[eid]
            for pp in paths:
                if set(ap.edges) & set(pp.edges):
                    continue
                if any(net.edge_srlgs[e] & groups for e in pp.edges):
                    continue
                expected = ap.total_cost
                break
            if expected is not None:
                break
        assert (got[0] if got else None) == expected


def test_histogram_diamond_series(diamond_net):
    hist = build_histogram(diamond_net, DrcrTask(0, 3, 0, 15), 10)
    assert hist.series["all"] == {0: 1, 10: 1}
    assert hist.series["feasible"] == {10: 1}
    assert not hist.truncated


def test_histogram_range_window_adds_upper_only_series(diamond_net):
    hist = build_histogram(diamond_net, DrcrTask(0, 3, 16, 25), 10)
    assert hist.series["feasible_up"] == {0: 1, 10: 1}  # d <= 25
    assert hist.series["feasible"] == {0: 1}            # 16 <= d <= 25
    assert list(hist.series) == ["all", "feasible_up", "feasible"]


def test_histogram_truncation_flag(diamond_net):
    hist = build_histogram(diamond_net, DrcrTask(0, 3, 0, 15), 10, cap=1)
    assert hist.truncated


@pytest.mark.parametrize("task", [DrcrTask(0, 3, 0, 100),
                                  SrlgTask(0, 3, 0, 100, 100)])
def test_histogram_at_exactly_cap_paths_is_truncated(task):
    # both diamond routes are feasible and protect each other; the sweep
    # cannot tell a series of exactly cap paths from a longer one it cut
    net = Network(4, diamond().edges, [{0}, {2}])
    full = build_histogram(net, task, 10, include_all=False)
    assert sum(full.series["feasible"].values()) == 2
    at_cap = build_histogram(net, task, 10, cap=2, include_all=False)
    assert at_cap.truncated and at_cap.series == full.series
    above = build_histogram(net, task, 10, cap=3, include_all=False)
    assert not above.truncated and above.series == full.series


def _egress_cut_complete(n: int = 7) -> Network:
    """A complete digraph whose one SRLG holds every egress edge of node 0.

    Every AP candidate from node 0 then fails its protection attempt on
    connectivity: no pulse is spent and no path is built.
    """
    net = complete_digraph(n)
    return Network(n, net.edges, [set(net.adjacency[0])])


def test_pair_histogram_builds_at_most_cap_plus_one_paths(monkeypatch):
    # one bin holds all 326 paths 0 -> 6; the scan must stop at the cap
    # instead of building every path of the bin
    net = _egress_cut_complete()
    built = []
    path = Network.path

    def counting_path(self, edge_ids):
        built.append(tuple(edge_ids))
        return path(self, edge_ids)

    monkeypatch.setattr(Network, "path", counting_path)
    hist = build_histogram(net, SrlgTask(0, 6, 0, 100, 100),
                           10 ** 6, cap=3, include_all=False)
    assert hist.truncated
    assert hist.series == {"feasible": {0: 3}, "protected": {}}
    assert len(built) == 3


def test_pair_histogram_polls_between_protection_attempts(monkeypatch,
                                                         poll_each_pulse):
    net = _egress_cut_complete()

    stop = CountingStop()
    polls_at_protect = []
    protect = drcr.btcs.try_protect

    def recording_protect(*args, **kwargs):
        polls_at_protect.append(stop.polls)
        return protect(*args, **kwargs)

    monkeypatch.setattr(drcr.btcs, "try_protect", recording_protect)
    hist = build_histogram(net, SrlgTask(0, 6, 0, 100, 100),
                           10 ** 6, include_all=False,
                           control=SearchControl(stop=stop))
    assert hist.series["feasible"] == {0: 326}
    assert len(polls_at_protect) == 326
    assert all(b > a for a, b in zip(polls_at_protect, polls_at_protect[1:]))


@pytest.mark.parametrize("task, message", [
    (DrcrTask(7, 1, 0, 10), "source 7 is not a node"),
    (DrcrTask(0, 4, 0, 10), "target 4 is not a node"),
    (SrlgTask(7, 1, 0, 10, 5), "source 7 is not a node"),
    (SrlgTask(0, 4, 0, 10, 5), "target 4 is not a node"),
])
def test_histogram_rejects_a_task_node_outside_the_network(diamond_net, task,
                                                           message):
    with pytest.raises(IntegrityError, match=message):
        build_histogram(diamond_net, task, 10)


def test_histogram_containment_on_random_srlg_instances():
    rng = random.Random(71)
    for seed in range(25):
        rng.seed(seed)
        net = random_network(rng, max_nodes=8, max_edges=20,
                             srlg_count=rng.randint(1, 6))
        task = random_task(rng, net, srlg=True)
        hist = build_histogram(net, task, 5)
        assert list(hist.series) == ["all", "feasible", "protected"]
        for b, count in hist.series["protected"].items():
            assert count <= hist.series["feasible"].get(b, 0)
        for b, count in hist.series["feasible"].items():
            assert count <= hist.series["all"].get(b, 0)


def test_histogram_csv_layout(diamond_net):
    hist = build_histogram(diamond_net, DrcrTask(0, 3, 0, 15), 10)
    buf = io.StringIO()
    hist.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "bin_low,all,feasible"
    assert lines[1] == "0,1,0"
    assert lines[2] == "10,1,1"
    assert lines[-1] == "# truncated=false"


def test_histogram_cost_ceiling_limits_sweep(diamond_net):
    task = DrcrTask(0, 3, 0, 10 ** 6)
    hist = build_histogram(diamond_net, task, 10, cost_ceiling=5)
    assert hist.series["all"] == {0: 1}  # the cost-10 path is above the ceiling
    # a ceiling of 0 still sweeps the bin [0, 10)
    hist = build_histogram(diamond_net, task, 10, cost_ceiling=0)
    assert hist.series["all"] == {0: 1}


def _weighted_complete(seed: int, n: int = 6) -> Network:
    """A complete digraph whose histograms fill 7 to 8 bins of width 4."""
    rng = random.Random(seed)
    edges = [Edge(u, v, rng.randint(1, 9), rng.randint(1, 9))
             for u in range(n) for v in range(n) if u != v]
    return Network(n, edges, [set(rng.sample(range(len(edges)), 4))
                              for _ in range(8)])


_HISTOGRAM_TASKS = (DrcrTask(0, 5, 10, 30), SrlgTask(0, 5, 0, 30, 8))


@pytest.mark.parametrize("task", _HISTOGRAM_TASKS)
def test_histogram_passed_deadline_keeps_no_bin(task):
    net = _weighted_complete(0)
    control = SearchControl(deadline=monotonic() - 1.0)
    hist = build_histogram(net, task, 4, control=control)
    assert hist.truncated
    assert list(hist.series) == list(build_histogram(net, task, 4).series)
    assert all(bins == {} for bins in hist.series.values())


@pytest.mark.parametrize("task", _HISTOGRAM_TASKS)
def test_histogram_deadline_mid_sweep_keeps_the_completed_bins(
        task, monkeypatch, poll_each_pulse):
    net = _weighted_complete(0)
    full = build_histogram(net, task, 4)
    assert not full.truncated
    ticks = [0]

    def clock():  # one tick per read; every poll reads it once
        ticks[0] += 1
        return ticks[0]

    monkeypatch.setattr(drcr.pulse, "monotonic", clock)
    build_histogram(net, task, 4, control=SearchControl(deadline=inf))
    polls = ticks[0]
    assert polls > 1000
    partial = 0
    for deadline in range(0, polls + 1, polls // 60):
        ticks[0] = 0
        hist = build_histogram(net, task, 4, control=SearchControl(
            deadline=deadline + 0.5))
        assert list(hist.series) == list(full.series)
        assert hist.truncated == (deadline < polls)
        ended = None  # the sweep the deadline cut short
        for name, bins in hist.series.items():
            sweep = "feasible" if name == "protected" else name
            if ended not in (None, sweep):
                assert bins == {}, name  # a sweep after the one cut short
                continue
            # the bins below the sweep's first missing one, exactly as in
            # full; protected is swept with feasible and shares its cut
            missing = min((b for b in full.series[sweep]
                           if b not in hist.series[sweep]), default=inf)
            assert bins == {b: n for b, n in full.series[name].items()
                            if b < missing}, name
            if ended is None and bins != full.series[name]:
                ended = sweep
                partial += bool(bins)
    assert partial >= 10
