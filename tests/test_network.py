"""Graph model, SRLG index, file formats, edge removal and connectivity."""

from __future__ import annotations

import gc
import random
import re
import tracemalloc
from itertools import product
from math import inf, nan

import pytest

from drcr import (DrcrTask, Edge, GenSpec, IntegrityError, Network,
                  ParseError, Path, SrlgTask, build_reverse_trees, check_path,
                  gen_graph, is_connected, load_network, load_tasks,
                  pulse_optimal, remove_conflicting_edges, save_network,
                  save_tasks)
from drcr.network import (NetworkView, find_path, format_task,
                          parse_task_line)

from conftest import diamond, least_delay, random_network, reachable


def test_single_edge_roundtrip(tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,2\n0,1,5,7\n")
    net = load_network(graph)
    assert net.node_count == 2
    assert net.edges == (Edge(0, 1, 5, 7),)
    assert net.adjacency == ((0,), ())


def test_dangling_node_reference(tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,10\n0,99,5,7\n")
    with pytest.raises(IntegrityError):
        load_network(graph)


@pytest.mark.parametrize("line", ["0,1,5", "0,1,5,7,9", "a,1,5,7", "0,1,5.5,7"])
def test_malformed_edge_line(tmp_path, line):
    graph = tmp_path / "g.csv"
    graph.write_text(f"nodes,3\n{line}\n")
    with pytest.raises(ParseError) as err:
        load_network(graph)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("line, field", [
    ("x,1,5,7", "from"), ("0,1.0,5,7", "to"), ("0,1,5.5,7", "cost"),
    ("0,1,5,", "delay"), ("0,1,1_0,7", "cost"), ("0,1,+5,7", "cost"),
    ("0,\u0664,5,7", "to"), ("0,1,5, 5", "delay")])
def test_malformed_edge_field_is_named(tmp_path, line, field):
    # the load converts a line in one call and parses it field by field
    # only to name the field that failed; int() alone would take "1_0",
    # "+5", an Arabic-Indic four and " 5"
    graph = tmp_path / "g.csv"
    graph.write_text(f"nodes,3\n0,1,1,1\n{line}\n", encoding="utf-8")
    token = line.split(",")[("from", "to", "cost", "delay").index(field)]
    with pytest.raises(ParseError, match=re.escape(
            f"g.csv:3: {field} is not an integer: {token!r}")):
        load_network(graph)


def test_non_ascii_fails_on_its_line(tmp_path):
    # CRLF lines load; a byte that is not UTF-8, here past the reader's
    # first 8 KB chunk, a BOM and a non-ASCII digit each fail their line
    graph = tmp_path / "g.csv"
    head = b"nodes,1001\r\n" + b"".join(
        b"%d,%d,1,1\r\n" % (u, u + 1) for u in range(1000))
    assert len(head) > 8192
    graph.write_bytes(head)
    assert len(load_network(graph).edges) == 1000
    for text, message in (
            (head + b"1000,0,\xff,1\r\n", "g.csv:1002: cost is not an integer"),
            (b"\xef\xbb\xbfnodes,2\n", "g.csv:1: expected 'nodes,<N>'"),
            ("nodes,\u0664\n".encode(), "g.csv:1: node count is not an integer")):
        graph.write_bytes(text)
        with pytest.raises(ParseError, match=message):
            load_network(graph)


def test_nonpositive_weights_rejected(tmp_path):
    # the file parses, and Network names the edge with the bad weight
    graph = tmp_path / "g.csv"
    for edges, message in (("0,1,0,7", "edge 0 cost must be a positive "
                                       "integer, got 0"),
                           ("0,1,5,7\n1,2,3,-1", "edge 1 delay must be a "
                                                 "positive integer, got -1")):
        graph.write_text(f"nodes,3\n{edges}\n")
        with pytest.raises(IntegrityError, match=message):
            load_network(graph)


@pytest.mark.parametrize("edge, message", [
    (Edge(0, 1.5, 1, 1), "edge 0 references node 1.5, which is not an integer"),
    (Edge(True, 1, 1, 1), "edge 0 references node True, which is not an "
                          "integer"),
    (Edge(0, 1, 2.0, 1), "edge 0 cost must be a positive integer, got 2.0"),
    (Edge(0, 1, 1, False), "edge 0 delay must be a positive integer, got False"),
])
def test_edge_node_ids_and_weights_must_be_ints(edge, message):
    # a range check alone passes node 1.5, which a list index reads as 1
    with pytest.raises(IntegrityError, match=re.escape(message)):
        Network(3, [edge, Edge(1, 2, 1, 1)])


def test_bad_header(tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("vertices,3\n")
    with pytest.raises(ParseError):
        load_network(graph)


def test_srlg_file_loading(tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,3\n0,1,1,1\n1,2,1,1\n0,2,1,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:0,2\n1:1\n")
    net = load_network(graph, srlg)
    assert net.srlg_groups == (frozenset({0, 2}), frozenset({1}))
    assert net.edge_srlgs == (frozenset({0}), frozenset({1}), frozenset({0}))


def test_srlg_dense_ids_enforced(tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,3\n0,1,1,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("1:0\n")
    with pytest.raises(ParseError):
        load_network(graph, srlg)


def test_srlg_dangling_edge(tmp_path):
    graph = tmp_path / "g.csv"
    graph.write_text("nodes,3\n0,1,1,1\n")
    srlg = tmp_path / "s.csv"
    srlg.write_text("0:5\n")
    with pytest.raises(IntegrityError):
        load_network(graph, srlg)


def test_parallel_edges_allowed():
    net = Network(2, [Edge(0, 1, 3, 3), Edge(0, 1, 3, 3)])
    assert len(net.edges) == 2
    assert net.adjacency[0] == (0, 1)


def test_roundtrip_bit_exact(tmp_path):
    rng = random.Random(11)
    for seed in range(20):
        rng.seed(seed)
        net = random_network(rng, srlg_count=rng.randint(0, 5))
        g1, s1 = tmp_path / "a.csv", tmp_path / "a_srlg.csv"
        save_network(net, g1, s1)
        loaded = load_network(g1, s1)
        assert (loaded.node_count, loaded.edges, loaded.srlg_groups) == (
            net.node_count, net.edges, net.srlg_groups)
        g2, s2 = tmp_path / "b.csv", tmp_path / "b_srlg.csv"
        save_network(loaded, g2, s2)
        assert g1.read_bytes() == g2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()


def test_task_file_roundtrip(tmp_path):
    tasks = [DrcrTask(0, 1, 0, 10), SrlgTask(2, 3, 5, 20, 7)]
    path = tmp_path / "t.csv"
    save_tasks(tasks, path)
    assert load_tasks(path) == tasks
    assert path.read_text() == "0,1,0,10\n2,3,5,20,7\n"


def test_task_line_validation():
    with pytest.raises(ParseError):
        parse_task_line("0,0,0,10")  # source == target
    with pytest.raises(ParseError):
        parse_task_line("0,1,5,4")  # inverted window
    assert format_task(parse_task_line("0,1,2,3,4")) == "0,1,2,3,4"


def test_srlg_task_is_the_drcr_task_of_its_window_plus_d_diff():
    # the column count picks the class, both ways
    for line, kind in (("0,1,2,3", DrcrTask), ("0,1,2,3,4", SrlgTask)):
        task = parse_task_line(line)
        assert type(task) is kind and format_task(task) == line
    pair = SrlgTask(0, 1, 2, 3, 4)
    assert isinstance(pair, DrcrTask)
    assert (pair.source, pair.target, pair.d_low, pair.d_up,
            pair.d_diff) == (0, 1, 2, 3, 4)
    # a pair task is never the single-path task of its window
    assert pair != DrcrTask(0, 1, 2, 3) and DrcrTask(0, 1, 2, 3) != pair
    assert len({pair, DrcrTask(0, 1, 2, 3)}) == 2
    # every window check of DrcrTask, plus the d_diff one
    for window, message in (((-1, 1, 0, 5), "node ids must be >= 0"),
                            ((1, 1, 0, 5), "source equals target"),
                            ((0, 1, -1, 5), "bad delay window"),
                            ((0, 1, 6, 5), "bad delay window")):
        for make in (lambda: DrcrTask(*window),
                     lambda: SrlgTask(*window, 0)):
            with pytest.raises(IntegrityError, match=message):
                make()
    with pytest.raises(IntegrityError, match="d_diff must be >= 0"):
        SrlgTask(0, 1, 0, 5, -1)
    # the delay-relaxed searches keep an unbounded window top
    assert SrlgTask(0, 1, 0, inf, 5).d_up == inf
    # the pair task goes as it is into a single-path search
    net = diamond()
    trees = build_reverse_trees(net, 3)
    path = pulse_optimal(net, trees, SrlgTask(0, 3, 0, 15, 5))
    assert path == pulse_optimal(net, trees, DrcrTask(0, 3, 0, 15))
    assert path.edges == (2, 3)


@pytest.mark.parametrize("kind, window", [
    (DrcrTask, (0, nan)), (DrcrTask, (nan, 10)), (DrcrTask, (nan, nan)),
    (SrlgTask, (0, nan, 5)), (SrlgTask, (nan, 10, 5)), (SrlgTask, (0, 10, nan)),
])
def test_a_nan_window_bound_or_d_diff_is_rejected(kind, window):
    # no delay compares with NaN, so a search would prove a false
    # "infeasible", as solve_btbu did on a one-edge network with d_up NaN
    with pytest.raises(IntegrityError):
        kind(0, 1, *window)


def test_task_node_ids_checked():
    with pytest.raises(IntegrityError, match="node ids must be >= 0"):
        DrcrTask(-1, 1, 0, 20)
    with pytest.raises(ParseError, match="node ids must be >= 0"):
        parse_task_line("-1,1,0,20", "t.csv", 3)
    # a negative source that would alias the target of a 3-node network
    with pytest.raises(ParseError, match="t.csv:3: "):
        parse_task_line("-1,2,0,20", "t.csv", 3, node_count=3)
    with pytest.raises(ParseError, match="t.csv:3: src 7 is not a node"):
        parse_task_line("7,2,0,20", "t.csv", 3, node_count=3)
    with pytest.raises(ParseError, match="t.csv:3: dst 3 is not a node"):
        parse_task_line("0,3,0,20,5", "t.csv", 3, node_count=3)
    assert parse_task_line("0,2,0,20", node_count=3) == DrcrTask(0, 2, 0, 20)


def test_load_tasks_checks_node_ids_against_the_network(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,1,0,5\n\n1,4,0,5\n")
    assert len(load_tasks(path)) == 2
    with pytest.raises(ParseError, match="t.csv:3: dst 4 is not a node"):
        load_tasks(path, node_count=4)
    assert len(load_tasks(path, node_count=5)) == 2


def test_remove_conflicting_edges_group_lookup():
    net = Network(4, [Edge(0, 1, 1, 1), Edge(1, 3, 1, 1), Edge(0, 2, 1, 1),
                      Edge(2, 3, 1, 1)], [{0, 3}])
    ap = net.path([0, 1])
    view = remove_conflicting_edges(net, ap)
    # e0 (on ap, in group), e1 (on ap), e3 (shares group 0)
    assert view.excluded == frozenset({0, 1, 3})


def test_remove_conflicting_edges_self_conflict():
    net = Network(3, [Edge(0, 1, 1, 1), Edge(1, 2, 1, 1), Edge(0, 2, 1, 1)])
    ap = net.path([0, 1])
    view = remove_conflicting_edges(net, ap)
    assert view.excluded == frozenset({0, 1})
    for eid in (3, -1):
        with pytest.raises(IntegrityError, match=f"unknown edge {eid}"):
            remove_conflicting_edges(net, Path((0, eid), 2, 2))


def test_star_srlg_disconnects_source():
    # star group over all egress edges of the source; ap uses one of them
    net = Network(4, [Edge(0, 1, 1, 1), Edge(0, 2, 1, 1), Edge(1, 3, 1, 1),
                      Edge(2, 3, 1, 1)], [{0, 1}])
    ap = net.path([0, 2])
    view = remove_conflicting_edges(net, ap)
    assert view.excluded == frozenset({0, 1, 2})
    assert sorted(set(range(4)) - view.excluded) == [3]
    assert not is_connected(view, 0, 3)
    # every route has delay 2: the bound decides on the full network, and
    # no bound reconnects the stripped view
    lb = build_reverse_trees(net, 3).min_delay_to_target
    for potential in (lb, [0] * 4):
        assert not is_connected(view, 0, 3, potential, inf)
        assert is_connected(net, 0, 3, potential, 2)
        assert not is_connected(net, 0, 3, potential, 1)


def test_removed_view_never_shares_srlg_with_ap():
    rng = random.Random(23)
    for seed in range(50):
        rng.seed(seed)
        net = random_network(rng, srlg_count=rng.randint(1, 6))
        eid = rng.randrange(len(net.edges))
        ap = net.path([eid])
        view = remove_conflicting_edges(net, ap)
        ap_groups = net.edge_srlgs[eid]
        for other, groups in enumerate(net.edge_srlgs):
            if other in view.excluded:
                continue
            assert not (groups & ap_groups)
            assert other != eid


def test_is_connected_trivial_cases():
    net = Network(3, [Edge(0, 1, 1, 1)])
    assert is_connected(net, 0, 1)
    assert not is_connected(net, 0, 2)
    assert not is_connected(net, 1, 0)  # directed
    assert is_connected(net, 2, 2)
    assert find_path(net, 2, 2) == []
    # 0 -> 1 has delay 1, under the delay tree and under all zeros
    lb = build_reverse_trees(net, 1).min_delay_to_target
    for potential in (lb, [0] * 3):
        assert find_path(net, 0, 1, potential, 1) == [0]
        assert find_path(net, 0, 1, potential, inf) == [0]
        assert find_path(net, 0, 1, potential, 0) is None
        assert find_path(net, 2, 1, potential, inf) is None
    for s, t in ((0, 3), (3, 0), (-1, 1)):
        with pytest.raises(IntegrityError, match="node out of range"):
            find_path(net, s, t)


def test_is_connected_matches_reference_reachability():
    rng = random.Random(5)
    for seed in range(80):
        rng.seed(seed)
        net = random_network(rng, max_nodes=64, max_edges=120)
        excluded = frozenset(rng.sample(range(len(net.edges)),
                                        rng.randrange(len(net.edges) + 1)))
        view = NetworkView(net, excluded)
        s = rng.randrange(net.node_count)
        seen = reachable(net, s, excluded)
        for t in range(net.node_count):
            assert is_connected(view, s, t) == (t in seen)
            path = find_path(view, s, t)
            assert (path is not None) == (t in seen)
            if path:
                assert not excluded & set(path)
                check_path(net, net.path(path), s, t)
            # the delay tree of the full network and all zeros as the
            # potential, each below, at and without the least delay
            least = least_delay(net, s, t, excluded)
            lb = build_reverse_trees(net, t).min_delay_to_target
            for potential, d_up in product((lb, [0] * net.node_count),
                                           (least - 1, least, inf)):
                path = find_path(view, s, t, potential, d_up)
                assert (path is not None) == (least <= d_up and least < inf)
                assert is_connected(view, s, t, potential, d_up) == \
                    (path is not None)
                if path:
                    assert not excluded & set(path)
                    check_path(net, net.path(path), s, t)
                    assert net.path(path).total_delay == least


def test_adjacency_and_inverse_invariants():
    rng = random.Random(3)
    for seed in range(30):
        rng.seed(seed)
        net = random_network(rng, srlg_count=rng.randint(0, 6))
        listed = [eid for adj in net.adjacency for eid in adj]
        assert sorted(listed) == list(range(len(net.edges)))
        for node, adj in enumerate(net.adjacency):
            assert all(net.edges[eid].src == node for eid in adj)
        for gid, group in enumerate(net.srlg_groups):
            for eid in group:
                assert gid in net.edge_srlgs[eid]
        for eid, groups in enumerate(net.edge_srlgs):
            for gid in groups:
                assert eid in net.srlg_groups[gid]


def test_check_path_catches_violations():
    net = diamond()
    good = net.path([0, 1])
    check_path(net, good, source=0, target=3)
    with pytest.raises(IntegrityError):
        check_path(net, net.path([0, 3]), source=0)  # does not chain
    with pytest.raises(IntegrityError):
        check_path(net, Path((0, 1), 99, 20))  # wrong cached totals
    with pytest.raises(IntegrityError):
        check_path(net, good, target=2)
    with pytest.raises(IntegrityError, match="empty path"):
        check_path(net, Path((), 0, 0))
    with pytest.raises(IntegrityError, match="unknown edge 99"):
        check_path(net, Path((0, 99), 2, 20))
    with pytest.raises(IntegrityError, match="does not start at 2"):
        check_path(net, good, source=2)
    # 0 -> 1 -> 0 -> 2: node 0 is met again before the last edge
    loop = Network(3, [Edge(0, 1, 1, 1), Edge(1, 0, 1, 1), Edge(0, 2, 1, 1)])
    with pytest.raises(IntegrityError, match="revisits node 0"):
        check_path(loop, loop.path([0, 1, 2]))
    # 0 -> 1 -> 0: the last edge returns to the first node
    with pytest.raises(IntegrityError, match="revisits node 0"):
        check_path(loop, loop.path([0, 1]))


def test_path_totals():
    net = diamond()
    p = net.path([2, 3])
    assert (p.total_cost, p.total_delay) == (10, 2)


def test_edge_instances_are_kept_and_other_tuples_converted():
    given = [Edge(0, 1, 2, 3), (1, 2, 4, 5)]
    net = Network(3, given)
    assert net.edges[0] is given[0]
    assert type(net.edges[1]) is Edge and net.edges[1] == Edge(1, 2, 4, 5)


def test_srlg_free_edges_share_one_empty_set():
    net = Network(3, [Edge(0, 1, 1, 1), Edge(1, 2, 1, 1), Edge(0, 2, 1, 1),
                      Edge(2, 0, 1, 1)], [{1}])
    free = [net.edge_srlgs[eid] for eid in (0, 2, 3)]
    assert all(groups is free[0] for groups in free)
    assert free[0] == frozenset() and type(free[0]) is frozenset
    assert net.edge_srlgs[1] == frozenset({0})
    bare = Network(2, [Edge(0, 1, 1, 1), Edge(1, 0, 1, 1)])
    assert bare.edge_srlgs[0] is bare.edge_srlgs[1] is free[0]


def test_with_srlgs_shares_everything_but_the_srlg_index():
    net = Network(3, [Edge(0, 1, 2, 5), Edge(1, 2, 3, 4), Edge(0, 2, 9, 1)])
    copy = net.with_srlgs([{0, 2}, {1}])
    assert copy.edges is net.edges
    assert copy.adjacency is net.adjacency
    assert copy._memo is net._memo
    assert (copy.node_count, copy.min_edge_cost, copy.max_edge_cost) == (3, 2, 9)
    assert copy.srlg_groups == (frozenset({0, 2}), frozenset({1}))
    assert copy.edge_srlgs == (frozenset({0}), frozenset({1}), frozenset({0}))
    fresh = Network(3, net.edges, [{0, 2}, {1}])
    assert (copy.srlg_groups, copy.edge_srlgs) == (fresh.srlg_groups,
                                                   fresh.edge_srlgs)
    assert net.srlg_groups == ()


@pytest.mark.parametrize("groups, message", [
    ([{0}, set()], "srlg group 1 is empty"),
    ([{0, 3}], "srlg group 0 references unknown edge 3"),
    ([{-1}], "srlg group 0 references unknown edge -1"),
    ([{0}, {"1"}], "srlg group 1 references unknown edge '1'"),
    ([{True}], "srlg group 0 references unknown edge True"),
])
def test_with_srlgs_validates_the_groups(groups, message):
    net = Network(3, [Edge(0, 1, 1, 1), Edge(1, 2, 1, 1), Edge(0, 2, 1, 1)])
    with pytest.raises(IntegrityError, match=message):
        net.with_srlgs(groups)
    with pytest.raises(IntegrityError, match=message):
        Network(3, net.edges, groups)


def test_srlg_free_network_from_existing_edges_allocates_little():
    # 1000 nodes, about 7000 edges: adjacency tuples and the per-edge SRLG
    # index that points at one shared empty set, about 0.4 MB in CPython 3.11
    edges = gen_graph(GenSpec("er", 1000, 7, seed=1000)).edges
    gc.collect()
    tracemalloc.start()
    try:
        net = Network(1000, edges)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.edges == edges
    assert live < 1 << 20, f"{live / (1 << 20):.2f} MB live"
