"""Dataset generation: random graphs, SRLG assignment, tasks, trap filtering.

Two topology families: directed Erdos-Renyi graphs with an edge probability
calibrated to a target mean out-degree, and scale-free graphs from the
package's own Barabasi-Albert generator (Science 286, 1999), made directed
by emitting both directions of every attachment edge.  The generator
reproduces NetworkX 3.x's ``barabasi_albert_graph`` link for link, in its
edge order.  Costs and delays are independent uniform integers (default
range 1..100).

SRLG assignment covers every edge, in one of two patterns: ``random``
groups draw a size in 1..40 and that many edges from the whole graph;
``star`` groups take egress edges of a single node, sized around the mean
out-degree.

Everything is deterministic under its seed: the same spec always produces
bit-identical artifacts.

Task windows are scaled from the exact minimum delay D of each (s, t) pair.
Range (single-path) tasks draw a band that may sit well above D:
d_low = ceil(gamma * D) with gamma ~ U[0.6, 3.5] and
d_up = d_low + ceil(delta * D) with delta ~ U[0.05, 0.4], which yields a mix
of easy, hard and outright infeasible tasks; the infeasible ones are what
filter_tasks is for.  Disjoint-pair tasks use d_low = 0 with
d_up = ceil(beta * D), beta ~ U[1.2, 2.0] (the minimum-delay path is then
always inside the window) and draw d_diff uniformly from
[0.1 * d_up, 0.5 * d_up].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil

import numpy as np

from .btcs import BtcsConfig, solve_btcs
from .network import DrcrTask, Edge, Network, SrlgTask, Task, check_task_nodes
from .pulse import SearchControl, SearchInterrupted, pulse_first_feasible
from .report import INFEASIBLE, PAIR
from .trees import ReverseTrees, TreeCache

ER = "er"
SCALE_FREE = "scale-free"


class GenerationError(RuntimeError):
    """Sampling could not satisfy the request within its retry budget."""


@dataclass(frozen=True)
class GenSpec:
    """Graph generation parameters.

    ``density_param`` is the target mean out-degree for ER graphs and the
    attachment parameter m for scale-free graphs.
    """

    topology: str
    nodes: int
    density_param: int
    cost_range: tuple[int, int] = (1, 100)
    delay_range: tuple[int, int] = (1, 100)
    seed: int = 0

    def __post_init__(self):
        if self.topology not in (ER, SCALE_FREE):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.nodes < 2:
            raise ValueError("nodes must be >= 2")
        if self.density_param < 1:
            raise ValueError("density_param must be >= 1")
        for lo, hi in (self.cost_range, self.delay_range):
            if not 1 <= lo <= hi:
                raise ValueError(f"bad range [{lo}, {hi}]")


@dataclass(frozen=True)
class SrlgSpec:
    """SRLG generation parameters: ``random`` or ``star`` pattern."""

    pattern: str
    seed: int = 0
    random_size_range: tuple[int, int] = (1, 40)

    def __post_init__(self):
        if self.pattern not in ("random", "star"):
            raise ValueError(f"unknown srlg pattern {self.pattern!r}")
        lo, hi = self.random_size_range
        if not 1 <= lo <= hi <= 40:
            raise ValueError(f"size range must lie within [1, 40], got [{lo}, {hi}]")


def _barabasi_albert_links(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Links of a Barabasi-Albert graph, 1 <= m < n: a star on nodes 0..m, then
    each new node links to m distinct nodes drawn from ``repeated`` (one entry
    per link end).  The draws, their set and the link order are NetworkX's."""
    rng = random.Random(seed)
    # later[u]: the nodes after u that link to u, in the order they link
    later = [list(range(1, m + 1))] + [[] for _ in range(n - 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for t in targets:
            later[t].append(source)
        # the set's iteration order is the order of its ends in ``repeated``
        repeated += [*targets, *[source] * m]
    return [(u, v) for u in range(n) for v in later[u]]


def gen_graph(spec: GenSpec) -> Network:
    """A seeded random network per the spec; identical spec, identical graph."""
    rng = np.random.default_rng(spec.seed)
    clo, chi = spec.cost_range
    dlo, dhi = spec.delay_range
    n = spec.nodes
    edges: list[Edge] = []

    if spec.topology == ER:
        p = min(1.0, spec.density_param / (n - 1))
        for u in range(n):
            hits = rng.random(n) < p
            hits[u] = False
            targets = np.flatnonzero(hits)
            costs = rng.integers(clo, chi + 1, size=len(targets))
            delays = rng.integers(dlo, dhi + 1, size=len(targets))
            edges += [Edge(u, v, c, d) for v, c, d in zip(
                targets.tolist(), costs.tolist(), delays.tolist())]
    else:
        m = spec.density_param
        if m >= n:
            raise GenerationError(f"attachment parameter {m} needs more than {n} nodes")
        links = _barabasi_albert_links(n, m, spec.seed)
        # one (cost, delay) row per arc, drawn in the order and from the
        # stream that one scalar draw per weight would use
        weights = rng.integers(np.array([clo, dlo]), np.array([chi + 1, dhi + 1]),
                               size=(2 * len(links), 2)).tolist()
        arcs = (arc for u, v in links for arc in ((u, v), (v, u)))
        edges = [Edge(a, b, c, d) for (a, b), (c, d) in zip(arcs, weights)]

    return Network(n, edges)


def gen_srlg(net: Network, spec: SrlgSpec) -> tuple[frozenset[int], ...]:
    """SRLG groups covering every edge of the network.

    random: sizes uniform in the configured range, members uniform over all
    edges, repeated until coverage.  star: members are egress edges of one
    node, sized uniformly in [1, ceil(mean out-degree)] clamped to the
    node's egress count; the node is the origin of the first still-uncovered
    edge in a seeded random sweep, which guarantees progress.
    """
    if not net.edges:
        raise GenerationError("network has no edges")
    rng = np.random.default_rng(spec.seed)
    edge_count = len(net.edges)
    groups: list[frozenset[int]] = []
    uncovered = set(range(edge_count))

    if spec.pattern == "random":
        lo, hi = spec.random_size_range
        while uncovered:
            k = min(int(rng.integers(lo, hi + 1)), edge_count)
            members = rng.choice(edge_count, size=k, replace=False)
            group = frozenset(int(e) for e in members)
            groups.append(group)
            uncovered -= group
    else:
        mean_deg = ceil(edge_count / net.node_count)
        for eid in rng.permutation(edge_count):
            eid = int(eid)
            if eid not in uncovered:
                continue
            egress = net.adjacency[net.edges[eid].src]
            k = min(int(rng.integers(1, mean_deg + 1)), len(egress))
            others = [e for e in egress if e != eid]
            group = {eid}
            if k > 1 and others:
                picks = rng.choice(len(others), size=min(k - 1, len(others)),
                                   replace=False)
                group.update(others[i] for i in picks)
            groups.append(frozenset(group))
            uncovered -= group

    return tuple(groups)


def gen_tasks(net: Network, count: int, kind: str, seed: int = 0, *,
              cache: TreeCache | None = None) -> list[Task]:
    """``count`` tasks with distinct random (s, t) pairs, windows per module rule.

    kind ``drcr`` emits range tasks (nonzero d_low); kind ``srlg`` emits
    d_low = 0 tasks carrying a d_diff.  Pairs without an s->t path are
    resampled; a fixed retry budget turns exhaustion into GenerationError.
    """
    if kind not in ("drcr", "srlg"):
        raise ValueError(f"unknown task kind {kind!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    cache = cache or TreeCache(net)
    n = net.node_count
    tasks: list[Task] = []
    used: set[tuple[int, int]] = set()
    attempts = max(1000, 200 * count)
    while len(tasks) < count:
        if attempts <= 0:
            raise GenerationError(
                f"could not sample {count} distinct connected pairs "
                f"({len(tasks)} found)")
        attempts -= 1
        s = int(rng.integers(0, n))
        t = int(rng.integers(0, n))
        if s == t or (s, t) in used:
            continue
        min_delay = cache.get(t).min_delay_to_target[s]
        if min_delay == float("inf"):
            continue
        used.add((s, t))
        if kind == "drcr":
            d_low = ceil(float(rng.uniform(0.6, 3.5)) * min_delay)
            d_up = d_low + ceil(float(rng.uniform(0.05, 0.4)) * min_delay)
            tasks.append(DrcrTask(s, t, d_low, d_up))
        else:
            d_up = ceil(float(rng.uniform(1.2, 2.0)) * min_delay)
            d_diff = int(rng.integers(ceil(0.1 * d_up), int(0.5 * d_up) + 1))
            tasks.append(SrlgTask(s, t, 0, d_up, d_diff))
    return tasks


FEASIBLE = "feasible"
AVOIDABLE = "avoidable"
UNAVOIDABLE = "unavoidable"
UNKNOWN = "unknown"


def filter_tasks(net: Network, tasks: list[Task], kind: str, *,
                 cache: TreeCache | None = None,
                 btcs_cfg: BtcsConfig = BtcsConfig(),
                 time_limit_ms: float | None = None
                 ) -> tuple[list[Task], list[str]]:
    """Keep the evaluation-worthy tasks, with a label per kept task.

    drcr: keeps tasks that have a feasible path at all (label ``feasible``),
    decided by the first-feasible search: it walks in the optimal search's
    order with no cost limit and stops at the first in-window path, so it
    never does more work than the optimal search would.
    srlg: keeps only traps -- the cheapest feasible AP has no protection --
    labelled ``avoidable`` or ``unavoidable`` by whether the corridor solver
    finds a pair.  One ``solve_btcs`` run per task decides it: a task with
    no AP (no candidate checked and no cut) or whose stage-1 AP is
    protected (a pair with no corridor explored) is dropped.  When the
    cut test settles a task before any AP search, one first-feasible
    search decides whether an AP exists: the task is kept as
    ``unavoidable`` if one does and dropped otherwise.
    Each task gets its own deadline, ``time_limit_ms`` from the start of
    its searches (None for none; zero or less is a deadline already
    passed).  Either kind keeps a task labelled ``unknown`` when its
    deadline ends its searches before a verdict, and srlg also when the
    ``btcs_cfg`` corridor cap does.  Raises IntegrityError when a task
    node is not a node of ``net``.
    """
    if kind not in ("drcr", "srlg"):
        raise ValueError(f"unknown task kind {kind!r}")
    cache = cache or TreeCache(net)
    srlg = kind == "srlg"
    noun = "disjoint-pair" if srlg else "single-path"
    kept: list[Task] = []
    labels: list[str] = []
    for task in tasks:
        if isinstance(task, SrlgTask) != srlg:
            raise ValueError(f"expected {noun} tasks, got {task!r}")
        check_task_nodes(net, task)
        trees = cache.get(task.target)
        control = SearchControl.from_time_limit_ms(time_limit_ms)
        try:
            if srlg:
                label = _trap_label(net, trees, task, btcs_cfg, control)
            else:
                found = pulse_first_feasible(net, trees, task, control=control)
                label = None if found is None else FEASIBLE
        except SearchInterrupted:
            label = UNKNOWN
        if label is not None:
            kept.append(task)
            labels.append(label)
    return kept, labels


def _trap_label(net: Network, trees: ReverseTrees, task: SrlgTask,
                cfg: BtcsConfig, control: SearchControl) -> str | None:
    """The srlg label of ``filter_tasks``, or None to drop the task."""
    _, report = solve_btcs(net, trees, task, cfg, control=control)
    if report.outcome == INFEASIBLE and not report.ap_candidates_checked:
        if report.srlg_cut is None:
            return None  # no active path at all
        # the cut test settled it before any AP search
        ap = pulse_first_feasible(net, trees, task, control=control)
        return None if ap is None else UNAVOIDABLE
    if report.outcome == PAIR:
        # stage 1 protected its active path: no trap
        return AVOIDABLE if report.corridors_explored else None
    return UNAVOIDABLE if report.outcome == INFEASIBLE else UNKNOWN
