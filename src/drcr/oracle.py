"""Brute-force ground truth and cost-distribution analysis.

The enumeration here is deliberately independent of the pulse engine: a
plain visited-set DFS with no bounds and no prunings.  It is the reference
the engines are checked against, so it refuses instances it cannot
enumerate completely rather than silently truncating.

``build_histogram`` is the distribution tool: per-cost-bin counts of all
paths, of the window-feasible ones, and (for disjoint-pair tasks) of the
feasible candidates that also have a protection path.  Counting sweeps the
bins in ascending cost order, so a hit cap chops off only the expensive
right-hand side of the distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

from .btcs import DisjointPair, protect_candidates
from .network import (DrcrTask, NetLike, Network, Path, SrlgTask, as_view,
                      check_task_nodes)
from .pulse import (INF, UNLIMITED, SearchControl, build_search_order,
                    count_paths_capped, scan_corridor_paths, sweep_bins)
from .trees import build_reverse_trees

DEFAULT_PATH_CAP = 10 ** 8


class OracleTooLargeError(RuntimeError):
    """The instance has more elementary paths than the oracle may enumerate."""


def enumerate_paths(net: NetLike, s: int, t: int, limit: int = 200_000) -> list[Path]:
    """Every elementary s->t path, by exhaustive DFS on an explicit stack
    (one egress-edge iterator per node on the path), so at any path length.

    Raises OracleTooLargeError beyond ``limit`` paths: ground truth must be
    total, so the caller has to shrink the instance instead.
    """
    view = as_view(net)
    base = view.net
    excluded = view.excluded
    edges = base.edges
    adjacency = base.adjacency
    found: list[Path] = []
    if s == t:
        return found

    on_path = bytearray(base.node_count)
    on_path[s] = 1
    path: list[int] = []
    stack = [iter(adjacency[s])]
    while stack:
        for eid in stack[-1]:
            if eid in excluded:
                continue
            v = edges[eid].dst
            if v == t:
                if len(found) >= limit:
                    raise OracleTooLargeError(
                        f"more than {limit} elementary paths from {s} to {t}")
                path.append(eid)
                found.append(base.path(path))
                path.pop()
                continue
            if on_path[v]:
                continue
            on_path[v] = 1
            path.append(eid)
            stack.append(iter(adjacency[v]))
            break
        else:
            # every egress edge of the path's last node is done: step back
            stack.pop()
            if path:
                on_path[edges[path.pop()].dst] = 0
    return found


def oracle_drcr(net: NetLike, task: DrcrTask,
                limit: int = 200_000) -> tuple[int, Path] | None:
    """Minimum cost over the exhaustive enumeration, window-filtered."""
    best: Path | None = None
    for p in enumerate_paths(net, task.source, task.target, limit):
        if task.d_low <= p.total_delay <= task.d_up:
            if best is None or (p.total_cost, p.edges) < (best.total_cost, best.edges):
                best = p
    if best is None:
        return None
    return best.total_cost, best


def oracle_minmin(net: Network, task: SrlgTask,
                  limit: int = 200_000) -> tuple[int, DisjointPair] | None:
    """Exhaustive min-min optimum: cheapest feasible AP owning any valid PP.

    Candidates ascend by (cost, edge sequence); for each, every feasible
    path is checked as a protection: SRLG-disjoint, edge-disjoint, inside
    the window and within d_diff of the AP delay.
    """
    paths = enumerate_paths(net, task.source, task.target, limit)
    feasible = sorted(
        (p for p in paths if task.d_low <= p.total_delay <= task.d_up),
        key=lambda p: (p.total_cost, p.edges))
    edge_srlgs = net.edge_srlgs
    for ap in feasible:
        ap_edges = set(ap.edges)
        ap_groups = set()
        for eid in ap.edges:
            ap_groups.update(edge_srlgs[eid])
        for pp in feasible:
            if abs(ap.total_delay - pp.total_delay) > task.d_diff:
                continue
            if ap_edges.intersection(pp.edges):
                continue
            if any(edge_srlgs[eid] & ap_groups for eid in pp.edges):
                continue
            return ap.total_cost, DisjointPair(ap, pp)
    return None


@dataclass
class Histogram:
    """Named per-cost-bin path counts sharing one binning.

    Series keys, in column order: ``all`` (delay relaxed), ``feasible_up``
    (upper delay bound only; single-path tasks with a nonzero lower bound),
    ``feasible`` (full window) and ``protected`` (feasible with a valid
    protection path; disjoint-pair tasks).  Bins are half-open
    [b, b + bin_width) keyed by b, starting at 0; zero bins are omitted.
    """

    bin_width: int
    series: dict[str, dict[int, int]] = field(default_factory=dict)
    truncated: bool = False

    def to_csv(self, f: IO[str]) -> None:
        names = list(self.series)
        f.write("bin_low," + ",".join(names) + "\n")
        occupied = sorted({b for bins in self.series.values() for b in bins})
        for b in occupied:
            row = ",".join(str(self.series[n].get(b, 0)) for n in names)
            f.write(f"{b},{row}\n")
        f.write(f"# truncated={'true' if self.truncated else 'false'}\n")


def _relaxed(task: DrcrTask) -> DrcrTask:
    return DrcrTask(task.source, task.target, 0, INF)


def _upper_only(task: DrcrTask) -> DrcrTask:
    return DrcrTask(task.source, task.target, 0, task.d_up)


def build_histogram(net: Network, task: DrcrTask, bin_width: int,
                    cap: int = DEFAULT_PATH_CAP, *,
                    cost_ceiling: int | None = None,
                    include_all: bool = True,
                    control: SearchControl = UNLIMITED) -> Histogram:
    """Cost distribution of the task's search space.

    Single-path tasks get the ``all`` / ``feasible_up`` / ``feasible``
    series; disjoint-pair tasks get ``all`` / ``feasible`` / ``protected``,
    where protected membership is decided by ``try_protect`` (exhaustive
    unless a protection exists).  ``include_all=False`` skips the unpruned
    all-paths count, which dominates the runtime on anything nontrivial.
    Each series is one ``sweep_bins`` sweep under ``cap``, ``cost_ceiling``
    and ``control``; ``protected`` is tallied in the sweep of the AP
    candidates that ``feasible`` counts.  The truncated flag is set when
    any sweep was cut short, and a series not yet begun when ``control``
    ends the sweeps stays empty.  Raises IntegrityError when a task node is
    not a node of ``net``.
    """
    check_task_nodes(net, task)
    trees = build_reverse_trees(net, task.target)
    order = build_search_order(net, trees)
    hist = Histogram(bin_width=bin_width)

    def swept(bins_task: DrcrTask) -> dict[int, int]:
        bins, hit = count_paths_capped(net, trees, bins_task, bin_width, cap,
                                       cost_ceiling=cost_ceiling, order=order,
                                       control=control)
        hist.truncated = hist.truncated or hit
        return bins

    if include_all:
        hist.series["all"] = swept(_relaxed(task))

    if isinstance(task, SrlgTask):
        protected: dict[int, int] = {}

        def protect_bin(lo: int, hi: int, left: int) -> tuple[int, float]:
            candidates, floor = scan_corridor_paths(
                net, trees, task, lo, hi, cap=left, order=order,
                control=control)
            hits = sum(pp is not None for _, pp in protect_candidates(
                net, trees, task, candidates, order=order, control=control))
            if hits:
                protected[lo] = hits
            return len(candidates), floor

        hist.series["feasible"], hit = sweep_bins(
            bin_width, cap, protect_bin, cost_ceiling=cost_ceiling,
            control=control)
        hist.truncated = hist.truncated or hit
        hist.series["protected"] = protected
    else:
        if task.d_low > 0:
            hist.series["feasible_up"] = swept(_upper_only(task))
        hist.series["feasible"] = swept(task)
    return hist
