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

from .btcs import DisjointPair, try_protect
from .network import DrcrTask, NetLike, Network, Path, SrlgTask, as_view
from .pulse import (INF, CostCorridor, SearchControl, SearchInterrupted,
                    build_search_order, count_paths_capped,
                    scan_corridor_paths)
from .trees import build_reverse_trees

DEFAULT_PATH_CAP = 10 ** 8


class OracleTooLargeError(RuntimeError):
    """The instance has more elementary paths than the oracle may enumerate."""


def enumerate_paths(net: NetLike, s: int, t: int, limit: int = 200_000) -> list[Path]:
    """Every elementary s->t path, by exhaustive DFS.

    Raises OracleTooLargeError beyond ``limit`` paths: ground truth must be
    total, so the caller has to shrink the instance instead.
    """
    view = as_view(net)
    base = view.net
    excluded = view.excluded
    edges = base.edges
    adjacency = base.adjacency
    found: list[Path] = []

    on_path = bytearray(base.node_count)
    on_path[s] = 1
    path: list[int] = []

    def walk(u: int) -> None:
        for eid in adjacency[u]:
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
            walk(v)
            path.pop()
            on_path[v] = 0

    if s != t:
        walk(s)
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
        occupied = [b for bins in self.series.values() for b in bins]
        if occupied:
            lo, hi = min(occupied), max(occupied)
            for b in range(lo, hi + self.bin_width, self.bin_width):
                row = ",".join(str(self.series[n].get(b, 0)) for n in names)
                f.write(f"{b},{row}\n")
        f.write(f"# truncated={'true' if self.truncated else 'false'}\n")


def _relaxed(task: DrcrTask) -> DrcrTask:
    return DrcrTask(task.source, task.target, 0, INF)


def _upper_only(task: DrcrTask) -> DrcrTask:
    return DrcrTask(task.source, task.target, 0, task.d_up)


def build_histogram(net: Network, task: DrcrTask | SrlgTask, bin_width: int,
                    cap: int = DEFAULT_PATH_CAP, *,
                    cost_ceiling: int | None = None,
                    include_all: bool = True,
                    control: SearchControl | None = None) -> Histogram:
    """Cost distribution of the task's search space.

    Single-path tasks get the ``all`` / ``feasible_up`` / ``feasible``
    series; disjoint-pair tasks get ``all`` / ``feasible`` / ``protected``,
    where protected membership is decided by ``try_protect`` (exhaustive
    unless a protection exists).  ``include_all=False`` skips the unpruned
    all-paths count, which dominates the runtime on anything nontrivial.
    Each series is capped at ``cap`` counted paths; hitting any cap sets
    the truncated flag.  A deadline or stop event in ``control`` ends the
    sweep the same way: every bin completed before it is kept, the bin cut
    short is dropped, every series not yet begun stays empty, and the
    truncated flag is set.  Every sweep jumps from a bin to the bin of its
    walk's floor, past bins proved empty, and stops at a floor of inf or
    past ``cost_ceiling``.  Raises ValueError when ``bin_width`` or ``cap``
    is below 1.
    """
    if bin_width < 1:
        raise ValueError(f"bin width must be >= 1, got {bin_width}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    is_pair_task = isinstance(task, SrlgTask)
    base_task = task.base if is_pair_task else task
    trees = build_reverse_trees(net, base_task.target)
    order = build_search_order(net, trees)

    hist = Histogram(bin_width=bin_width)
    truncated = False

    def swept(bins_task: DrcrTask) -> dict[int, int]:
        nonlocal truncated
        bins, hit = count_paths_capped(net, trees, bins_task, bin_width, cap,
                                       cost_ceiling=cost_ceiling, order=order,
                                       control=control)
        truncated = truncated or hit
        return bins

    if include_all:
        hist.series["all"] = swept(_relaxed(base_task))

    if is_pair_task:
        feasible: dict[int, int] = {}
        protected: dict[int, int] = {}
        # a candidate that fails on connectivity spends no pulse, so the
        # engine would never poll through a long run of them
        poll_every = control.poll_every if control is not None else 0
        total = 0
        b = 0
        while cost_ceiling is None or b <= cost_ceiling:
            try:
                if control is not None:
                    control.poll()
                # one path past the cap tells a full bin from a cut one
                remaining = cap - total
                candidates, floor = scan_corridor_paths(
                    net, trees, base_task, CostCorridor(b, b + bin_width),
                    cap=remaining + 1, order=order, control=control)
                if len(candidates) > remaining:
                    candidates = candidates[:remaining]
                    truncated = True
                hits = 0
                for checked, ap in enumerate(candidates, 1):
                    if poll_every and checked % poll_every == 0:
                        control.poll()
                    hits += try_protect(net, trees, task, ap, order=order,
                                        control=control) is not None
            except SearchInterrupted:
                truncated = True
                break
            if candidates:
                feasible[b] = len(candidates)
                total += len(candidates)
                if hits:
                    protected[b] = hits
            if truncated or floor == INF:
                break
            b = floor - floor % bin_width
        hist.series["feasible"] = feasible
        hist.series["protected"] = protected
    else:
        if base_task.d_low > 0:
            hist.series["feasible_up"] = swept(_upper_only(base_task))
        hist.series["feasible"] = swept(base_task)

    hist.truncated = truncated
    return hist
