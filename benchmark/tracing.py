"""Span tracing for the traced benchmark run, from outside the package.

Timing wrappers replace the module attributes that callers look up at call
time (``drcr.btcs.try_protect``, ``drcr.btbu.pulse_optimal`` ...), so no
file under ``src/`` changes and an edit to ``drcr.bench`` cannot move the
ruler.  Each call records a span: name, start, end, parent span, solve id
and one observed number.  Spans stay in memory and are written out at the
end.  A span's self time is its duration minus the time its child spans
cover; the run is single-threaded, so children never overlap.

Wrappers are installed only around the timed solves: set-up, where
``filter_tasks`` calls into ``drcr.btcs``, runs untraced, so no set-up span
mixes with solve spans.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute, span name, what to keep from the return value)
TARGETS = (
    ("drcr.trees", "build_reverse_trees", "trees.build", None),
    ("drcr.pulse", "build_search_order", "pulse.order", None),
    ("drcr.pulse", "pulse_optimal", "pulse.optimal", None),
    ("drcr.btbu", "solve_btbu", "btbu.solve", None),
    ("drcr.btbu", "pulse_optimal", "pulse.optimal", None),
    ("drcr.btcs", "solve_btcs", "btcs.solve", None),
    ("drcr.btcs", "build_search_order", "pulse.order", None),
    ("drcr.btcs", "pulse_optimal", "pulse.optimal", None),
    ("drcr.btcs", "scan_corridor_paths", "pulse.corridor", lambda r: len(r[0])),
    ("drcr.btcs", "try_protect", "btcs.protect", lambda r: r is not None),
    ("drcr.btcs", "remove_conflicting_edges", "network.strip", None),
    ("drcr.btcs", "is_connected", "network.connectivity", lambda r: not r),
    ("drcr.btcs", "pulse_first_feasible", "pulse.first_feasible", None),
)

ROOT = "solve"

# span fields
NAME, START, END, PARENT, SOLVE, VALUE = range(6)


class Tracer:
    """Collects spans; ``install``/``uninstall`` swap the wrappers in and out."""

    def __init__(self):
        self.spans: list[list] = []
        self.solve_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.solve_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if observe is not None:
                span[VALUE] = observe(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, observe in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, observe))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, solve, value in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "solve": solve,
                                    "value": value}) + "\n")


class Totals:
    """Per-name sums over spans: calls, inclusive and self seconds, values."""

    def __init__(self, spans: list[list]):
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.values: dict[str, list] = {}
        for span, children in zip(spans, child_s):
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
            if span[VALUE] is not None:
                self.values.setdefault(name, []).append(span[VALUE])
        # stage-1 protection: the first try_protect of every btcs solve
        self.stage1_protects = len({span[SOLVE] for span in spans
                                    if span[NAME] == "btcs.protect"})

    def self_ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1000

    def total_ms(self, name: str) -> float:
        return self.total_s.get(name, 0.0) * 1000

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def value_sum(self, name: str) -> int:
        return sum(self.values.get(name, ()))

    def value_max(self, name: str) -> int:
        return max(self.values.get(name, ()), default=0)
