"""Outside-in tracing of hatlab's public functions.

``Tracer.install()`` wraps every public function of the traced modules and
rebinds each wrapper wherever hatlab holds the original: in the defining
module and at every ``from ... import`` binding inside the package.  So a
call such as ``acceptance.verify_blocker`` or graph_core's own call to
``max_independent_set`` records a span.  References frozen inside tuples
or dicts (``acceptance.ALL_CHECKS``, ``cli.HANDLERS``) and generator
functions are not wrapped.

Spans live in flat arrays (parent, name, start, end) indexed by span id in
call order; ``-1`` marks a root.  ``save`` writes them out once the run is
over.  A span's self time is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

TRACED_MODULES = (
    "graph_core", "hitting_sets", "hat_game", "blockers", "random_subgraphs",
    "rng", "constructions", "cli", "acceptance",
)


class Spans:
    """Spans in call order: parent id, name id, start and end in seconds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, parent: int, name_id: int, start: float, end: float) -> int:
        """Append a finished span (synthetic trees and tests); returns its id."""
        self.parent.append(parent)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def self_times(self) -> array:
        """Per span: duration minus the union of its children's intervals.

        Children are visited in start order (span ids grow with start time),
        so a sweep per parent merges overlapping children and clips each to
        the parent's interval.
        """
        start, end, parent = self.start, self.end, self.parent
        covered = array("d", bytes(8 * len(start)))
        reach = array("d", start)  # per parent: end of the covered prefix so far
        for i in range(len(start)):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], reach[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
        return array("d", (end[i] - start[i] - covered[i] for i in range(len(start))))

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per name: calls, summed self time and summed inclusive time."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[i]
            row["total_s"] += self.end[i] - self.start[i]
        return out

    def save(self, stem: str) -> None:
        """Write ``<stem>.json`` (names, layout) and ``<stem>.bin`` (the arrays)."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.parent, self.name, self.start, self.end):
                arr.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self), "arrays": ["parent:q", "name:q", "start:d", "end:d"]}, fh)


def load_spans(stem: str) -> Spans:
    with open(stem + ".json") as fh:
        meta = json.load(fh)
    spans = Spans()
    for name in meta["names"]:
        spans.name_id(name)
    with open(stem + ".bin", "rb") as fh:
        for arr in (spans.parent, spans.name, spans.start, spans.end):
            arr.fromfile(fh, meta["count"])
    return spans


Hook = Callable[[tuple, dict, object, BaseException | None, dict], None]


class Tracer:
    """Records a span per call of a wrapped function, plus per-call counters.

    ``hooks`` maps "module.function" to a callable that receives the call's
    arguments, result (None on error), exception (or None) and ``counters``.
    """

    def __init__(self, hooks: dict[str, Hook] | None = None) -> None:
        self.spans = Spans()
        self.counters: dict[str, float] = defaultdict(float)
        self.hooks = hooks or {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, qualname: str, fn: Callable) -> Callable:
        nid = self.spans.name_id(qualname)
        stack = self._stack
        parent, name, start, end = self.spans.parent, self.spans.name, self.spans.start, self.spans.end
        hook = self.hooks.get(qualname)
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs, None, exc, counters)
                raise
            end[sid] = clock()
            stack.pop()
            if hook is not None:
                hook(args, kwargs, result, None, counters)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def span(self, qualname: str):
        """Record a span around a block of the benchmark's own code."""
        spans, stack = self.spans, self._stack
        sid = spans.add(stack[-1], spans.name_id(qualname), 0.0, 0.0)
        stack.append(sid)
        spans.start[sid] = time.perf_counter()
        try:
            yield
        finally:
            spans.end[sid] = time.perf_counter()
            stack.pop()

    def install(self, package: str = "hatlab") -> int:
        """Wrap the public functions of the traced modules; returns how many."""
        wrappers: dict[int, Callable] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return len(wrappers)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, obj = self._undo.pop()
            setattr(mod, attr, obj)

