"""Span-recording wrappers installed on distgeo from outside, and layer metrics.

The wrappers replace every public function (and public method of a public
class) of the traced modules, under every name a distgeo module bound it
to: ``from .embedding import classify_edm`` leaves a second reference in
``semimetric`` that patching ``embedding`` alone would miss.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = ("matrices", "simplex", "embedding", "semimetric", "sphere", "cli")
QUERY_SPAN = "bench.query"


class Tracer:
    """Spans in flat arrays: a span is an index into parent, query, name,
    start and end.  Arrays of numbers hold no Python objects, so a long
    trace adds nothing to the garbage collector's work."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.query_of = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end_time = array("d")
        self.stack: list[int] = []
        self.query = -1
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query_of.append(self.query)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.end_time.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.end_time[sid] = perf_counter()
        self.stack.pop()

    def spans(self):
        """(span id, parent id or -1, query id, name, start, end) tuples."""
        for sid in range(len(self.start)):
            yield (
                sid,
                self.parent[sid],
                self.query_of[sid],
                self.names[self.name[sid]],
                self.start[sid],
                self.end_time[sid],
            )

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(sid)

        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> int:
        """Wrap the public callables of LAYER_MODULES; returns names patched."""
        originals = {}
        for short in LAYER_MODULES:
            mod = sys.modules.get(f"distgeo.{short}")
            if mod is None:
                continue
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[obj] = f"{short}.{name}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patches.append((obj, attr, member))
                            setattr(obj, attr, self.wrap(f"{short}.{name}.{attr}", member))
        wrappers = {fn: self.wrap(label, fn) for fn, label in originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "distgeo" or mod_name.startswith("distgeo.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return len(self._patches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, inclusive and self seconds, plus nesting counts.

    Self time is a span's duration minus the durations of its direct
    children.  ``inside[(name, ancestor)]`` counts spans of ``name`` that
    run anywhere below a span of ``ancestor``.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)
    ancestors: list[frozenset] = []
    inside = defaultdict(int)
    spans = list(tracer.spans())
    for sid, parent, _query, name, t0, t1 in spans:
        dur = t1 - t0
        calls[name] += 1
        total[name] += dur
        if parent >= 0:
            child[parent] += dur
            above = ancestors[parent] | {spans[parent][3]}
        else:
            above = frozenset()
        ancestors.append(above)
        for anc in above:
            inside[(name, anc)] += 1
    self_s = defaultdict(float)
    for sid, _parent, _query, name, t0, t1 in spans:
        self_s[name] += (t1 - t0) - child[sid]
    return {"calls": calls, "total": total, "self": self_s, "inside": inside}


def median_time(fn, budget_s: float, max_reps: int) -> float:
    """Median seconds per call over repeats, within a time budget (>= 1 call)."""
    times = []
    spent = 0.0
    while len(times) < max_reps and (not times or spent < budget_s):
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        times.append(dt)
        spent += dt
    times.sort()
    return times[len(times) // 2]
