"""Outside-in span tracer for the freeskew package.

The tracer wraps, from outside the package, every public function a
freeskew module defines and the ``__post_init__`` of every dataclass it
defines.  A function is rebound in every freeskew module namespace that
holds it, because ``from .x import y`` copies the binding.  Each call
becomes a span: its name, start, end and the span that was open when it
began.  Spans live in flat arrays in memory and are written out when the
run ends; self time is worked out from them afterwards.  ``restore``
puts every binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from collections import Counter
from operator import sub

# Functions whose spans also record the length of what they return.
RESULT_SIZES = frozenset({"tamari.enumerate_tamari"})


def package_modules(package: str = "freeskew") -> list:
    """The package and every module in it, imported."""
    root = importlib.import_module(package)
    names = [info.name for info in pkgutil.iter_modules(root.__path__, package + ".")]
    return [root] + [importlib.import_module(name) for name in sorted(names)]


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def traced_targets(modules) -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, span name) for every traced callable.

    Public functions count when the module defines them, lru-cached ones
    included; generator functions are skipped, since their work runs
    after they return.  Dataclasses contribute their ``__post_init__``.
    """
    targets = []
    for module in modules:
        layer = _layer(module.__name__)
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                post_init = vars(value).get("__post_init__")
                if post_init is not None:
                    targets.append((value, "__post_init__", post_init,
                                    f"{layer}.{attr}.__post_init__"))
            elif (inspect.isfunction(value) or hasattr(value, "cache_info")) \
                    and not inspect.isgeneratorfunction(inspect.unwrap(value)):
                targets.append((module, attr, value, f"{layer}.{attr}"))
    return targets


class Tracer:
    """Spans in flat arrays: name index, parent span (-1 at the root),
    start and end in nanoseconds of ``clock``."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.result_sizes: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its id."""
        sid = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(self.clock())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """fn, recording a span per call."""
        name_id = self.name_id(name)
        stack, clock = self._stack, self.clock
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        sizes = self.result_sizes if name in RESULT_SIZES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if sizes is not None:
                    sizes[name] += len(result)
                return result
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def install(self, modules) -> None:
        """Rebind every target in every module namespace that binds it."""
        targets = traced_targets(modules)
        wrappers = {id(orig): self.wrap(orig, name) for _, _, orig, name in targets}
        for owner, attr, orig, _ in targets:
            if inspect.isclass(owner):
                self._patch(owner, attr, wrappers[id(orig)])
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every binding install replaced."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        """One JSON header line (names, span count), then the four arrays."""
        with open(path, "wb") as out:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name:i", "parent:i", "start:q", "end:q"]}
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(out)


def read_trace(path):
    """Names and the four span arrays of a file written by Tracer.write."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        arrays = []
        for code in ("i", "i", "q", "q"):
            arr = array(code)
            arr.fromfile(src, header["spans"])
            arrays.append(arr)
    return header["names"], arrays


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest: a child starts and ends inside its parent and
    siblings do not overlap, so the children cover the sum of their
    durations.  A root span has parent -1.
    """
    duration = list(map(sub, end, start))
    covered = [0] * (len(duration) + 1)  # the last slot collects the roots
    for p, d in zip(parent, duration):
        covered[p] += d
    return list(map(sub, duration, covered))


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls and self seconds; calls per (name, parent name)."""
    names = tracer.names
    span_name = tracer.name.tolist()
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    self_ns = [0] * len(names)
    for nid, t in zip(span_name, selfs):
        self_ns[nid] += t
    calls = Counter(span_name)
    parent_name = span_name + [len(names)]  # a parent of -1 reads the last slot
    under = Counter(zip(span_name, (parent_name[p] for p in tracer.parent)))
    label = names + [""]
    return {
        "calls": {names[i]: n for i, n in calls.items()},
        "self_s": {names[i]: self_ns[i] / 1e9 for i in calls},
        "calls_under": {f"{label[a]}<{label[b]}": n for (a, b), n in under.items()},
        "result_sizes": dict(tracer.result_sizes),
        "spans": len(span_name),
    }


def cache_stats(modules) -> dict[str, dict[str, int]]:
    """Per layer: entries, hits and misses over every module attribute with
    cache_info(), each cache counted once, in the layer that defines it."""
    seen = set()
    stats: dict[str, dict[str, int]] = {}
    for module in modules:
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if info is None or id(value) in seen:
                continue
            seen.add(id(value))
            layer = _layer(getattr(value, "__module__", module.__name__))
            entry = stats.setdefault(layer, {"entries": 0, "hits": 0, "misses": 0})
            ci = info()
            entry["entries"] += ci.currsize
            entry["hits"] += ci.hits
            entry["misses"] += ci.misses
    return stats
