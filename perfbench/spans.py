"""Span recording around the public functions of the ``permprob`` modules.

The benchmark wraps each public module-level function of each ``permprob``
module, and rebinds the wrapper in every module namespace that holds the
function, so a call from one layer into another through an imported name
becomes a child span.  Spans stay in memory, in compact arrays, until the run
writes them out.  A span's self time is its duration minus the durations of
its direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

PACKAGE = "permprob"

# Methods wrapped in addition to the module-level functions.
METHODS = ("output.CsvDoc.render",)


class SpanRecorder:
    """Spans of one pass: name, start, end, parent (index, -1 for a root)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[int, int] = defaultdict(int)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._active[nid] else 0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._active[self.name_id[idx]] -= 1

    def __len__(self) -> int:
        return len(self.start)


@dataclass
class SpanTotals:
    """Per-name aggregates of one recorder."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    inclusive: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_time: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))


def totals(rec: SpanRecorder) -> SpanTotals:
    """Calls, inclusive time (outermost span of a name only) and self time per name."""
    count = len(rec)
    child = [0.0] * count
    for i in range(count):
        p = rec.parent[i]
        if p >= 0:
            child[p] += rec.end[i] - rec.start[i]
    out = SpanTotals()
    for i in range(count):
        name = rec.names[rec.name_id[i]]
        dur = rec.end[i] - rec.start[i]
        out.calls[name] += 1
        if not rec.nested[i]:
            out.inclusive[name] += dur
        out.self_time[name] += dur - child[i]
    return out


def write_spans(path: str, passes: list[SpanRecorder]) -> None:
    """Write every span of every pass as gzip-compressed tab-separated lines."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
        for p, rec in enumerate(passes):
            names = rec.names
            fh.writelines(
                f"{p}\t{i}\t{rec.parent[i]}\t{names[rec.name_id[i]]}\t"
                f"{rec.start[i]:.9f}\t{rec.end[i]:.9f}\n"
                for i in range(len(rec))
            )


# Hooks that turn a wrapped call's result into counters: (recorder, result).
ResultHook = Callable[[SpanRecorder, Any], None]


def span_wrapper(
    rec: SpanRecorder, name: str, fn: Callable, hook: ResultHook | None = None
) -> Callable:
    nid = rec.name_index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, result)
        return result

    return wrapper


def peak_wrapper(peaks: list[float], fn: Callable) -> Callable:
    """Record the tracemalloc peak, in MiB, of each call into ``peaks``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    return wrapper


def package_modules() -> dict[str, Any]:
    """Loaded ``permprob`` modules by short name (``"permprob"`` for the package)."""
    mods = {}
    for full, mod in sys.modules.items():
        if mod is not None and (full == PACKAGE or full.startswith(PACKAGE + ".")):
            mods[full.split(".", 1)[1] if "." in full else full] = mod
    return mods


def public_functions() -> dict[str, Callable]:
    """Public functions and cached functions by ``module.name``, where defined.

    Generator functions are left out: a span around one would end when the
    generator is created, and its work belongs to the caller that iterates it.
    """
    found = {}
    for short, mod in package_modules().items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            fn = getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_clear") else obj
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                found[f"{short}.{attr}"] = obj
    return found


def cached_functions() -> list[Any]:
    """Every ``functools`` cache in the package, so a pass can start cold."""
    return [obj for obj in public_functions().values() if hasattr(obj, "cache_clear")]


@contextmanager
def instrumented(make: Callable[[str, Callable], Callable | None]) -> Iterator[None]:
    """Rebind ``make(name, fn)`` wherever ``fn`` is bound; restore on exit.

    ``make`` returns None to leave a function alone.
    """
    modules = list(package_modules().values())
    restore: list[tuple[Any, str, Any]] = []
    try:
        for name, fn in public_functions().items():
            new = make(name, fn)
            if new is None:
                continue
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        restore.append((mod, attr, obj))
                        setattr(mod, attr, new)
        mods = package_modules()
        for qual in METHODS:
            short, cls_name, meth = qual.rsplit(".", 2)
            cls = getattr(mods.get(short), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            new = make(qual, fn) if inspect.isfunction(fn) else None
            if new is not None:
                restore.append((cls, meth, fn))
                setattr(cls, meth, new)
        yield
    finally:
        for owner, attr, obj in reversed(restore):
            setattr(owner, attr, obj)
