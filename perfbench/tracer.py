"""Span tracing for the benchmark's traced run, done from outside the package.

Spans are recorded by replacing the names that callers look up at call time
(a module global such as ``grasppr.drivers.local_search``, or a class
attribute such as ``EliteSet.try_add``) with a timing wrapper. Nothing inside
``grasppr`` is edited. Because ``drivers`` looks ``local_search`` up in its
own namespace, in-path local search started from a relinking walk lands in a
``relink`` span as its child.

Spans stay in memory as flat lists and are turned into metrics when the run
ends. A span's self time is its duration minus the part of it covered by its
children. Neighbourhoods are generators consumed move by move, so a
``moves`` span runs from the first move to the scan's end and includes the
caller's per-move comparison.

A hook whose target no longer exists (say ``LopInstance.moves`` after a
refactor) is skipped and its metrics are left out; the run carries on.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

CALL = "call"
GENERATOR = "generator"
SHIP = "ship"  # a call that may run in a worker process; its spans travel back with the result


@dataclass(frozen=True)
class Hook:
    """One traced function: metric name, where callers find it, how it is called."""

    name: str
    module: str
    attr: str  # dotted path inside the module, e.g. "EliteSet.try_add"
    kind: str = CALL
    observe: Optional[Callable[["Tracer", tuple, object], None]] = None


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in the same list


@dataclass
class Shipped:
    """A worker's result plus the spans and counts it recorded."""

    result: object
    spans: list
    counts: Counter


class Tracer:
    """Spans and counts of one process; a forked worker starts from a copy."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # hook names none of whose targets exist
        self.pid = os.getpid()  # the process that owns the result
        self._stack: list[int] = []  # open spans, innermost last
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:
            self._stack.remove(index)

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span, i.e. the caller of the span being observed."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # -- installing hooks --------------------------------------------------

    def install(self, hooks: list[Hook]) -> None:
        """Wrap every hook's target; a name none of whose targets exist goes to `missing`."""
        installed = set()
        for hook in hooks:
            owner = importlib.import_module(hook.module)
            *path, leaf = hook.attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                continue
            setattr(owner, leaf, self._wrap(hook, original))
            self._undo.append((owner, leaf, original))
            installed.add(hook.name)
        self.missing = list(dict.fromkeys(h.name for h in hooks if h.name not in installed))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self
        if hook.kind == GENERATOR:

            def scan(gen):
                index = tracer.open(hook.name)
                try:
                    yield from gen
                finally:
                    tracer.close(index)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return scan(fn(*args, **kwargs))

            return wrapper

        def timed(args, kwargs):
            index = tracer.open(hook.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook.observe is not None:
                hook.observe(tracer, args, result)
            return result

        if hook.kind == SHIP:

            # functools.wraps keeps __module__/__qualname__, so a process pool
            # pickles the wrapper by name and a forked worker runs it too
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if os.getpid() == tracer.pid:
                    return timed(args, kwargs)
                tracer.reset()
                result = timed(args, kwargs)
                return Shipped(result, tracer.spans, tracer.counts)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(args, kwargs)

        return wrapper

    def receive(self, result):
        """Unpack a worker result, keeping the spans and counts it brought back."""
        if not isinstance(result, Shipped):
            return result
        offset = len(self.spans)  # worker parents index the worker's own list
        self.spans.extend([n, a, b, None if p is None else p + offset] for n, a, b, p in result.spans)
        self.counts.update(result.counts)
        return result.result

    def finished(self) -> list[Span]:
        return [Span(*s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [(s.end - s.start) - _union_length(children.get(i, []), s.start, s.end) for i, s in enumerate(spans)]


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
