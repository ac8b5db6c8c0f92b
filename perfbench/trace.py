"""In-memory span tracer that wraps a package's functions from outside.

A wrap replaces a function object under every name that refers to it:
module attributes (``compressor.total_loss`` and ``objective.total_loss``
are one function), dict values in a module namespace (a dispatch table
such as ``cli.COMMANDS``) and class attributes (a ``__call__`` method).
Every call then records a span with a name, start and end in
nanoseconds, the id of the enclosing span and the current iteration id.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    iteration: str


# observe(tracer, args, kwargs, result) runs after the span has closed
Observer = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.iteration = "setup"
        # (iteration, key, value) triples recorded by observers
        self.counts: list[tuple[str, str, float]] = []
        # latest value per key, for figures read off the last result
        self.latest: dict[str, object] = {}
        # spans whose observer could not read the call; their figures are missing
        self.unobserved: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, value: float) -> None:
        self.counts.append((self.iteration, key, float(value)))

    def _open(self) -> tuple[int, Optional[int], int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, self.clock()

    def _close(self, name: str, span_id: int, parent: Optional[int], start: int) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, self.iteration))

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, *opened)
            if observe is not None:
                # a changed signature or result type must not fail the call
                try:
                    observe(tracer, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, ValueError, OSError):
                    tracer.unobserved.add(name)
            return result

        return traced

    def install(self, modules, name: str, original: Callable,
                observe: Optional[Observer] = None) -> None:
        """Wrap ``original`` wherever ``modules`` refer to it."""
        wrapper = self.wrap(name, original, observe)
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(namespace, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapper)

    def install_method(self, cls: type, attr: str, name: str) -> None:
        self._set(cls, attr, self.wrap(name, vars(cls)[attr]))

    def _set(self, container, key, value) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time per span id: its duration minus the union of its children.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted
    twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, cursor)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.id] = (s.end_ns - s.start_ns) - covered
    return result
