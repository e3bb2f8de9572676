"""In-memory span recorder, self-time computation and chroma instrumentation.

A span records a name, wall start and end, the thread CPU time spent
between them, its parent span and whether an exception left through it.
The current span lives in a context variable; ``context_thread_pool``
makes ``concurrent.futures.ThreadPoolExecutor`` copy that context into
its workers, so spans opened in pool threads keep their parent.

Self time is a span's duration minus the part of its interval covered by
its children.  Children running in parallel threads may overlap, so the
covered part is the length of the union of their intervals.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "cpu", "error", "attrs")

    def __init__(self, id, parent, name, start, end=0.0, cpu=0.0, error=None, attrs=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.cpu = cpu
        self.error = error      # id() of the exception that left the span
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.cpu,
                self.error is not None, self.attrs]


class SpanRecorder:
    """Collects spans in memory; ``spans`` holds them in completion order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"span-{id(self)}", default=None)

    @contextmanager
    def span(self, name: str):
        span = Span(next(self._ids), self._current.get(), name, time.perf_counter())
        token = self._current.set(span.id)
        cpu0 = time.thread_time()
        try:
            yield span
        except BaseException as exc:
            span.error = id(exc)
            raise
        finally:
            span.cpu = time.thread_time() - cpu0
            span.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(span)

    def wrap(self, name: str, fn, probe=None):
        """Return ``fn`` recording one span per call; ``probe`` sets attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return {s.id: s.duration - _covered(children[s.id]) for s in spans}


@contextmanager
def context_thread_pool():
    """Make new ThreadPoolExecutors run each task in the submitter's context."""

    base = concurrent.futures.ThreadPoolExecutor

    class ContextThreadPoolExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            ctx = contextvars.copy_context()
            return super().submit(ctx.run, fn, *args, **kwargs)

    concurrent.futures.ThreadPoolExecutor = ContextThreadPoolExecutor
    try:
        yield
    finally:
        concurrent.futures.ThreadPoolExecutor = base


@contextmanager
def instrument(recorder: SpanRecorder, targets: dict[str, list[str]],
               probes: dict | None = None, package: str = "chroma"):
    """Wrap each target function in every ``package`` module that binds it.

    ``targets`` maps a defining module (``"lattice"``) to function names.
    A name copied by ``from .lattice import f`` is replaced in the
    importing module too; the originals are restored on exit.
    """
    probes = probes or {}
    wrappers = {}
    for mod_name, names in targets.items():
        module = sys.modules[f"{package}.{mod_name}"]
        for fn_name in names:
            original = getattr(module, fn_name)
            span_name = f"{mod_name}.{fn_name}"
            wrappers[id(original)] = (original, recorder.wrap(
                span_name, original, probes.get(span_name)))
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
