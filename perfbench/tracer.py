"""In-memory span recorder that wraps functions from outside the program.

A span is ``[name, parent, start, end, size, key]``: ``parent`` is the
enclosing span on the same thread (or None), times are ``perf_counter``
seconds, ``size`` counts the work the call did (records, bytes, blocks) and
``key`` identifies what it worked on (a block id).  Spans stay in memory
until the run ends; ``write`` then dumps them as tab-separated lines.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

NAME, PARENT, START, END, SIZE, KEY = range(6)

# size/key callbacks receive (args, kwargs, result) of the wrapped call.
Measure = Callable[[tuple, dict, Any], int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str, key: int = 0):
        stack = self._stack()
        span = [name, stack[-1] if stack else None, time.perf_counter(), 0.0, 0, key]
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span[END] = time.perf_counter()

    def _traced(self, fn, name: str, size: Measure | None, key: Measure | None):
        # Same bookkeeping as span(), inlined: this runs around every HKDF,
        # and a context manager would double the tracing overhead.
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, stack[-1] if stack else None, clock(), 0.0, 0, 0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if size is not None:
                span[SIZE] = size(args, kwargs, result)
            if key is not None:
                span[KEY] = key(args, kwargs, result)
            return result

        return traced

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        size: Measure | None = None,
        key: Measure | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a module global or class attribute)."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self._traced(raw.__func__, name, size, key))
        else:
            replacement = self._traced(raw, name, size, key)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        """Dump every span, one per line, times in microseconds from the first."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\tsize\tkey\n")
            for i, s in enumerate(self.spans):
                parent = ids[id(s[PARENT])] if s[PARENT] is not None else -1
                fh.write(
                    f"{i}\t{parent}\t{s[NAME]}\t{(s[START] - t0) * 1e6:.3f}\t"
                    f"{(s[END] - t0) * 1e6:.3f}\t{s[SIZE]}\t{s[KEY]}\n"
                )


def duration(span: list) -> float:
    return span[END] - span[START]


def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the time its children cover, keyed by id(span).

    Children of one span run on its thread, one after another, so their
    durations add up to the part of the parent's interval they cover.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            covered[id(s[PARENT])] = covered.get(id(s[PARENT]), 0.0) + duration(s)
    return {id(s): duration(s) - covered.get(id(s), 0.0) for s in spans}
