"""In-memory spans recorded from the benchmark's own files.

Each span is ``(name, start, end, parent, op)``: the layer call it wraps,
perf-counter start and end, the index of the enclosing span (or -1) and the
operation id that caused it. Spans stay in memory while the benchmark runs
and are written out once at the end. The benchmark wraps calls *into* each
layer's public functions; it adds no span inside the program.

A disabled tracer (the end-to-end runs) records nothing. Spans may be
opened from several threads; each thread keeps its own parent stack.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

Span = Tuple[str, float, float, int, int]
T = TypeVar("T")


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.op = -1

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                (name, time.perf_counter(), 0.0, parent, self.op if op is None else op)
            )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            name_, start, _, parent_, op = self.spans[index]
            self.spans[index] = (name_, start, time.perf_counter(), parent_, op)

    def timed(self, name: str, call: Callable[[], T]) -> Tuple[T, float]:
        """Run *call* inside a span called *name*; return its value and the
        seconds it took (measured whether or not tracing is on)."""
        started = time.perf_counter()
        with self.span(name):
            value = call()
        return value, time.perf_counter() - started

    def last(self, name: str) -> int:
        """Index of the most recent span called *name*."""
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index][0] == name:
                return index
        raise KeyError(name)

    def child_time(self, index: int, name: str) -> float:
        """Summed duration of the direct children of span *index* called *name*."""
        return sum(
            end - start
            for span_name, start, end, parent, _ in self.spans
            if parent == index and span_name == name
        )

    def dump(self, path: str, meta: Optional[Dict[str, object]] = None) -> None:
        payload = {
            "meta": meta or {},
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
