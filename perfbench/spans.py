"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: :meth:`Tracer.wrap`
replaces a bound method on a built object (``machine.run``,
``host.execute``, ...) with a timing wrapper.  Because Python looks up
instance attributes before class methods, calls the object makes on
itself (``self.translate(...)``) go through the wrapper too.

Each span records its name, start and end (``time.perf_counter``), its
parent span and the id of the program run it belongs to.  Boundaries
crossed hundreds of thousands of times per run (``advance_time``,
``on_tb_enter``) are *aggregated* instead: their call count and busy
time are added to the enclosing span, so the trace stays small and the
enclosing span's self time still excludes them.

A layer's self time is its span's duration minus the part of that
interval its children cover (child spans plus aggregated calls).
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Span:
    """One call across a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "run", "child_time",
                 "agg")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 run: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent            # index into Tracer.spans, or None
        self.run = run
        self.child_time = 0.0           # covered by direct children
        #: aggregated high-rate calls: name -> [count, busy_s, self_s]
        self.agg: Dict[str, List[float]] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans for every program run of a traced benchmark."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.run = -1
        self._stack: List[int] = []         # open span indices
        #: open aggregated calls: [start, time covered by nested ones]
        self._agg_stack: List[List[float]] = []

    # -- recording ---------------------------------------------------------

    def begin_run(self) -> int:
        """Start a new program run; returns its id."""
        self.run += 1
        return self.run

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent, self.run))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named *name*."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, obj, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Record a span around every call of ``obj.attr``.

        *on_result*, if given, is called with each return value (used
        to count the guest instructions a translation covered)."""
        inner = getattr(obj, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(obj, attr, wrapper)

    def wrap_aggregated(self, obj, attr: str, name: str) -> Callable:
        """Count and time every call of ``obj.attr`` into the enclosing
        span instead of recording a span per call.  Returns the wrapper
        (so one wrapper can be installed under several attributes).

        No span may open inside an aggregated call: the boundaries
        aggregated here call no wrapped layer."""
        inner = getattr(obj, attr)
        clock = self.clock
        stack = self._stack
        agg_stack = self._agg_stack
        spans = self.spans

        def wrapper(*args):
            frame = [clock(), 0.0]
            agg_stack.append(frame)
            try:
                return inner(*args)
            finally:
                busy = clock() - frame[0]
                agg_stack.pop()
                if agg_stack:
                    agg_stack[-1][1] += busy
                else:
                    spans[stack[-1]].child_time += busy
                entry = spans[stack[-1]].agg.get(name)
                if entry is None:
                    entry = spans[stack[-1]].agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += busy
                entry[2] += busy - frame[1]

        setattr(obj, attr, wrapper)
        return wrapper

    # -- reduction ---------------------------------------------------------

    def totals_by_run(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """Per program run, per layer name: ``calls``, ``busy`` (wall
        time inside the layer, recursion counted once) and ``self``
        (busy minus the time covered by children)."""
        out: Dict[int, Dict[str, Dict[str, float]]] = {}

        def entry(run: int, name: str) -> Dict[str, float]:
            layers = out.setdefault(run, {})
            found = layers.get(name)
            if found is None:
                found = layers[name] = {"calls": 0.0, "busy": 0.0,
                                        "self": 0.0}
            return found

        for span in self.spans:
            row = entry(span.run, span.name)
            row["calls"] += 1
            row["self"] += span.self_time
            if not self._has_ancestor(span, span.name):
                row["busy"] += span.duration
            for name, (count, busy, self_time) in span.agg.items():
                agg_row = entry(span.run, name)
                agg_row["calls"] += count
                agg_row["busy"] += busy
                agg_row["self"] += self_time
        return out

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor.name == name:
                return True
            parent = ancestor.parent
        return False

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span.name, "run": span.run,
                    "parent": span.parent, "start": span.start,
                    "end": span.end, "self": span.self_time,
                    "agg": span.agg}) + "\n")
