"""Structured tracing: ring-buffered probe events with cost timestamps.

Probe points throughout the translator/runtime call
``tracer.emit(name, **args)`` guarded by ``if tracer.enabled:``.  The
disabled path is the :data:`NULL_TRACER` singleton whose ``enabled``
attribute is ``False``, so a probe site costs one attribute load and a
branch — it never allocates, never charges modelled host cost, and
leaves every cost counter bit-identical to a build without probes.

Timestamps are the machine's two monotonic clocks: the modelled host
cost (``host.cost``, the paper's dynamic host-instruction metric) and
the guest instruction count.  Both are deterministic, so traces from
the same workload/seed are reproducible byte-for-byte.

Event name convention is ``<subsystem>.<action>`` — e.g. ``tb.enter``,
``sync.save``, ``mmu.slowpath``, ``ladder.demote``.  The full probe
catalogue is documented in ``docs/internals.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, NamedTuple, Tuple

#: How many trailing events the flight recorder attaches to a
#: ``ReproError`` diagnostic context (see ``Machine.diag_context``).
FLIGHT_RECORDER_EVENTS = 32

#: Default ring-buffer capacity (events, not bytes).
DEFAULT_CAPACITY = 65536


class TraceEvent(NamedTuple):
    """One probe firing.

    ``ts`` is the modelled host cost at emit time (the trace's time
    axis), ``icount`` the guest instruction count, ``name`` the probe
    name and ``args`` a tuple of ``(key, value)`` pairs.
    """

    ts: float
    icount: int
    name: str
    args: Tuple[Tuple[str, object], ...]

    def arg(self, key: str, default=None):
        for name, value in self.args:
            if name == key:
                return value
        return default

    def __str__(self) -> str:
        rendered = " ".join(f"{key}={value}" for key, value in self.args)
        return (f"[cost={self.ts:.0f} ic={self.icount}] "
                f"{self.name} {rendered}".rstrip())


class NullTracer:
    """The disabled tracer.  ``enabled`` is False; everything is a no-op.

    Probe sites must check ``tracer.enabled`` before building event
    arguments, so with the null tracer no argument dict is ever
    constructed.  The no-op methods exist only as a safety net for
    unguarded calls.
    """

    enabled = False

    def emit(self, name: str, **args) -> None:  # pragma: no cover - guard
        pass

    def events(self) -> Tuple[TraceEvent, ...]:
        return ()

    def tail(self, count: int = FLIGHT_RECORDER_EVENTS) \
            -> Tuple[TraceEvent, ...]:
        return ()

    def stats(self) -> Dict[str, float]:
        return {}


#: Shared disabled singleton — the default ``Machine.tracer``.
NULL_TRACER = NullTracer()


class Tracer:
    """Ring-buffered structured tracer.

    The buffer is a bounded deque: when full, the oldest events are
    dropped (counted in ``dropped``) so long runs keep the most recent
    window — the behaviour a flight recorder wants.  ``set_clock`` binds
    the owning machine's ``(host_cost, guest_icount)`` sampler; until a
    machine adopts the tracer, events are stamped at time zero.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.emitted = 0
        self.dropped = 0
        self._clock: Callable[[], Tuple[float, int]] = lambda: (0.0, 0)

    def set_clock(self, clock: Callable[[], Tuple[float, int]]) -> None:
        self._clock = clock

    def emit(self, name: str, **args) -> None:
        ts, icount = self._clock()
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self.emitted += 1
        self._ring.append(TraceEvent(ts, icount, name,
                                     tuple(args.items())))

    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._ring)

    def tail(self, count: int = FLIGHT_RECORDER_EVENTS) \
            -> Tuple[TraceEvent, ...]:
        if count <= 0:
            return ()
        return tuple(self._ring)[-count:]

    def counts_by_name(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._ring:
            counts[event.name] = counts.get(event.name, 0) + 1
        return counts

    def stats(self) -> Dict[str, float]:
        return {
            "events": float(self.emitted),
            "dropped": float(self.dropped),
            "buffered": float(len(self._ring)),
        }
