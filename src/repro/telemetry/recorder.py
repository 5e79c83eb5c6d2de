"""Span recorder: hierarchical timing with thread/process provenance.

:class:`Recorder` is the heart of :mod:`repro.telemetry`.  It hands out
:class:`Span` context managers that measure wall time and remember *where*
they ran (process id, thread id, thread name) and *under what* (the
enclosing span in the same thread), and it owns the
:class:`~repro.telemetry.metrics.MetricsRegistry` the counter/gauge/
histogram helpers write into.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  ``span()`` on a disabled
   recorder returns the shared :data:`NULL_SPAN` singleton — no object is
   created, no clock is read, no lock is taken.  Metric helpers return
   before touching the registry.  The differential suite asserts the
   disabled hot path performs zero telemetry allocations.
2. **Thread safety.**  Finished spans are appended under a lock; the
   nesting stack is thread-local, so concurrent workers each maintain
   their own parent chain and never parent across threads.
3. **Process-pool survival.**  A worker process drains its recorder with
   :meth:`Recorder.take` (a picklable payload) and ships it back with the
   task result; the parent calls :meth:`Recorder.merge`.  Span timestamps
   use the *wall* clock (``time.time_ns``), which is comparable across
   processes, while durations come from the monotonic ``perf_counter`` of
   the process that ran the span.

Clocks, process id and thread id are injectable so the exporter golden
tests can produce byte-stable output.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Callable

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["Recorder", "Span", "NullSpan", "NULL_SPAN"]


class NullSpan:
    """Shared no-op span returned by disabled recorders.

    Implements the full :class:`Span` surface (``with``, :meth:`set`,
    :attr:`duration`) so instrumented code never branches on whether
    telemetry is on.  A single module-level instance is reused for every
    call — the disabled path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key, value) -> "NullSpan":
        return self

    @property
    def duration(self) -> float:
        return 0.0


#: The singleton every disabled ``span()`` call returns.
NULL_SPAN = NullSpan()


class Span:
    """One timed region: a context manager that records itself on exit.

    Created by :meth:`Recorder.span` (records when the recorder is
    enabled) or :meth:`Recorder.timed_span` (always measures
    :attr:`duration`; records only when enabled — the harness uses this so
    experiment timings flow through one code path whether or not a trace
    is being captured).
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "duration",
        "_rec",
        "_t0",
        "_ts_us",
    )

    def __init__(self, rec: "Recorder | None", name: str, attrs: dict | None = None):
        self._rec = rec
        self.name = name
        self.attrs = dict(attrs) if attrs else None
        self.span_id = 0
        self.parent_id = 0
        self.duration = 0.0
        self._t0 = 0.0
        self._ts_us = 0

    def set(self, key: str, value) -> "Span":
        """Attach one attribute (chainable); values should be JSON-safe."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        rec = self._rec
        if rec is not None:
            self.span_id = next(rec._ids)
            stack = rec._stack()
            self.parent_id = stack[-1] if stack else 0
            stack.append(self.span_id)
            self._ts_us = rec._wall() // 1000
            self._t0 = rec._clock()
        else:
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        rec = self._rec
        if rec is not None:
            self.duration = rec._clock() - self._t0
            stack = rec._stack()
            if stack and stack[-1] == self.span_id:
                stack.pop()
            rec._record_span(self)
        else:
            self.duration = time.perf_counter() - self._t0
        return False


class Recorder:
    """Thread-safe span buffer + metrics registry with a global on/off bit.

    Parameters
    ----------
    enabled:
        Initial state; flip at runtime with :meth:`enable`/:meth:`disable`.
    clock / wall_clock:
        Monotonic duration clock (``time.perf_counter``) and epoch
        timestamp clock (``time.time_ns``).  Injectable for deterministic
        exporter tests.
    pid / tid:
        Provenance overrides for tests; default to the real
        ``os.getpid()`` / ``threading.get_ident()`` at record time (not at
        construction, so a recorder forked into a worker process stamps
        the *worker's* pid).
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] | None = None,
        wall_clock: Callable[[], int] | None = None,
        pid: int | None = None,
        tid: int | None = None,
    ) -> None:
        self.enabled = bool(enabled)
        self._clock = clock if clock is not None else time.perf_counter
        self._wall = wall_clock if wall_clock is not None else time.time_ns
        self._pid = pid
        self._tid = tid
        self._lock = threading.Lock()
        self._events: deque[dict] = deque()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.metrics = MetricsRegistry()

    # -- state ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop all buffered spans and reset every metric."""
        with self._lock:
            self._events.clear()
        self.metrics.clear()

    def keep_last(self, n: int | None) -> None:
        """Buffer only the ``n`` most recent spans (``None``: every span).

        Metrics are not affected: counters, gauges and histograms stay
        exact however many spans are dropped.
        """
        with self._lock:
            self._events = deque(self._events, maxlen=n)

    # -- spans ------------------------------------------------------------

    def span(self, name: str, attrs: dict | None = None):
        """A recording span, or :data:`NULL_SPAN` when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def timed_span(self, name: str, attrs: dict | None = None) -> Span:
        """A span that always measures ``duration``; records iff enabled."""
        return Span(self if self.enabled else None, name, attrs)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record_span(self, span: Span) -> None:
        event = {
            "type": "span",
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "pid": self._pid if self._pid is not None else os.getpid(),
            "tid": self._tid if self._tid is not None else threading.get_ident(),
            "thread": threading.current_thread().name,
            "ts_us": span._ts_us,
            "dur_us": span.duration * 1e6,
            "attrs": span.attrs or {},
        }
        with self._lock:
            self._events.append(event)

    # -- metrics ----------------------------------------------------------

    def counter(self, name: str, value: float = 1, labels: dict | None = None) -> None:
        """Add ``value`` to a monotonic counter (no-op when disabled)."""
        if self.enabled:
            self.metrics.counter_add(name, value, labels)

    def gauge(self, name: str, value: float, labels: dict | None = None) -> None:
        """Set a point-in-time gauge (no-op when disabled)."""
        if self.enabled:
            self.metrics.gauge_set(name, value, labels)

    def histogram(
        self,
        name: str,
        value: float,
        labels: dict | None = None,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        """Observe ``value`` into a fixed-bucket histogram (no-op when disabled)."""
        if self.enabled:
            self.metrics.histogram_observe(name, value, labels, buckets)

    # -- snapshots & cross-process transport -------------------------------

    def snapshot(self) -> dict:
        """Non-destructive copy of everything recorded so far.

        The returned ``{"events": [...], "metrics": {...}}`` dict is what
        every exporter in :mod:`repro.telemetry.export` consumes.
        """
        with self._lock:
            events = list(self._events)
        return {"events": events, "metrics": self.metrics.snapshot()}

    def take(self) -> dict:
        """Drain the buffer: snapshot, then reset spans and metrics.

        The payload is plain dicts/lists/scalars — picklable, so a
        process-pool worker can return it alongside each task result.
        """
        with self._lock:
            events = list(self._events)
            self._events.clear()
        metrics = self.metrics.snapshot()
        self.metrics.clear()
        return {"events": events, "metrics": metrics}

    def merge(self, payload: dict) -> None:
        """Fold a worker's :meth:`take` payload into this recorder.

        Spans are appended verbatim (their ``pid`` keeps them attributable
        and their wall-clock timestamps keep the merged trace coherent);
        counters add, gauges last-write-wins, histogram buckets sum.
        """
        events = payload.get("events", ())
        if events:
            with self._lock:
                self._events.extend(events)
        self.metrics.merge(payload.get("metrics", {}))
