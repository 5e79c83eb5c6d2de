"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces each timed public call with a wrapper, at every
name its callers bind (a module attribute, a re-export, or a class
attribute), so the program itself is unchanged.  A wrapper records one span
per call on a per-thread stack; a span's *self* time is its duration minus
the child spans it covers on the same thread.  Generators are timed per
``next()`` and coroutines per step, so time a coroutine spends awaiting is
its wall minus its busy time, and spans of two coroutines interleaved on
one event loop never nest.

Wrappers record only while ``repro.telemetry`` is enabled.  Process-pool
workers inherit the wrappers when they fork; the engine enables a worker's
recorder for exactly the tasks its parent submits while recording, and a
worker ships its span totals home as ``perfbench`` telemetry counters,
which the parent folds back in with :meth:`Tracer.totals`.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import types
from collections import defaultdict

now = time.perf_counter

#: counter name that carries a worker's span totals home
_SHIP = "perfbench"


class Tracer:
    """Per-process span accounting for the wrapped layer calls."""

    def __init__(self) -> None:
        from repro import telemetry

        self._telemetry = telemetry
        self.pid = os.getpid()
        self._local = threading.local()
        # re-entrant: serve_traced marks the window from a signal handler
        self._lock = threading.RLock()
        self._tables: list[dict] = []
        self._baseline: dict = {}
        #: residence bookkeeping of served requests, keyed by asyncio task
        self._head_done: dict = {}

    # -- accounting ----------------------------------------------------------

    def _state(self):
        loc = self._local
        stack = getattr(loc, "stack", None)
        if stack is None:
            stack = loc.stack = []
            loc.table = defaultdict(float)
            with self._lock:
                self._tables.append(loc.table)
        return stack, loc.table

    def add(self, name: str, value: float) -> None:
        """Add to a named counter on this thread's table."""
        _, table = self._state()
        table[name] += value

    def _begin(self) -> list:
        stack, _ = self._state()
        frame = [now(), 0.0]
        stack.append(frame)
        return frame

    def _end(self, key: str, frame: list) -> float:
        stack, table = self._state()
        stack.pop()
        dur = now() - frame[0]
        table[key + "#self"] += dur - frame[1]
        table[key + "#busy"] += dur
        if stack:
            stack[-1][1] += dur
        elif os.getpid() == self.pid:
            table["#top"] += dur
        else:
            # a forked pool worker: hand the totals to the telemetry payload
            # the engine ships home with each task result
            for name, value in table.items():
                self._telemetry.counter(_SHIP, value, {"k": name})
            table.clear()
        return dur

    def recording(self) -> bool:
        return self._telemetry.enabled()

    def _sum_tables(self) -> dict:
        out: dict = defaultdict(float)
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, value in table.copy().items():
                out[name] += value
        for name, labels, value in self._telemetry.get_recorder().snapshot()[
            "metrics"
        ]["counters"]:
            if name == _SHIP:
                out[dict(labels)["k"]] += value
            else:
                out["@" + name] += value
        return out

    def mark(self) -> None:
        """Start a measurement window: :meth:`totals` counts from here."""
        self._baseline = self._sum_tables()

    def totals(self) -> dict:
        """Span and counter totals since :meth:`mark`.

        Keys are ``<layer>.<call>#self`` / ``#busy`` (seconds) and ``#n``
        (calls), free counters added with :meth:`add`, ``#top`` (spans that
        had no parent on their thread), and ``@<name>`` for the program's
        own telemetry counters summed over labels.
        """
        cur = self._sum_tables()
        return {
            k: v - self._baseline.get(k, 0.0)
            for k, v in cur.items()
            if v - self._baseline.get(k, 0.0)
        }

    # -- wrappers --------------------------------------------------------------

    def _sync(self, key: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            frame = tracer._begin()
            try:
                out = fn(*args, **kwargs)
                tracer.add(key + "#n", 1)
                if after is not None:
                    after(tracer, args, kwargs, out)
            finally:
                tracer._end(key, frame)
            if isinstance(out, types.GeneratorType):
                out = tracer._gen(key, out)
            return out

        return wrapper

    def _gen(self, key: str, gen):
        try:
            while True:
                frame = self._begin()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._end(key, frame)
                yield item
        finally:
            gen.close()

    def _async(self, key: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            coro = fn(*args, **kwargs)
            if not tracer.recording():
                return coro
            return _Stepped(tracer, key, coro, args, after)

        return wrapper

    # -- installation ----------------------------------------------------------

    def wrap_function(self, module: str, name: str, key: str, after=None) -> None:
        """Wrap a module-level function at every ``repro`` name bound to it."""
        orig = getattr(sys.modules[module], name)
        wrapper = self._sync(key, orig, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def wrap_method(self, cls, name: str, key: str, after=None, coro=False) -> None:
        orig = cls.__dict__[name]
        make = self._async if coro else self._sync
        setattr(cls, name, make(key, orig, after))

    def wrap_async_function(self, module: str, name: str, key: str, after=None) -> None:
        mod = sys.modules[module]
        setattr(mod, name, self._async(key, getattr(mod, name), after))


class _Stepped:
    """Awaitable that runs a coroutine one step per span."""

    __slots__ = ("tracer", "key", "coro", "args", "after")

    def __init__(self, tracer: Tracer, key: str, coro, args, after) -> None:
        self.tracer = tracer
        self.key = key
        self.coro = coro
        self.args = args
        self.after = after

    def __await__(self):
        tracer, key = self.tracer, self.key
        it = self.coro.__await__()
        value, exc = None, None
        t0 = now()
        try:
            while True:
                frame = tracer._begin()
                try:
                    if exc is not None:
                        step = it.throw(exc)
                    else:
                        step = it.send(value)
                except StopIteration as stop:
                    result = stop.value
                    break
                finally:
                    tracer._end(key, frame)
                try:
                    value, exc = (yield step), None
                except BaseException as err:  # noqa: BLE001 — forwarded inward
                    value, exc = None, err
        finally:
            tracer.add(key + "#wall", now() - t0)
            tracer.add(key + "#n", 1)
        if self.after is not None:
            self.after(tracer, self.args, {}, result)
        return result


# -- the layer table -----------------------------------------------------------


def _nbytes_arg(index: int, counter: str):
    def after(tracer, args, kwargs, out):
        data = args[index] if len(args) > index else None
        if data is not None:
            tracer.add(counter, getattr(data, "nbytes", 0))

    return after


def _nbytes_out(counter: str):
    def after(tracer, args, kwargs, out):
        tracer.add(counter, getattr(out, "nbytes", 0))

    return after


def _codec_compress(tracer, args, kwargs, out):
    tracer.add("codec.bytes", args[1].nbytes)
    tracer.add("codec.n_saturated", out.quantizer.n_saturated)


def _plan_chosen(tracer, args, kwargs, out):
    tracer.add("planner.chunks_" + out.plan, 1)


def _segment_written(tracer, args, kwargs, out):
    tracer.add("container.segments", 1)
    tracer.add("container.bytes", len(args[1]))


def _segment_read(tracer, args, kwargs, out):
    tracer.add("container.segments", 1)
    tracer.add("container.bytes", len(out))


def _roi_planned(tracer, args, kwargs, out):
    import math

    tracer.add("roi.useful_bytes", sum(t.tile_bytes for t in out.tasks))
    tracer.add(
        "roi.touched_bytes",
        sum(4 * math.prod(t.chunk_shape) for t in out.tasks),
    )


def _head_read(tracer, args, kwargs, out):
    import asyncio

    if out is not None:
        tracer._head_done[asyncio.current_task()] = now()


def _response_written(tracer, args, kwargs, out):
    import asyncio

    t0 = tracer._head_done.pop(asyncio.current_task(), None)
    if t0 is not None:
        tracer.add("serve.residence", now() - t0)


ENGINE_METHODS = (
    "compress_batch", "decompress_batch", "decompress_stream",
    "compress_chunked_to", "compress_chunked", "decompress_chunked_from",
    "decompress_chunked", "decompress_roi_from", "decompress_roi",
    "decompress_roi_file", "iter_roi_tiles", "compress_file",
    "decompress_file", "_run_ordered",
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's timed calls (the ``per_layer`` table of
    ``BENCHMARK.json``; ``run.py --trace 1`` reports it)."""
    import repro.core.pipeline as pipeline
    import repro.engine.container as container
    import repro.engine.executor as executor
    import repro.io  # noqa: F401 — registers the module for wrap_function
    import repro.planner.codec  # noqa: F401
    import repro.roi.plan  # noqa: F401
    import repro.serve.server  # noqa: F401
    import repro.utils.pool as pool
    from repro.serve.app import App

    t = tracer
    t.wrap_function("repro.io", "save_field", "io.save_field",
                    _nbytes_arg(1, "io.bytes"))
    t.wrap_function("repro.io", "load_field", "io.load_field",
                    _nbytes_out("io.bytes"))
    t.wrap_method(pipeline.FZGPU, "compress", "codec.compress", _codec_compress)
    t.wrap_method(pipeline.FZGPU, "decompress", "codec.decompress",
                  _nbytes_out("codec.bytes"))
    t.wrap_function("repro.planner.codec", "compress_with_plan",
                    "planner.compress_with_plan", _plan_chosen)
    t.wrap_function("repro.planner.codec", "decompress_any",
                    "planner.decompress_any")
    t.wrap_function("repro.planner.codec", "probe_chunk", "planner.probe")
    t.wrap_method(container.ContainerWriter, "add_segment",
                  "container.add_segment", _segment_written)
    t.wrap_method(container.ContainerWriter, "finish", "container.finish")
    t.wrap_function("repro.engine.container", "read_containers",
                    "container.read_containers")
    t.wrap_function("repro.engine.container", "iter_segments",
                    "container.iter_segments")
    t.wrap_function("repro.engine.container", "read_segment_payload",
                    "container.read_segment_payload", _segment_read)
    t.wrap_function("repro.roi.plan", "plan_roi", "roi.plan_roi", _roi_planned)
    for name in ("_roi_strict", "_roi_salvage", "_roi_tile_gen"):
        t.wrap_method(executor.Engine, name, "roi." + name)
    for name in ENGINE_METHODS:
        t.wrap_method(executor.Engine, name, "engine." + name)
    t.wrap_method(pool.SharedArena, "lease", "transport.lease")
    t.wrap_method(pool.ShmBlock, "release", "transport.release")
    t.wrap_method(executor.Engine, "_stage_field", "transport.stage")
    t.wrap_method(pool.ShmDescriptor, "attach", "transport.attach")
    t.wrap_method(pool.MmapDescriptor, "attach", "transport.attach")
    t.wrap_async_function("repro.serve.server", "read_request_head",
                          "serve.read_request_head", _head_read)
    t.wrap_async_function("repro.serve.server", "read_request_body",
                          "serve.read_request_body")
    t.wrap_async_function("repro.serve.server", "write_response",
                          "serve.write_response", _response_written)
    t.wrap_method(App, "admit", "serve.admit")
    t.wrap_method(App, "handle", "serve.handle", coro=True)
    return t


def _layer_self(tot: dict, layer: str) -> float:
    prefix = layer + "."
    return sum(
        v for k, v in tot.items() if k.startswith(prefix) and k.endswith("#self")
    )


def _sum(tot: dict, *keys: str) -> float:
    return sum(tot.get(k, 0.0) for k in keys)


def layer_metrics(tot: dict, cycles: int, wall: float, jobs: int) -> dict:
    """Per-layer metrics, per workload cycle, from :meth:`Tracer.totals`.

    ``wall`` is the traced operations' wall time, which bounds what the
    engine's workers could have been busy for.
    """
    per = 1.0 / max(cycles, 1)
    codec_busy = _layer_self(tot, "codec")
    serve_busy = {
        k: _sum(tot, f"serve.{k}#busy")
        for k in ("read_request_head", "read_request_body", "write_response",
                  "handle", "admit")
    }
    serve_wall = {
        k: _sum(tot, f"serve.{k}#wall")
        for k in ("read_request_body", "write_response", "handle")
    }
    hits, misses = _sum(tot, "@pool.shm.hit"), _sum(tot, "@pool.shm.miss")
    touched = tot.get("roi.touched_bytes", 0.0)
    m = {
        "io.busy_s": _layer_self(tot, "io") * per,
        "io.bytes": tot.get("io.bytes", 0.0) * per,
        "codec.busy_s": codec_busy * per,
        "codec.calls": _sum(tot, "codec.compress#n", "codec.decompress#n") * per,
        "codec.MBps": (tot.get("codec.bytes", 0.0) / 1e6 / codec_busy
                       if codec_busy else 0.0),
        "codec.n_saturated": tot.get("codec.n_saturated", 0.0) * per,
        "planner.busy_s": _layer_self(tot, "planner") * per,
        "planner.probe_s": tot.get("planner.probe#busy", 0.0) * per,
        "planner.chunks_fast": tot.get("planner.chunks_fast", 0.0) * per,
        "planner.chunks_interp": tot.get("planner.chunks_interp", 0.0) * per,
        "planner.chunks_constant": tot.get("planner.chunks_constant", 0.0) * per,
        "container.busy_s": _layer_self(tot, "container") * per,
        "container.segments": tot.get("container.segments", 0.0) * per,
        "container.bytes": tot.get("container.bytes", 0.0) * per,
        "roi.busy_s": _layer_self(tot, "roi") * per,
        "roi.segments_decoded": _sum(tot, "@roi.chunks_decoded") * per,
        "roi.segments_skipped": _sum(tot, "@roi.chunks_skipped") * per,
        "roi.useful_frac": (tot.get("roi.useful_bytes", 0.0) / touched
                            if touched else 0.0),
        "engine.busy_s": _layer_self(tot, "engine") * per,
        "engine.tasks": _sum(tot, "@engine.worker_tasks") * per,
        "engine.retries": _sum(tot, "@engine.retry") * per,
        "engine.worker_util": (_sum(tot, "@engine.worker_busy_seconds")
                               / (wall * jobs) if wall else 0.0),
        "transport.busy_s": _layer_self(tot, "transport") * per,
        "transport.leases": tot.get("transport.lease#n", 0.0) * per,
        "transport.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "transport.growth_bytes": _sum(tot, "@pool.shm.growth_bytes") * per,
        "serve.framing_s": (serve_busy["read_request_head"]
                            + serve_busy["read_request_body"]
                            + serve_busy["write_response"]) * per,
        "serve.handle_s": (serve_busy["handle"] + serve_busy["admit"]) * per,
        "serve.wait_s": (serve_wall["handle"] - serve_busy["handle"]
                         + serve_wall["write_response"]
                         - serve_busy["write_response"]) * per,
        "serve.requests": _sum(tot, "@serve.requests") * per,
        "serve.shed": _sum(tot, "@serve.shed") * per,
        "serve.bytes_in": _sum(tot, "@serve.bytes_in") * per,
        "serve.bytes_out": _sum(tot, "@serve.bytes_out") * per,
    }
    return m


def _entry_self(tot: dict) -> float:
    """Self time of the program's entry points: the public ``Engine``
    methods and ``App.handle``, net of every wrapped call beneath them.

    That is the work inside an operation that no named layer explains.
    ``Engine._run_ordered`` (task dispatch and the wait for pool workers)
    is named engine work and is not counted.
    """
    entries = [f"engine.{m}#self" for m in ENGINE_METHODS if m != "_run_ordered"]
    return _sum(tot, "serve.handle#self", *entries)


def unattributed(tot: dict, op_wall: float) -> float:
    """Share of the timed operations' time that no named layer explains.

    It is the entry points' self time (:func:`_entry_self`) plus the time
    outside every span: in-process, the benchmark's calls into the program
    minus their top-level spans; on the server, each request's residence
    (head parsed to response written) minus the wrapped serve calls it
    made.  The share is of the operations' wall time in-process and of the
    requests' summed residence on the server.
    """
    residence = tot.get("serve.residence", 0.0)
    if residence:
        covered = _sum(
            tot, "serve.read_request_body#wall", "serve.admit#busy",
            "serve.handle#wall", "serve.write_response#wall",
        )
        return (max(residence - covered, 0.0) + _entry_self(tot)) / residence
    if not op_wall:
        return 0.0
    outside = max(op_wall - tot.get("#top", 0.0), 0.0)
    return (outside + _entry_self(tot)) / op_wall
