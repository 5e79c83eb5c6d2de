"""Request handling for :mod:`repro.serve` — routing, admission, streaming.

The :class:`App` is the protocol-independent core of the service: it maps a
parsed :class:`~repro.serve.http.Request` to a
:class:`~repro.serve.http.Response`, fronting one shared
:class:`~repro.engine.Engine`.  Everything hard was already built by earlier
PRs and is *reused* here rather than reimplemented:

* **Compression** goes through ``Engine.compress_chunked_to`` — bodies are
  chunk-split on Lorenzo-aligned boundaries and the ``FZMC0002`` container
  is streamed back segment-by-segment as worker tasks complete (a producer
  thread drives the engine; completed bytes cross into the event loop via
  ``call_soon_threadsafe``).
* **Decompression** is one handler with or without ``?slab=``: it plans
  the read on the container index up front with :func:`~repro.roi.plan_roi`
  (typed 4xx on malformed framing or slabs, via the same
  BoundedReader-hardened parsers the CLI uses), then streams the final
  tiles of ``Engine.iter_roi_tiles`` over that same plan.  A full decode
  is a full-slab ROI read: constant segments are synthesized from their
  header, and interp segments also compute the anchor-grid preview that
  the wire drops.
* **Fault tolerance** is the engine's own retry/quarantine/pool-rebuild
  machinery: a worker crash mid-request surfaces as a typed 5xx with a
  structured JSON body — or, after response headers are already out, as a
  hard chunked-framing truncation — never as a hung connection.
* **Backpressure** is two-signal admission: a server-side in-flight cap and
  the engine's global :attr:`~repro.engine.Engine.queue_depth`; past the
  high-water mark requests are shed with ``429`` + ``Retry-After``.
  Per-client token buckets (:mod:`repro.serve.quota`) bound request *rate*
  the same way, keyed on the **peer address** — never on a client-supplied
  header, which would let any caller mint fresh buckets per request.
  Admission runs on the request *head* (see :meth:`App.admit`), before the
  body is read, so a request that will be shed is never buffered.
* **Observability** is the existing telemetry recorder: ``serve.*``
  counters/gauges/histograms ride the same registry as the ``engine.*`` and
  ``stage.*`` metrics and are exported verbatim by ``GET /metrics``.

Failure taxonomy -> status code (see ``docs/SERVING.md``):

==============================  ======
malformed request / container     400
unknown route                     404
wrong method                      405
body over the configured cap      413
quota or backpressure shed        429
quarantined task (retries spent)  500
worker crash (pool rebuilt)       502
transient engine failure          503
task timeout                      504
==============================  ======
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass
from io import BytesIO
from typing import AsyncIterator, Callable

import numpy as np

from repro import telemetry
from repro.engine import container as fzmc
from repro.engine.executor import DEFAULT_CHUNK_BYTES, Engine
from repro.errors import (
    ConfigError,
    DecompressionError,
    EngineError,
    FormatError,
    ReproError,
    TaskError,
    TaskTimeoutError,
    TransientTaskError,
    UnsupportedDataError,
    WorkerCrashError,
)
from repro.planner import SERVE_PLANS, plan_name
from repro.roi import plan_roi
from repro.serve.http import (
    HttpError,
    Limits,
    Request,
    Response,
    StreamAborted,
)
from repro.serve.quota import QuotaTable
from repro.telemetry.export import to_prometheus

__all__ = ["ServeConfig", "App", "enable_metrics"]

#: request-latency buckets (seconds) for ``serve.request_seconds``
LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)

#: spans a server started by :func:`enable_metrics` keeps buffered
SPAN_BUFFER = 4096


def enable_metrics() -> None:
    """Turn the default telemetry recorder on for a live ``/metrics``.

    ``/metrics`` reads only the metrics, which stay exact; the span buffer
    keeps the last :data:`SPAN_BUFFER` spans, so a long-running server
    does not grow with every request.
    """
    telemetry.enable()
    telemetry.get_recorder().keep_last(SPAN_BUFFER)


_DONE = object()  # stream sentinel: producer finished cleanly


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one server instance (all enforced in :class:`App`)."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral (the test fixtures' default)
    max_inflight: int = 32  #: concurrent engine-bound requests before shedding
    max_connections: int = 256  #: concurrent TCP connections before 503
    queue_high_water: int = 0  #: engine queue-depth shed mark; 0 = 8 * jobs
    quota_rate: float = 0.0  #: per-client requests/second; <= 0 disables
    quota_burst: float = 8.0  #: per-client burst allowance
    max_body_bytes: int = 256 << 20
    max_header_bytes: int = 32 << 10
    chunk_bytes: int = DEFAULT_CHUNK_BYTES  #: container segment target size
    stream_flush_bytes: int = 64 << 10  #: coalesce streamed chunks up to this
    retry_after: float = 1.0  #: Retry-After hint on backpressure sheds
    plan: str = "fast"  #: default request plan when ``plan=`` is absent


class _Stream:
    """Thread -> event-loop chunk conduit for streamed response bodies.

    The producer (an engine-driving worker thread) pushes ``bytes`` chunks,
    then ``_DONE`` or the exception that stopped it.  The queue is
    unbounded on purpose: the producer can never block on a slow or
    vanished client (no wedged worker threads), and the backlog is bounded
    anyway by the response size, which the request-body cap already limits.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self.queue: asyncio.Queue = asyncio.Queue()

    def push(self, item) -> None:
        try:
            self._loop.call_soon_threadsafe(self.queue.put_nowait, item)
        except RuntimeError:
            pass  # loop already closed (shutdown): nobody left to deliver to


class _SegmentSink:
    """File-like handed to ``compress_chunked_to``; forwards completed bytes.

    Writes accumulate until ``flush_bytes`` then ship as one streamed chunk
    — container segments are written back-to-back, so with the default
    64 KiB threshold each flushed chunk ends on a segment boundary for any
    realistic segment size, and the index trailer rides the final flush.
    """

    def __init__(self, push: Callable[[bytes], None], flush_bytes: int) -> None:
        self._push = push
        self._flush_bytes = max(1, flush_bytes)
        self._buf = bytearray()

    def write(self, data: bytes) -> int:
        self._buf += data
        if len(self._buf) >= self._flush_bytes:
            self._push(bytes(self._buf))
            self._buf.clear()
        return len(data)

    def finish(self) -> None:
        if self._buf:
            self._push(bytes(self._buf))
            self._buf.clear()


class _Admission:
    """One admitted request's claim on server capacity.

    ``release()`` is idempotent: it may be called from the streamed-response
    finalizer, from :func:`~repro.serve.http.write_response`'s ``on_done``
    hook *and* from an error path, and the underlying in-flight slot is
    returned exactly once.  Requests that hold no slot (non-engine routes)
    carry a no-op admission.

    Further per-request resources — notably the shared-memory lease holding
    a staged request body — ride the same ticket via :meth:`add`, so every
    existing release path (error, stream completion, abandonment) frees
    them without new plumbing.
    """

    __slots__ = ("_callbacks",)

    def __init__(self, release: Callable[[], None] | None = None) -> None:
        self._callbacks: list[Callable[[], None]] = (
            [release] if release is not None else []
        )

    def add(self, callback: Callable[[], None]) -> None:
        self._callbacks.append(callback)

    def release(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()


def _json_body(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("ascii")


def _json_response(status: int, payload: dict,
                   extra: list[tuple[str, str]] | None = None) -> Response:
    headers = [("Content-Type", "application/json")] + (extra or [])
    return Response(status, headers=headers, body=_json_body(payload))


#: most-derived-first mapping from the error taxonomy to HTTP status
_ERROR_STATUS: tuple[tuple[type, int, str], ...] = (
    (TaskTimeoutError, 504, "TaskTimeout"),
    (WorkerCrashError, 502, "WorkerCrash"),
    (TransientTaskError, 503, "TransientTask"),
    (TaskError, 500, "TaskQuarantined"),
    (EngineError, 500, "EngineError"),
    (FormatError, 400, "FormatError"),
    (DecompressionError, 400, "DecompressionError"),
    (UnsupportedDataError, 400, "UnsupportedData"),
    (ConfigError, 400, "ConfigError"),
    (ReproError, 500, "InternalError"),
)


def error_response(exc: BaseException) -> Response:
    """Map any handler exception to a structured JSON error response."""
    if isinstance(exc, HttpError):
        extra = []
        if exc.retry_after is not None:
            extra.append(("Retry-After", f"{exc.retry_after:.3f}"))
        return _json_response(
            exc.status,
            {"error": exc.code, "message": str(exc), "status": exc.status},
            extra,
        )
    for etype, status, code in _ERROR_STATUS:
        if isinstance(exc, etype):
            payload = {"error": code, "message": str(exc), "status": status}
            failure = getattr(exc, "failure", None)
            if failure is not None:
                payload["attempts"] = failure.attempts
                payload["history"] = list(failure.history)
            return _json_response(status, payload)
    return _json_response(
        500,
        {"error": "InternalError",
         "message": f"{type(exc).__name__}: {exc}", "status": 500},
    )


class App:
    """Route requests onto one shared engine with admission control.

    ``recorder`` and ``clock`` are injectable so the golden-fixture tests
    can drive a deterministic metrics scrape; they default to the process
    recorder and the telemetry monotonic clock (``telemetry.monotonic``).
    """

    def __init__(
        self,
        engine: Engine,
        config: ServeConfig | None = None,
        recorder: telemetry.Recorder | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.engine = engine
        self.config = config or ServeConfig()
        self.recorder = recorder if recorder is not None else telemetry.get_recorder()
        self.clock = clock if clock is not None else telemetry.monotonic
        self.limits = Limits(
            max_header_bytes=self.config.max_header_bytes,
            max_body_bytes=self.config.max_body_bytes,
        )
        self.quota = QuotaTable(
            self.config.quota_rate, self.config.quota_burst, clock=self.clock
        )
        self.queue_high_water = self.config.queue_high_water or 8 * max(
            1, engine.jobs
        )
        self._inflight = 0
        self._lock = threading.Lock()

    # -- admission ---------------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def _acquire(self) -> None:
        """Admit one engine-bound request or shed with 429."""
        cfg = self.config
        with self._lock:
            if self._inflight >= cfg.max_inflight:
                self._shed("inflight")
            depth = self.engine.queue_depth
            if depth >= self.queue_high_water:
                self._shed("queue_depth", depth)
            self._inflight += 1
            inflight = self._inflight
        self.recorder.gauge("serve.inflight", inflight)

    def _shed(self, reason: str, depth: int | None = None) -> None:
        self.recorder.counter("serve.shed", labels={"reason": reason})
        detail = f" (queue depth {depth})" if depth is not None else ""
        raise HttpError(
            429,
            f"server at capacity: {reason} high-water mark reached{detail}",
            code="Backpressure",
            retry_after=self.config.retry_after,
        )

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1
            inflight = self._inflight
        self.recorder.gauge("serve.inflight", inflight)

    # -- entry point -------------------------------------------------------

    def admit(self, request: Request) -> _Admission:
        """Admission control on the request *head*, before the body is read.

        Routing errors (404/405), quota sheds and both backpressure signals
        all fire here as :class:`HttpError`, so the connection loop can
        refuse a request without ever buffering its body.  Quotas are keyed
        on the peer address — a client-supplied identity header is
        deliberately not trusted (it would allow minting a fresh token
        bucket per request and churning honest clients out of the LRU).

        The returned admission owns this request's in-flight slot (a no-op
        for non-engine routes); callers must ``release()`` it on any path
        that does not hand it back to :meth:`handle`.
        """
        _, needs_engine = self._resolve(request)
        if request.method == "POST":
            wait = self.quota.admit(self._quota_key(request))
            if wait is not None:
                self.recorder.counter("serve.shed", labels={"reason": "quota"})
                raise HttpError(
                    429,
                    f"client quota exhausted, retry in {wait:.3f}s",
                    code="QuotaExceeded",
                    retry_after=wait,
                )
        if not needs_engine:
            return _Admission()
        self._acquire()
        return _Admission(self._release)

    @staticmethod
    def _quota_key(request: Request) -> str:
        """Peer address minus the ephemeral port (stable across connections)."""
        client = request.client or "anonymous"
        return client.rsplit(":", 1)[0] or client

    def body_sink(
        self, request: Request, admission: _Admission
    ) -> Callable[[int], memoryview | None] | None:
        """Zero-copy upload path: lease shared memory for the request body.

        Returns a ``sink(length)`` callable for
        :func:`~repro.serve.http.read_request_body`, or ``None`` when the
        engine is not running a shared-memory data plane.  A successful
        lease parks the block on ``request.body_block`` (so ``_parse_field``
        can hand the engine a :class:`ShmArray` that ships as a pure
        descriptor) and rides the admission ticket for release — every
        existing error/completion path frees the segment.  A failed lease
        (arena pressure) returns ``None`` and the body buffers as bytes,
        exactly as before.
        """
        if request.method != "POST":
            return None
        arena = self.engine.shared_arena()
        if arena is None:
            return None

        def sink(length: int) -> memoryview | None:
            try:
                block = arena.lease(length)
            except (OSError, ConfigError):
                return None
            request.body_block = block
            admission.add(block.release)
            self.recorder.counter("serve.shm_bodies")
            return block.view(length)

        return sink

    async def handle(
        self, request: Request, admission: _Admission | None = None
    ) -> Response:
        """Dispatch one request; every exception becomes a typed response.

        ``admission`` is the ticket from an earlier :meth:`admit` call (the
        connection loop admits on the request head); when ``None`` the
        request is admitted here instead.  Cancellation (server shutdown)
        and interpreter exits propagate — only genuine errors are mapped.

        Streamed responses may still abort *after* this returns — the
        connection loop handles :class:`StreamAborted` by closing the
        socket without the terminal chunk.
        """
        start = self.clock()
        route = _route_name(request.path)
        try:
            resp = await self._dispatch(request, admission)
        except StreamAborted:
            raise
        except Exception as exc:  # noqa: BLE001 — mapped, never raw
            resp = error_response(exc)
        self.recorder.counter(
            "serve.requests",
            labels={"route": route, "status": str(resp.status)},
        )
        self.recorder.counter("serve.bytes_in", len(request.body))
        if resp.stream is None:
            self.recorder.counter("serve.bytes_out", len(resp.body))
        self.recorder.histogram(
            "serve.request_seconds",
            max(0.0, self.clock() - start),
            labels={"route": route},
            buckets=LATENCY_BUCKETS,
        )
        return resp

    async def _dispatch(
        self, request: Request, admission: _Admission | None
    ) -> Response:
        with telemetry.span("serve.request") as sp:
            sp.set("path", request.path)
            sp.set("method", request.method)
            if admission is None:
                admission = self.admit(request)
            handler, _ = self._resolve(request)
            try:
                resp = await handler(request)
            except BaseException:
                admission.release()
                raise
            if resp.stream is None:
                admission.release()
            else:
                # the slot is held until the stream is done; release rides
                # BOTH the generator finalizer and the response's on_done
                # hook, because a stream abandoned before its first chunk
                # is closed without ever running the generator body
                resp.stream = self._counted(resp.stream, admission)
                resp.on_done = admission.release
            return resp

    def _resolve(self, request: Request):
        routes: dict[str, tuple[str, Callable, bool]] = {
            "/healthz": ("GET", self._healthz, False),
            "/metrics": ("GET", self._metrics, False),
            "/v1/compress": ("POST", self._compress, True),
            "/v1/decompress": ("POST", self._decompress, True),
            "/v1/info": ("POST", self._info, True),
            "/v1/salvage": ("POST", self._salvage, True),
        }
        entry = routes.get(request.path)
        if entry is None:
            raise HttpError(404, f"no such endpoint {request.path!r}")
        method, handler, needs_engine = entry
        allowed = (method, "HEAD") if method == "GET" else (method,)
        if request.method not in allowed:
            raise HttpError(
                405, f"{request.path} only accepts {method}", code="MethodNotAllowed"
            )
        return handler, needs_engine

    async def _counted(self, stream, admission: _Admission) -> AsyncIterator[bytes]:
        sent = 0
        try:
            async for chunk in stream:
                sent += len(chunk)
                yield chunk
        finally:
            self.recorder.counter("serve.bytes_out", sent)
            aclose = getattr(stream, "aclose", None)
            if aclose is not None:
                await aclose()
            admission.release()

    # -- plumbing for streamed handlers ------------------------------------

    def _spawn_stream(self, work: Callable[[_Stream], None]) -> _Stream:
        """Run ``work`` on a producer thread feeding a :class:`_Stream`."""
        stream = _Stream(asyncio.get_running_loop())

        def runner() -> None:
            try:
                work(stream)
                stream.push(_DONE)
            except BaseException as exc:  # noqa: BLE001 — shipped to consumer
                stream.push(exc)

        threading.Thread(
            target=runner, name="repro-serve-worker", daemon=True
        ).start()
        return stream

    @staticmethod
    async def _stream_body(stream: _Stream, first: bytes) -> AsyncIterator[bytes]:
        yield first
        while True:
            item = await stream.queue.get()
            if item is _DONE:
                return
            if isinstance(item, BaseException):
                # headers are already on the wire: abort the chunked framing
                raise StreamAborted(
                    f"stream failed mid-response: {type(item).__name__}: {item}"
                ) from item
            yield item

    async def _streamed(
        self, work: Callable[[_Stream], None], headers: list[tuple[str, str]]
    ) -> Response:
        """Start ``work`` and hold the response until its first chunk lands.

        A failure before any bytes were produced surfaces as a clean typed
        error response; a later failure aborts the chunked stream.
        """
        stream = self._spawn_stream(work)
        first = await stream.queue.get()
        if isinstance(first, BaseException):
            raise first
        if first is _DONE:
            first = b""
        return Response(200, headers=headers, stream=self._stream_body(stream, first))

    # -- handlers ----------------------------------------------------------

    async def _healthz(self, request: Request) -> Response:
        depth = self.engine.queue_depth
        shedding = (
            self.inflight >= self.config.max_inflight
            or depth >= self.queue_high_water
        )
        return _json_response(
            200,
            {
                "status": "busy" if shedding else "ok",
                "degraded": self.engine.degraded,
                "inflight": self.inflight,
                "queue_depth": depth,
                "queue_high_water": self.queue_high_water,
                "pool": self.engine.pool_kind,
                "jobs": self.engine.jobs,
            },
        )

    async def _metrics(self, request: Request) -> Response:
        text = to_prometheus({"metrics": self.recorder.metrics.snapshot()})
        return Response(
            200,
            headers=[("Content-Type", "text/plain; version=0.0.4")],
            body=text.encode("utf-8"),
        )

    def _parse_field(
        self, request: Request
    ) -> tuple[np.ndarray, float, str, int, str]:
        """Validate a compress request: query params + raw float32 body."""
        shape_text = request.query.get("shape", "")
        if not shape_text:
            raise HttpError(400, "missing required query parameter 'shape'")
        try:
            shape = tuple(int(part) for part in shape_text.split(","))
        except ValueError as exc:
            raise HttpError(400, f"bad shape {shape_text!r}") from exc
        if not 1 <= len(shape) <= 3 or any(n < 1 for n in shape):
            raise HttpError(
                400, f"shape must be 1-3 positive dims, got {shape_text!r}"
            )
        eb_text = request.query.get("eb", "")
        if not eb_text:
            raise HttpError(400, "missing required query parameter 'eb'")
        try:
            eb = float(eb_text)
        except ValueError as exc:
            raise HttpError(400, f"bad eb {eb_text!r}") from exc
        mode = request.query.get("mode", "rel")
        if mode not in ("rel", "abs"):
            raise HttpError(400, f"mode must be 'rel' or 'abs', got {mode!r}")
        expect = int(np.prod(shape)) * 4
        if len(request.body) != expect:
            raise HttpError(
                400,
                f"body is {len(request.body)} bytes but shape {shape} needs "
                f"{expect} bytes of float32",
            )
        try:
            chunk_bytes = int(
                request.query.get("chunk_bytes", self.config.chunk_bytes)
            )
        except ValueError as exc:
            raise HttpError(400, "bad chunk_bytes") from exc
        if chunk_bytes < 1:
            raise HttpError(400, f"chunk_bytes must be positive, got {chunk_bytes}")
        # Only the routing plans are wire-selectable: a forced plan can
        # degrade throughput or ratio arbitrarily, so it stays a local
        # (CLI/library) surface — see docs/PLANNING.md for the trust model.
        plan = request.query.get("plan", self.config.plan)
        if plan not in SERVE_PLANS:
            raise HttpError(
                400,
                f"plan must be one of {'/'.join(SERVE_PLANS)}, got {plan!r}",
            )
        block = request.body_block
        if block is not None:
            # the body already lives in a leased shared-memory segment: hand
            # the engine a ShmArray so chunk spans ship as descriptors and
            # the upload is never copied again
            data = block.asarray(shape, "<f4")
        else:
            data = np.frombuffer(request.body, dtype="<f4").reshape(shape)
        return data, eb, mode, chunk_bytes, plan

    async def _compress(self, request: Request) -> Response:
        data, eb, mode, chunk_bytes, plan = self._parse_field(request)
        flush = self.config.stream_flush_bytes

        def work(stream: _Stream) -> None:
            sink = _SegmentSink(stream.push, flush)
            self.engine.compress_chunked_to(
                sink, data, eb, mode, chunk_bytes, plan=plan
            )
            sink.finish()

        return await self._streamed(
            work, [("Content-Type", "application/x-fz-container")]
        )

    async def _decompress(self, request: Request) -> Response:
        """Container decode: ``POST /v1/decompress[?slab=start:stop,...]``.

        A full decode is a full-slab ROI read.  Planning runs up front on a
        worker thread, so a malformed container or slab (empty, out of
        range, too many axes) surfaces as a typed 400 *before* any headers
        go out, and only the segments whose row span intersects the slab
        are ever read or decoded.  The engine walks that plan; it does not
        read the index again.  The body then streams the final tile of
        each intersecting segment (the exact slab bytes, row-major, in
        order), so first bytes reach the client as soon as the first
        segment decodes.
        """
        body = request.body
        slab = request.query.get("slab")
        spec = () if slab is None else slab
        loop = asyncio.get_running_loop()
        plan = await loop.run_in_executor(
            None, lambda: plan_roi(fzmc.read_containers(BytesIO(body)), spec)
        )
        headers = [
            ("Content-Type", "application/octet-stream"),
            ("X-Repro-Dtype", "float32"),
            ("X-Repro-Shape", ",".join(str(n) for n in plan.out_shape)),
        ]
        if slab is not None:
            self.recorder.counter("serve.roi_requests")
            headers.append(("X-Repro-Slab", plan.slab.text()))

        def work(stream: _Stream) -> None:
            for tile in self.engine.iter_roi_tiles(body, plan):
                if tile.final:
                    stream.push(tile.data.tobytes())

        return await self._streamed(work, headers)

    @staticmethod
    def _check_container(body: bytes) -> list:
        """Container indexes, with every segment's CRC and the stitched
        trailing dims checked (typed 4xx on damage)."""
        fileobj = BytesIO(body)
        indexes = fzmc.read_containers(fileobj)
        tail = indexes[0].shape[1:]
        start = 0
        for idx in indexes:
            if idx.shape[1:] != tail:
                raise FormatError(
                    f"concatenated containers disagree on trailing dims: "
                    f"{idx.shape[1:]} vs {tail}"
                )
            for ordinal, entry in enumerate(idx.segments):
                fzmc.read_segment_payload(fileobj, start, entry, ordinal)
            start += idx.container_bytes
        return indexes

    async def _info(self, request: Request) -> Response:
        # CRC-checking every segment of a body that may be hundreds of MiB
        # inline would stall every other connection (including /healthz)
        loop = asyncio.get_running_loop()
        indexes = await loop.run_in_executor(
            None, self._check_container, request.body
        )
        containers = [
            {
                "shape": list(idx.shape),
                "split_axis": idx.split_axis,
                "eb_abs": idx.eb_abs,
                "container_bytes": idx.container_bytes,
                "n_segments": len(idx.segments),
                "version": idx.version,
                "segment_extents": [entry.extent for entry in idx.segments],
                "segment_bytes": [entry.seg_bytes for entry in idx.segments],
                "segment_plans": [plan_name(entry.plan) for entry in idx.segments],
            }
            for idx in indexes
        ]
        total_rows = sum(idx.shape[0] for idx in indexes)
        original = total_rows * int(np.prod(indexes[0].shape[1:], dtype=np.int64)) * 4
        return _json_response(
            200,
            {
                "containers": containers,
                "total_rows": total_rows,
                "original_bytes": int(original),
                "compressed_bytes": len(request.body),
            },
        )

    async def _salvage(self, request: Request) -> Response:
        loop = asyncio.get_running_loop()
        body = request.body

        def work():
            return self.engine.decompress(body, salvage=True)

        arr, report = await loop.run_in_executor(None, work)
        return _json_response(
            200,
            {
                "shape": list(report.shape) if report.shape is not None else None,
                "resynced": report.resynced,
                "complete": report.complete,
                "total_bytes": report.total_bytes,
                "recovered_bytes": report.recovered_bytes,
                "lost_bytes": report.lost_bytes,
                "recovered_segments": report.recovered_segments,
                "lost_segments": report.lost_segments,
                "segments": [
                    {
                        "ordinal": seg.ordinal,
                        "extent": seg.extent,
                        "nbytes": seg.nbytes,
                        "status": seg.status,
                        "detail": seg.detail,
                    }
                    for seg in report.segments
                ],
                "summary": report.summary(),
            },
        )


def _route_name(path: str) -> str:
    """Collapse the path to a bounded metric label (no client-chosen values)."""
    known = {
        "/healthz", "/metrics", "/v1/compress", "/v1/decompress",
        "/v1/info", "/v1/salvage",
    }
    return path if path in known else "other"
