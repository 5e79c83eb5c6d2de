"""Integration suite for ``repro.serve`` — full lifecycle over a real socket.

Every test here talks to an in-process :class:`~repro.serve.Server` bound
to an ephemeral port through plain ``http.client``/raw sockets, so the
whole stack is exercised: asyncio framing, routing, admission, the engine
bridge, and response streaming.  The core contract is byte-identity: what
comes back from ``/v1/compress`` is exactly what ``Engine.compress_chunked``
produces for the same field, and ``/v1/decompress`` inverts it exactly.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro import telemetry
from repro.engine import Engine, read_containers
from repro.engine import container as fzmc
from repro.errors import ConfigError
from repro.serve import ServeConfig, enable_metrics
from repro.serve.app import SPAN_BUFFER
from repro.serve.quota import QuotaTable, TokenBucket
from repro.telemetry.recorder import Recorder

from tests.serve_support import (
    http_compress,
    http_decompress,
    live_server,
    request,
)


@pytest.fixture(scope="module")
def server():
    """A shared default-config server (thread pool, 2 jobs)."""
    with live_server(jobs=2, pool="thread") as (srv, app, engine):
        yield srv, app, engine


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape, dtype=np.float32)


# ---------------------------------------------------------------------------
# roundtrips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shape,mode", [((512,), "rel"), ((64, 48), "rel"), ((8, 16, 12), "abs")]
)
def test_roundtrip_byte_identical_to_engine(server, shape, mode):
    srv, app, engine = server
    data = _field(shape, seed=len(shape))
    status, headers, blob = http_compress(srv.address, data, 1e-3, mode)
    assert status == 200
    assert headers["content-type"] == "application/x-fz-container"
    assert blob == engine.compress_chunked(data, 1e-3, mode)

    status, headers, recon = http_decompress(srv.address, blob)
    assert status == 200
    assert headers["x-repro-dtype"] == "float32"
    assert recon.shape == data.shape
    assert np.array_equal(recon, engine.decompress_chunked(blob))


def test_chunked_upload_is_equivalent(server):
    srv, app, engine = server
    data = _field((128, 32), seed=7)
    plain = http_compress(srv.address, data, 1e-3)[2]
    status, _, streamed = http_compress(srv.address, data, 1e-3, chunked=True)
    assert status == 200
    assert streamed == plain


def test_multi_segment_response_streams_chunked(server):
    srv, app, engine = server
    data = _field((256, 64), seed=3)
    status, headers, blob = http_compress(
        srv.address, data, 1e-3, chunk_bytes=16384
    )
    assert status == 200
    assert headers.get("transfer-encoding") == "chunked"
    index = read_containers(__import__("io").BytesIO(blob))[0]
    assert len(index.segments) > 1
    assert blob == engine.compress_chunked(data, 1e-3, chunk_bytes=16384)


def test_decompress_concatenated_containers(server):
    srv, app, engine = server
    a, b = _field((32, 16), seed=1), _field((48, 16), seed=2)
    blob = (
        http_compress(srv.address, a, 1e-3)[2]
        + http_compress(srv.address, b, 1e-3)[2]
    )
    status, headers, recon = http_decompress(srv.address, blob)
    assert status == 200
    assert recon.shape == (80, 16)
    assert np.array_equal(recon, engine.decompress_chunked(blob))


def test_keepalive_serves_sequential_requests(server):
    srv, app, engine = server
    import http.client

    conn = http.client.HTTPConnection(*srv.address, timeout=30)
    try:
        for _ in range(3):
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            json.loads(resp.read())
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# info / salvage
# ---------------------------------------------------------------------------


def test_info_endpoint_reports_container_layout(server):
    srv, app, engine = server
    data = _field((256, 64), seed=5)
    blob = http_compress(srv.address, data, 1e-3, chunk_bytes=16384)[2]
    status, _, body = request(srv.address, "POST", "/v1/info", blob)
    assert status == 200
    info = json.loads(body)
    assert info["total_rows"] == 256
    assert info["original_bytes"] == 256 * 64 * 4
    assert info["compressed_bytes"] == len(blob)
    (container,) = info["containers"]
    assert container["shape"] == [256, 64]
    assert container["n_segments"] == len(container["segment_extents"]) > 1
    assert sum(container["segment_extents"]) == 256


def test_salvage_endpoint_accounts_every_byte(server):
    srv, app, engine = server
    data = _field((256, 64), seed=9)
    blob = bytearray(http_compress(srv.address, data, 1e-3, chunk_bytes=16384)[2])
    index = read_containers(__import__("io").BytesIO(bytes(blob)))[0]
    victim = index.segments[1]
    blob[victim.offset + victim.seg_bytes // 2] ^= 0xFF

    status, _, body = request(srv.address, "POST", "/v1/salvage", bytes(blob))
    assert status == 200
    report = json.loads(body)
    assert report["recovered_bytes"] + report["lost_bytes"] == report["total_bytes"]
    assert report["lost_segments"] == 1
    assert report["recovered_segments"] == len(index.segments) - 1
    assert not report["complete"]
    statuses = [seg["status"] for seg in report["segments"]]
    assert statuses.count("lost") == 1


# ---------------------------------------------------------------------------
# decode routes over one plan: mixed plans, axis-1 splits, damaged payloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs,pool", [(1, "thread"), (2, "process")])
def test_mixed_plan_container_decodes_like_the_engine(jobs, pool):
    """constant + interp + fast segments: full and slab routes match the
    in-process engine byte for byte, on an inline and a process pool."""
    from tests.golden_support import GOLDEN_DIR

    blob = (GOLDEN_DIR / "golden_container_mixed.fz").read_bytes()
    inline = Engine(jobs=1)
    full = inline.decompress_chunked(blob)
    # rows 8:40 cross the constant (0:16), interp (16:32) and fast (32:48)
    # segments
    roi = inline.decompress_roi(blob, "8:40,3:37")
    with live_server(jobs=jobs, pool=pool) as (srv, app, engine):
        status, headers, recon = http_decompress(srv.address, blob)
        assert status == 200
        assert "x-repro-slab" not in headers
        assert recon.tobytes() == full.tobytes()
        status, headers, body = request(
            srv.address, "POST", "/v1/decompress?slab=8:40,3:37", blob
        )
    assert status == 200
    assert headers["x-repro-slab"] == "8:40,3:37"
    assert headers["x-repro-shape"] == "32,34"
    assert body == roi.tobytes()


def test_info_rejects_a_damaged_payload(server):
    srv, app, engine = server
    from tests.golden_support import GOLDEN_DIR

    blob = bytearray((GOLDEN_DIR / "golden_container_mixed.fz").read_bytes())
    victim = read_containers(__import__("io").BytesIO(bytes(blob)))[0].segments[2]
    blob[victim.offset + victim.seg_bytes // 2] ^= 0xFF
    status, _, body = request(srv.address, "POST", "/v1/info", bytes(blob))
    assert status == 400 and _error(body)["error"] == "FormatError"


def test_axis1_split_container_on_every_route(server):
    """No engine call writes split_axis=1: every decode route refuses it
    with a typed 400 before decoding, while /v1/info still describes it."""
    import io

    from repro.core.pipeline import FZGPU
    from repro.engine import container as fzmc

    srv, app, engine = server
    data = _field((32, 16), seed=21)
    buf = io.BytesIO()
    writer = fzmc.ContainerWriter(buf, data.shape, 1e-3, split_axis=1)
    for a in (0, 8):
        stream = FZGPU().compress(data[:, a : a + 8], 1e-3, "abs").stream
        writer.add_segment(stream, 8)
    writer.finish()
    blob = buf.getvalue()
    for route in ("/v1/decompress", "/v1/decompress?slab=0:8"):
        status, _, body = request(srv.address, "POST", route, blob)
        assert status == 400 and _error(body)["error"] == "FormatError", route
    status, _, body = request(srv.address, "POST", "/v1/salvage", blob)
    assert status == 400
    status, _, body = request(srv.address, "POST", "/v1/info", blob)
    assert status == 200
    assert json.loads(body)["containers"][0]["split_axis"] == 1


# ---------------------------------------------------------------------------
# typed 4xx
# ---------------------------------------------------------------------------


def _error(body: bytes) -> dict:
    payload = json.loads(body)
    assert set(payload) >= {"error", "message", "status"}
    return payload


def test_unknown_route_404(server):
    srv, _, _ = server
    status, _, body = request(srv.address, "GET", "/v1/nope")
    assert status == 404 and _error(body)["error"] == "NotFound"


def test_wrong_method_405(server):
    srv, _, _ = server
    status, _, body = request(srv.address, "GET", "/v1/compress")
    assert status == 405 and _error(body)["error"] == "MethodNotAllowed"


@pytest.mark.parametrize(
    "target,needle",
    [
        ("/v1/compress?eb=1e-3", "shape"),
        ("/v1/compress?shape=64,64", "eb"),
        ("/v1/compress?shape=64x64&eb=1e-3", "shape"),
        ("/v1/compress?shape=64,64&eb=bogus", "eb"),
        ("/v1/compress?shape=64,64&eb=1e-3&mode=weird", "mode"),
        ("/v1/compress?shape=2,2,2,2&eb=1e-3", "dims"),
    ],
)
def test_bad_compress_params_400(server, target, needle):
    srv, _, _ = server
    status, _, body = request(srv.address, "POST", target, b"\0" * 16384)
    assert status == 400
    assert needle in _error(body)["message"]


def test_body_shape_mismatch_400(server):
    srv, _, _ = server
    status, _, body = request(
        srv.address, "POST", "/v1/compress?shape=64,64&eb=1e-3", b"\0" * 100
    )
    assert status == 400 and "100 bytes" in _error(body)["message"]


def test_malformed_container_400(server):
    srv, _, _ = server
    for blob in (b"not a container at all", b"FZMC0002" + b"\0" * 64):
        for route in ("/v1/decompress", "/v1/info"):
            status, _, body = request(srv.address, "POST", route, blob)
            assert status == 400
            assert _error(body)["error"] == "FormatError"


def test_truncated_container_400(server):
    srv, app, engine = server
    blob = engine.compress_chunked(_field((64, 64)), 1e-3)
    status, _, body = request(srv.address, "POST", "/v1/decompress", blob[:-7])
    assert status == 400 and _error(body)["error"] == "FormatError"


def test_truncated_upload_400():
    """Declaring more body than is sent must produce a 400, not a hang."""
    with live_server(jobs=1) as (srv, app, engine):
        with socket.create_connection(srv.address, timeout=30) as sock:
            sock.sendall(
                b"POST /v1/decompress HTTP/1.1\r\n"
                b"Content-Length: 4096\r\n\r\n" + b"\0" * 10
            )
            sock.shutdown(socket.SHUT_WR)
            reply = sock.recv(65536)
        assert b"400 Bad Request" in reply and b"truncated" in reply


def test_bad_chunk_framing_400():
    with live_server(jobs=1) as (srv, app, engine):
        with socket.create_connection(srv.address, timeout=30) as sock:
            sock.sendall(
                b"POST /v1/info HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"ZZZ\r\njunk\r\n"
            )
            reply = sock.recv(65536)
        assert b"400 Bad Request" in reply


def test_oversized_body_413():
    cfg = ServeConfig(max_body_bytes=4096)
    with live_server(jobs=1, config=cfg) as (srv, app, engine):
        status, _, body = request(
            srv.address, "POST", "/v1/compress?shape=64,64&eb=1e-3",
            b"\0" * (64 * 64 * 4),
        )
        assert status == 413 and _error(body)["status"] == 413
        # chunked uploads hit the same cap while streaming
        status, _, body = request(
            srv.address, "POST", "/v1/info", b"\0" * 8192, chunked=True
        )
        assert status == 413


def test_oversized_header_431():
    with live_server(jobs=1) as (srv, app, engine):
        status, _, body = request(
            srv.address, "GET", "/healthz", headers={"X-Junk": "j" * 40000}
        )
        assert status == 431


# ---------------------------------------------------------------------------
# quotas
# ---------------------------------------------------------------------------


def test_quota_exhaustion_429():
    cfg = ServeConfig(quota_rate=0.001, quota_burst=2)
    with live_server(jobs=1, config=cfg) as (srv, app, engine):
        data = _field((32, 32))
        for _ in range(2):
            status, _, _ = http_compress(srv.address, data, 1e-3)
            assert status == 200
        status, headers, body = http_compress(srv.address, data, 1e-3)
        assert status == 429
        assert _error(body)["error"] == "QuotaExceeded"
        assert float(headers["retry-after"]) > 0
        # quota identity is the PEER, not a client-chosen header: varying
        # X-Repro-Client must not mint a fresh token bucket
        status, _, body = http_compress(
            srv.address, data, 1e-3, headers={"X-Repro-Client": "tenant-b"}
        )
        assert status == 429 and _error(body)["error"] == "QuotaExceeded"
        # ...and the ephemeral source port is not part of the identity
        # either (every helper call above already used a new connection)
        # while a genuinely different peer address has its full burst
        import http.client

        conn = http.client.HTTPConnection(
            *srv.address, timeout=30, source_address=("127.0.0.2", 0)
        )
        try:
            shape = ",".join(str(n) for n in data.shape)
            conn.request(
                "POST", f"/v1/compress?shape={shape}&eb=0.001",
                np.ascontiguousarray(data).tobytes(),
            )
            assert conn.getresponse().status == 200
        finally:
            conn.close()
        # GETs are never metered
        assert request(srv.address, "GET", "/healthz")[0] == 200


def test_quota_shed_without_absorbing_body():
    """A shed request's body is never read: admission runs on the head, so
    the server answers 429 even though the declared body never arrives."""
    cfg = ServeConfig(quota_rate=0.0001, quota_burst=1)
    with live_server(jobs=1, config=cfg) as (srv, app, engine):
        data = _field((32, 32))
        assert http_compress(srv.address, data, 1e-3)[0] == 200  # burst spent
        with socket.create_connection(srv.address, timeout=30) as sock:
            sock.sendall(
                b"POST /v1/compress?shape=4096,4096&eb=1e-3 HTTP/1.1\r\n"
                b"Content-Length: 67108864\r\n\r\n"  # 64 MiB that never comes
            )
            reply = sock.recv(65536)
        assert b"429 Too Many Requests" in reply
        assert b"QuotaExceeded" in reply


def test_token_bucket_refills_exactly():
    clock = iter([0.0, 0.0, 0.0, 0.5, 1.0]).__next__
    table = QuotaTable(rate=2.0, burst=2, clock=clock)
    assert table.admit("c") is None
    assert table.admit("c") is None
    wait = table.admit("c")  # empty at t=0
    assert wait == pytest.approx(0.5)
    assert table.admit("c") is None  # t=0.5: one token regenerated
    assert table.admit("c") is None  # t=1.0: another


def test_quota_table_bounds_memory():
    table = QuotaTable(rate=1.0, burst=1, max_clients=4, clock=lambda: 0.0)
    for i in range(100):
        table.admit(f"client-{i}")
    assert len(table._buckets) == 4
    with pytest.raises(ConfigError):
        QuotaTable(rate=1.0, burst=0.25)
    bucket = TokenBucket(rate=1.0, burst=1.0, now=0.0)
    assert bucket.take(0.0) is None
    assert bucket.take(0.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# health + metrics
# ---------------------------------------------------------------------------


def test_healthz_reports_engine_state(server):
    srv, app, engine = server
    status, headers, body = request(srv.address, "GET", "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["pool"] == "thread" and health["jobs"] == 2
    assert health["inflight"] == 0 and health["queue_depth"] == 0
    assert health["queue_high_water"] == app.queue_high_water


def test_metrics_exports_serve_series():
    rec = Recorder(enabled=True)
    with live_server(jobs=1, recorder=rec) as (srv, app, engine):
        data = _field((32, 32))
        assert http_compress(srv.address, data, 1e-3)[0] == 200
        assert request(srv.address, "POST", "/v1/info", b"junk")[0] == 400
        status, headers, body = request(srv.address, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
    assert 'serve_requests{route="/v1/compress",status="200"}' in text
    assert 'serve_requests{route="/v1/info",status="400"}' in text
    assert "serve_bytes_in" in text and "serve_bytes_out" in text
    assert "serve_request_seconds_bucket" in text
    assert "serve_inflight" in text


def _roi_counts(rec) -> tuple:
    counters = {c[0]: c[2] for c in rec.metrics.snapshot()["counters"]}
    return counters.get("roi.requests"), counters.get("roi.chunks_skipped")


@pytest.mark.parametrize("slab", ["64:96,0:32", None])
def test_decompress_plans_once_and_counts_like_the_engine(slab, monkeypatch):
    """/v1/decompress reads the container index once per request, and
    counts ``roi.requests`` / ``roi.chunks_skipped`` as the engine's own
    progressive read of the same slab does."""
    reads = []
    read = fzmc.read_containers
    monkeypatch.setattr(
        fzmc, "read_containers", lambda f: reads.append(1) or read(f)
    )
    rec = telemetry.get_recorder()
    target = "/v1/decompress" + ("" if slab is None else f"?slab={slab}")
    with live_server(jobs=1) as (srv, app, engine):
        blob = engine.compress_chunked(_field((128, 32), 5), 1e-3, chunk_bytes=4096)
        counts = []
        for run in (
            lambda: request(srv.address, "POST", target, blob)[0] == 200,
            lambda: len(list(engine.iter_roi_tiles(blob, slab or ()))) > 0,
        ):
            telemetry.enable()
            rec.clear()
            reads.clear()
            try:
                assert run()
                counts.append((_roi_counts(rec), len(reads)))
            finally:
                telemetry.disable()
                rec.clear()
    skipped = 3 if slab else 0
    assert counts == [((1, skipped), 1), ((1, skipped), 1)]


def _decompress_requests(n: int, *, bounded: bool) -> tuple[list, str, int]:
    """Counter totals, ``/metrics`` text and buffered span count after
    ``n`` decompresses against a live server with the default recorder on."""
    rec = telemetry.get_recorder()
    rec.clear()
    if bounded:
        enable_metrics()
    else:
        telemetry.enable()
    try:
        with live_server(jobs=1, pool="thread") as (srv, app, engine):
            blob = engine.compress_chunked(_field((64, 64), 3), 1e-3)
            for _ in range(n):
                assert request(srv.address, "POST", "/v1/decompress", blob)[0] == 200
            counters = [
                c for c in rec.metrics.snapshot()["counters"]
                if not c[0].endswith("_seconds")  # busy times are clock readings
            ]
            metrics = request(srv.address, "GET", "/metrics")[2].decode()
        return counters, metrics, len(rec.snapshot()["events"])
    finally:
        telemetry.disable()
        rec.keep_last(None)
        rec.clear()


def test_serve_span_buffer_stays_bounded():
    """A server with telemetry on only for /metrics keeps the last
    SPAN_BUFFER spans, however many requests it serves; every counter
    still counts every request."""
    n = 2000
    counters, metrics, n_events = _decompress_requests(n, bounded=True)
    assert n_events == SPAN_BUFFER
    assert dict((c[0], c[2]) for c in counters if not c[1])["roi.requests"] == n
    assert f'serve_requests{{route="/v1/decompress",status="200"}} {n}' in metrics


def test_serve_span_buffer_keeps_counters_exact():
    """The same requests count the same with and without the span bound."""
    n = SPAN_BUFFER // 3  # about 5 spans a request: past the bound
    bounded, _, n_bounded = _decompress_requests(n, bounded=True)
    full, _, n_full = _decompress_requests(n, bounded=False)
    assert n_bounded == SPAN_BUFFER < n_full
    assert bounded == full


def test_head_request_omits_body(server):
    srv, _, _ = server
    status, headers, body = request(srv.address, "HEAD", "/metrics")
    assert status == 200 and body == b""


# ---------------------------------------------------------------------------
# connection lifecycle (admission slots, cancellation)
# ---------------------------------------------------------------------------


class _ResettingWriter:
    """StreamWriter stand-in for a client that reset the connection."""

    def write(self, blob: bytes) -> None:
        pass

    async def drain(self) -> None:
        raise ConnectionResetError("client reset during response")


def test_client_reset_before_stream_starts_releases_slot():
    """An early disconnect must return the in-flight slot even though the
    response stream was never iterated (a never-started async generator's
    ``finally`` does not run on close)."""
    from repro.serve import Request
    from repro.serve.app import App
    from repro.serve.http import write_response

    async def run() -> None:
        data = _field((64, 32), seed=13)
        with Engine(jobs=1, pool="thread") as engine:
            app = App(engine, ServeConfig())
            for _ in range(3):  # a leak would accumulate across requests
                req = Request(
                    method="POST",
                    target="/v1/compress?shape=64,32&eb=1e-3",
                    path="/v1/compress",
                    query={"shape": "64,32", "eb": "1e-3"},
                    headers={},
                    body=data.tobytes(),
                    client="127.0.0.1:5",
                )
                admission = app.admit(req)
                resp = await app.handle(req, admission)
                assert resp.stream is not None and app.inflight == 1
                with pytest.raises(ConnectionResetError):
                    await write_response(_ResettingWriter(), resp)
                assert app.inflight == 0, "admission slot leaked on reset"

    import asyncio

    asyncio.run(run())


def test_handle_propagates_cancellation():
    """Shutdown cancellation must escape ``handle`` (not become a 500), or
    keep-alive connections would outlive Ctrl-C."""
    import asyncio

    from repro.serve import Request
    from repro.serve.app import App

    class _Stub:
        jobs = 1
        pool_kind = "thread"
        queue_depth = 0
        degraded = False

    app = App(_Stub(), ServeConfig())

    async def cancelled(request):
        raise asyncio.CancelledError

    app._healthz = cancelled
    req = Request("GET", "/healthz", "/healthz", {}, {}, b"", "127.0.0.1:5")
    with pytest.raises(asyncio.CancelledError):
        asyncio.run(app.handle(req))
