"""Concurrency and backpressure tier for ``repro.serve``.

Proves the service holds its contract *under load*: N concurrent clients
with mixed compress/decompress traffic each get exactly their own bytes
back (order-independence, no cross-request buffer aliasing through the
shared :class:`~repro.utils.pool.BufferPool`), shedding kicks in
deterministically at both admission signals (in-flight cap and engine
queue-depth high-water mark), and a ``RUN_SLOW`` soak shows zero
steady-state growth in the scratch arenas over ~1k requests.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.engine import Engine
from repro.serve import App, HttpError, ServeConfig
from repro.telemetry.recorder import Recorder

from tests.serve_support import (
    http_compress,
    http_decompress,
    live_server,
    request,
)


def _field(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape, dtype=np.float32)


# ---------------------------------------------------------------------------
# mixed concurrent traffic
# ---------------------------------------------------------------------------


def test_concurrent_mixed_clients_get_their_own_bytes():
    """8 clients × mixed verbs: every response matches that client's data."""
    n_clients, n_rounds = 8, 3
    with live_server(jobs=4, pool="thread") as (srv, app, engine):
        fields = [_field((96, 32), seed=i) for i in range(n_clients)]
        expected = [engine.compress_chunked(f, 1e-3) for f in fields]

        def client(i: int) -> None:
            for r in range(n_rounds):
                if (i + r) % 2 == 0:
                    status, _, blob = http_compress(srv.address, fields[i], 1e-3)
                    assert status == 200
                    assert blob == expected[i], f"client {i} got foreign bytes"
                else:
                    status, _, recon = http_decompress(srv.address, expected[i])
                    assert status == 200
                    assert np.array_equal(
                        recon, engine.decompress_chunked(expected[i])
                    ), f"client {i} got foreign rows"

        with ThreadPoolExecutor(n_clients) as pool:
            for fut in [pool.submit(client, i) for i in range(n_clients)]:
                fut.result(timeout=120)


def test_concurrent_load_reuses_pool_buffers():
    """Under concurrency the BufferPool recycles arenas (hits), results stay
    correct — which is the observable proof there is no aliasing."""
    telemetry.enable()
    rec = telemetry.get_recorder()
    try:
        with live_server(jobs=2, pool="thread") as (srv, app, engine):
            data = _field((128, 64), seed=42)
            expected = engine.compress_chunked(data, 1e-3)
            before_miss = rec.metrics.value("pool.miss") or 0

            def one(_):
                status, _, blob = http_compress(srv.address, data, 1e-3)
                assert status == 200 and blob == expected

            with ThreadPoolExecutor(4) as pool:
                list(pool.map(one, range(12)))
            hits = rec.metrics.value("pool.hit") or 0
            misses = (rec.metrics.value("pool.miss") or 0) - before_miss
        assert hits > 0
        # misses are bounded by the worker count, not the request count
        assert misses <= engine.jobs + 1
    finally:
        telemetry.disable()


# ---------------------------------------------------------------------------
# shedding
# ---------------------------------------------------------------------------


class _GatedEngine(Engine):
    """Engine whose compress path blocks until ``gate`` is set (test hook)."""

    def __init__(self, gate: threading.Event, **kw) -> None:
        super().__init__(**kw)
        self._gate = gate

    def compress_chunked_to(self, *args, **kwargs):
        self._gate.wait(30)
        return super().compress_chunked_to(*args, **kwargs)


def test_shed_429_at_inflight_cap():
    gate = threading.Event()
    engine = _GatedEngine(gate, jobs=1, pool="thread")
    rec = Recorder(enabled=True)
    cfg = ServeConfig(max_inflight=1, retry_after=2.5)
    data = _field((32, 32), seed=0)
    with live_server(engine=engine, config=cfg, recorder=rec) as (srv, app, _):
        results: list = []
        holder = threading.Thread(
            target=lambda: results.append(http_compress(srv.address, data, 1e-3))
        )
        holder.start()
        try:
            # wait until the gated request holds the admission slot
            for _ in range(500):
                if app.inflight == 1:
                    break
                threading.Event().wait(0.01)
            assert app.inflight == 1

            status, headers, body = http_compress(srv.address, data, 1e-3)
            assert status == 429
            err = json.loads(body)
            assert err["error"] == "Backpressure"
            assert float(headers["retry-after"]) == pytest.approx(2.5)

            # /v1/info is engine-bound too: it sheds at the same cap
            status, _, body = request(srv.address, "POST", "/v1/info", b"x")
            assert status == 429
            assert json.loads(body)["error"] == "Backpressure"

            health = json.loads(request(srv.address, "GET", "/healthz")[2])
            assert health["status"] == "busy" and health["inflight"] == 1
        finally:
            gate.set()
        holder.join(60)
        assert results and results[0][0] == 200
        assert results[0][2] == engine.compress_chunked(data, 1e-3)
        # capacity is back: both the health bit and real admission recover
        assert json.loads(request(srv.address, "GET", "/healthz")[2])["status"] == "ok"
        assert http_compress(srv.address, data, 1e-3)[0] == 200
        assert rec.metrics.value("serve.shed", {"reason": "inflight"}) == 2
    engine.close()


def test_shed_429_at_queue_depth_high_water():
    """The queue-depth signal sheds on its own, independent of in-flight."""

    class _Stub:
        jobs = 1
        pool_kind = "thread"
        queue_depth = 7
        degraded = False

    app = App(_Stub(), ServeConfig(queue_high_water=4))
    with pytest.raises(HttpError) as err:
        app._acquire()
    assert err.value.status == 429
    assert "queue depth 7" in str(err.value)
    assert app.inflight == 0  # a shed request must not leak admission slots

    app2 = App(_Stub(), ServeConfig(queue_high_water=8))
    app2._acquire()
    assert app2.inflight == 1
    app2._release()
    assert app2.inflight == 0


def test_connection_cap_sheds_503_and_recovers():
    """Past ``max_connections`` new sockets get a typed 503 and are closed;
    capacity returns as soon as a connection goes away."""
    import socket
    import time

    cfg = ServeConfig(max_connections=2, retry_after=1.5)
    rec = Recorder(enabled=True)
    with live_server(jobs=1, pool="thread", config=cfg, recorder=rec) as (
        srv, app, engine,
    ):
        held = [socket.create_connection(srv.address, timeout=30)
                for _ in range(2)]
        try:
            status, headers, body = request(srv.address, "GET", "/healthz")
            assert status == 503
            assert json.loads(body)["error"] == "TooManyConnections"
            assert float(headers["retry-after"]) == pytest.approx(1.5)
            assert rec.metrics.value(
                "serve.shed", {"reason": "connections"}
            ) == 1
        finally:
            held[0].close()
        # the server notices the close asynchronously; capacity comes back
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if request(srv.address, "GET", "/healthz")[0] == 200:
                break
            time.sleep(0.02)
        else:
            raise AssertionError("connection slot never came back")
        held[1].close()


def test_default_high_water_scales_with_jobs():
    class _Stub:
        jobs = 6
        pool_kind = "thread"
        queue_depth = 0
        degraded = False

    assert App(_Stub()).queue_high_water == 48
    assert App(_Stub(), ServeConfig(queue_high_water=3)).queue_high_water == 3


# ---------------------------------------------------------------------------
# soak
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_soak_steady_state_zero_arena_growth():
    """~1k mixed requests: scratch arenas stop growing after warm-up."""
    telemetry.enable()
    rec = telemetry.get_recorder()
    try:
        with live_server(jobs=2, pool="thread") as (srv, app, engine):
            data = _field((64, 64), seed=1)
            blob = engine.compress_chunked(data, 1e-3)

            def one(i):
                if i % 2 == 0:
                    status, _, out = http_compress(srv.address, data, 1e-3)
                    assert status == 200 and out == blob
                else:
                    status, _, recon = http_decompress(srv.address, blob)
                    assert status == 200 and recon.shape == (64, 64)

            def arenas():
                return {
                    frozenset((k, a.nbytes) for k, a in s._arenas.items())
                    for s in engine.buffer_pool._free
                }

            def warm() -> bool:
                return (len(engine.buffer_pool._free) == engine.jobs
                        and len(arenas()) == 1)

            # warm-up: arenas may grow.  Which scratch serves which request
            # is up to thread timing, and one that has not yet served both
            # kinds (or does not exist yet) grows later, so warm up until
            # every worker's scratch exists and holds the same arenas
            for _ in range(20):
                with ThreadPoolExecutor(4) as pool:
                    list(pool.map(one, range(32)))
                if warm():
                    break
            assert warm()
            grown = rec.metrics.value("pool.scratch_growth") or 0
            retained = len(engine.buffer_pool._free) + 0

            with ThreadPoolExecutor(4) as pool:
                list(pool.map(one, range(1000)))

            assert (rec.metrics.value("pool.scratch_growth") or 0) == grown
            assert len(engine.buffer_pool._free) <= max(retained, engine.jobs)
            assert app.inflight == 0
    finally:
        telemetry.disable()
