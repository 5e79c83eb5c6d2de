"""Chaos tier for ``repro.serve``: the service under injected faults.

Runs the live server with :mod:`repro.faults` plans active (the same
deterministic injection layer the engine chaos suite uses, also reachable
via ``REPRO_FAULTS``) and pins the serving contract:

* transient faults are retried *server-side* — the client sees one clean
  200 with byte-identical output, never a retry burden;
* a worker crash that exhausts the retry budget surfaces as a typed 5xx
  with a structured JSON body (attempts + per-attempt history), while the
  server keeps serving and ``/healthz`` recovers;
* a crash after response headers are out aborts the chunked stream — a
  hard, detectable truncation, never a wedged connection;
* bit rot planted by ``segment_corrupt`` is fully byte-accounted by the
  ``/v1/salvage`` endpoint.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys

import numpy as np
import pytest

from repro import faults
from repro.engine import Engine
from repro.serve import ServeConfig

from tests.serve_support import http_compress, live_server, request

pytestmark = pytest.mark.slow

FAST = {"backoff": 0.001}


def _field(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape, dtype=np.float32)


@pytest.fixture()
def clean_blob():
    data = _field((96, 32), seed=4)
    with Engine(jobs=1) as engine:
        return data, engine.compress_chunked(data, 1e-3)


@pytest.mark.parametrize(
    "plan",
    ["transient_error:p=0.4,seed=7", "worker_crash:at=1,times=2"],
    ids=["transient", "crash-retried"],
)
def test_faults_absorbed_server_side(plan, clean_blob):
    data, expected = clean_blob
    with faults.installed(faults.FaultPlan.parse(plan)):
        with live_server(jobs=2, pool="thread", retries=3, **FAST) as (
            srv, app, engine,
        ):
            status, _, blob = http_compress(srv.address, data, 1e-3)
    assert status == 200
    assert blob == expected  # recovery changes wall-clock, never bytes


@pytest.mark.parametrize(
    "plan",
    ["transient_error:p=0.4,seed=7", "worker_crash:at=1,times=2"],
    ids=["transient", "crash-retried"],
)
def test_faults_absorbed_over_shm_transport(plan, clean_blob):
    """The process-pool leg: same contract, shm descriptors in play.

    Recovery re-runs tasks whose shm leases were already retired; the
    client must still see one clean 200 with byte-identical output, and
    the worker pool must not leak segments across the retries.
    """
    from repro.utils.pool import shm_available

    if not shm_available():
        pytest.skip("POSIX shared memory unavailable")
    data, expected = clean_blob
    with faults.installed(faults.FaultPlan.parse(plan)):
        with live_server(
            jobs=2, pool="process", retries=3, **FAST
        ) as (srv, app, engine):
            status, _, blob = http_compress(srv.address, data, 1e-3)
            assert status == 200
            assert blob == expected
            # the round trip survives the same fault plan over shm too
            status, headers, raw = request(
                srv.address, "POST", "/v1/decompress", blob
            )
    assert status == 200
    shape = tuple(int(n) for n in headers["x-repro-shape"].split(","))
    out = np.frombuffer(raw, "<f4").reshape(shape)
    assert np.allclose(out, data, atol=2e-3 * np.ptp(data))


def test_exhausted_retries_surface_structured_5xx(clean_blob):
    data, expected = clean_blob
    with live_server(jobs=2, pool="thread", retries=1, **FAST) as (
        srv, app, engine,
    ):
        with faults.installed(
            faults.FaultPlan.parse("worker_crash:at=0,times=99")
        ):
            status, headers, body = http_compress(srv.address, data, 1e-3)
            assert status == 500
            err = json.loads(body)
            assert err["error"] == "TaskQuarantined"
            assert err["attempts"] == 2  # retries=1 -> two attempts
            assert "crash" in err["history"]
            # the connection pool is not wedged: health answers immediately
            assert request(srv.address, "GET", "/healthz")[0] == 200
        # plan gone: the SAME server recovers and serves clean traffic
        status, _, blob = http_compress(srv.address, data, 1e-3)
        assert status == 200 and blob == expected
        health = json.loads(request(srv.address, "GET", "/healthz")[2])
        assert health["status"] == "ok" and health["inflight"] == 0


def test_timeout_quarantine_has_timeout_history(clean_blob):
    data, _ = clean_blob
    with live_server(
        jobs=2, pool="thread", retries=0, task_timeout=0.15, **FAST
    ) as (srv, app, engine):
        with faults.installed(
            faults.FaultPlan.parse("worker_hang:at=0,times=99,hang_s=5")
        ):
            status, _, body = http_compress(srv.address, data, 1e-3)
    assert status == 500
    err = json.loads(body)
    assert err["error"] == "TaskQuarantined" and err["history"] == ["timeout"]


def test_crash_mid_stream_truncates_instead_of_hanging():
    """Headers already sent -> the abort is a chunked-framing truncation."""
    data = _field((256, 64), seed=6)
    cfg = ServeConfig(stream_flush_bytes=1)  # flush every completed segment
    with live_server(jobs=1, pool="thread", retries=0, config=cfg, **FAST) as (
        srv, app, engine,
    ):
        with faults.installed(
            faults.FaultPlan.parse("worker_crash:at=3,times=99")
        ):
            shape = ",".join(str(n) for n in data.shape)
            with socket.create_connection(srv.address, timeout=60) as sock:
                body = data.tobytes()
                head = (
                    f"POST /v1/compress?shape={shape}&eb=1e-3&"
                    f"chunk_bytes=4096 HTTP/1.1\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                sock.sendall(head + body)
                reply = bytearray()
                while True:  # server must CLOSE, not stall (socket timeout)
                    got = sock.recv(65536)
                    if not got:
                        break
                    reply += got
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert b"Transfer-Encoding: chunked" in reply
        # segments before the crash streamed out...
        head_end = reply.index(b"\r\n\r\n") + 4
        assert len(reply) > head_end
        # ...but the terminal zero-length chunk never did: hard truncation
        assert not reply.endswith(b"0\r\n\r\n")
        assert app.recorder.metrics  # recorder reachable; no assertion on it
        # the server is still alive for the next client
        assert request(srv.address, "GET", "/healthz")[0] == 200


def test_segment_corrupt_bit_rot_is_byte_accounted_by_salvage():
    data = _field((256, 64), seed=8)
    with live_server(jobs=2, pool="thread", **FAST) as (srv, app, engine):
        with faults.installed(
            faults.FaultPlan.parse("segment_corrupt:at=1,seed=5")
        ):
            status, _, rotten = http_compress(
                srv.address, data, 1e-3, chunk_bytes=16384
            )
        assert status == 200
        # the rot is real: a strict decompress refuses the container
        status, _, body = request(srv.address, "POST", "/v1/decompress", rotten)
        assert status == 400
        # salvage recovers every other segment and accounts for the loss
        status, _, body = request(srv.address, "POST", "/v1/salvage", rotten)
        assert status == 200
        report = json.loads(body)
        assert report["lost_segments"] == 1
        assert report["recovered_segments"] > 0
        assert (
            report["recovered_bytes"] + report["lost_bytes"]
            == report["total_bytes"]
            == data.nbytes
        )
        lost = [s for s in report["segments"] if s["status"] == "lost"]
        assert [s["ordinal"] for s in lost] == [1]


def test_cli_serve_under_env_faults_smoke(tmp_path):
    """`repro serve` + REPRO_FAULTS: the real process absorbs transients."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["REPRO_FAULTS"] = "transient_error:p=0.3,seed=7"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2", "--retries", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        line = proc.stdout.readline()
        assert "listening on http://" in line, line
        host_port = line.split("http://", 1)[1].split()[0]
        host, port = host_port.split(":")
        data = _field((64, 64), seed=11)
        conn = http.client.HTTPConnection(host, int(port), timeout=120)
        try:
            shape = ",".join(str(n) for n in data.shape)
            conn.request(
                "POST", f"/v1/compress?shape={shape}&eb=1e-3", data.tobytes()
            )
            resp = conn.getresponse()
            blob = resp.read()
            assert resp.status == 200
        finally:
            conn.close()
        with Engine(jobs=1) as engine:
            assert blob == engine.compress_chunked(data, 1e-3)
            assert np.allclose(
                engine.decompress_chunked(blob), data, atol=2e-3 * 10
            )
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(10)
