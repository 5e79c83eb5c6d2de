"""Serving overhead: concurrent HTTP clients vs direct Engine batch.

Compresses the same 8-field workload two ways — directly through an
``Engine`` (the in-process ceiling) and through ``repro.serve`` with 8
concurrent streaming HTTP clients hammering a live socket — checks the
containers are byte-identical either way, and times both interleaved under
the shared gate (``gate.py``).

The clients run in their own *processes* (as real clients would), so the
measurement is the server path — parsing, dispatch, engine, chunked
streaming — not the GIL cost of simulating clients inside the server
process.

The acceptance floor: the HTTP path keeps at least ``1/1.3`` of direct
throughput (the ceiling on serving overhead), and the run sheds nothing.
Regenerate the baseline after an intentional perf change:

    REPRO_UPDATE_BENCH=1 python -m pytest benchmarks/bench_serve.py -q
"""

from __future__ import annotations

import hashlib
import http.client
import multiprocessing

import gate
import numpy as np

from repro.engine import Engine
from repro.serve import ServeConfig

from tests.serve_support import live_server

N_CLIENTS = 8
PASSES = 2          # requests per client per timed round
SHAPE = (512, 512)  # 1 MiB per field: real work, so framing cost is marginal
EB = 1e-3
JOBS = 2
#: Small enough that every response streams several container segments —
#: the serving path under test is the *streaming* one, not one-shot bodies.
CHUNK_BYTES = 128 << 10

#: Acceptance ceiling: the HTTP path may cost at most 1.3x direct wall-clock,
#: i.e. its throughput must stay above 1/1.3 of the direct Engine batch.
OVERHEAD_CEILING = 1.3


def _make_fields() -> list[np.ndarray]:
    rng = np.random.default_rng(31)
    base = np.cumsum(rng.standard_normal(SHAPE, dtype=np.float32), axis=0)
    return [np.roll(base, 7 * k, axis=0) for k in range(N_CLIENTS)]


def _client_proc(i, address, body, barrier, results) -> None:
    """One client process: keep-alive connection, PASSES requests a round.

    Each round is bracketed by two barrier waits that pair with the
    parent's ``http`` side in :func:`_measure`, so the parent's clock covers
    exactly the request traffic.
    """
    shape = ",".join(str(n) for n in SHAPE)
    conn = http.client.HTTPConnection(address[0], address[1], timeout=120)
    target = (
        f"/v1/compress?shape={shape}&eb={EB!r}&mode=rel"
        f"&chunk_bytes={CHUNK_BYTES}"
    )
    try:
        def once() -> bytes:
            conn.request(
                "POST", target, body, headers={"X-Repro-Client": f"bench-{i}"}
            )
            resp = conn.getresponse()
            out = resp.read()
            assert resp.status == 200, resp.status
            return out

        blob = once()  # warm the connection and the server arenas
        for _ in range(gate.ROUNDS):
            barrier.wait(timeout=120)
            for _ in range(PASSES):
                blob = once()
            barrier.wait(timeout=120)
        results.put((i, hashlib.sha256(blob).hexdigest()))
    finally:
        conn.close()


def _measure():
    fields = _make_fields()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    barrier = ctx.Barrier(N_CLIENTS + 1)
    results = ctx.Queue()
    # Throughput-tuned serving config: flush streamed segments in large
    # chunks so the chunked framing cost is marginal against compression,
    # and lift the queue-depth high-water well above the peak backlog
    # (N_CLIENTS requests x 8 chunks each) — this benchmark measures the
    # serving path at full admission, not the shedding behaviour.
    cfg = ServeConfig(stream_flush_bytes=8 << 20, queue_high_water=1024)
    with Engine(jobs=JOBS, pool="thread") as engine, live_server(
        jobs=JOBS, pool="thread", config=cfg
    ) as (srv, app, _eng):

        def direct() -> list[bytes]:
            return [
                engine.compress_chunked(x, EB, "rel", chunk_bytes=CHUNK_BYTES)
                for x in fields
            ]

        def http() -> None:
            # a timed-out barrier (e.g. a crashed client) breaks for every
            # waiter, so the run fails fast instead of hanging
            barrier.wait(timeout=120)  # clients lined up, requests start now
            barrier.wait(timeout=120)  # every client finished its passes

        expected = [hashlib.sha256(blob).hexdigest() for blob in direct()]
        procs = [
            ctx.Process(
                target=_client_proc,
                args=(i, srv.address, fields[i].tobytes(), barrier, results),
            )
            for i in range(N_CLIENTS)
        ]
        for p in procs:
            p.start()
        try:
            times = gate.interleave({"direct": direct, "http": http})
            digests = dict(results.get(timeout=60) for _ in procs)
        finally:
            for p in procs:
                p.join(timeout=30)
                if p.is_alive():
                    p.terminate()
        shed = sum(
            v for name, _labels, v in app.recorder.metrics.snapshot()["counters"]
            if name == "serve.shed"
        )
    # each timed HTTP round moves PASSES x the direct payload through the server
    times["http"] = [t / PASSES for t in times["http"]]
    claims = [gate.Claim("http_vs_direct", **gate.ratio(times, "direct", "http"),
                         floor=1.0 / OVERHEAD_CEILING)]
    checks = {
        "byte_identical": all(digests[i] == expected[i] for i in range(N_CLIENTS)),
        # a shed means the high-water above is too low for this load
        "no_shed": shed == 0,
    }
    return claims, checks, {
        "clients": N_CLIENTS,
        "passes": PASSES,
        "shape": list(SHAPE),
        "eb": EB,
        "chunk_bytes": CHUNK_BYTES,
        "jobs": JOBS,
        "ms": gate.best_ms(times),
        "shed_429": shed,
    }


def test_serve_overhead_gate():
    gate.enforce("serve", *_measure())
