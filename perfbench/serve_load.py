"""The ``serve_mixed`` workload: ``repro serve`` in its own process, one
client process driving a closed loop over keep-alive connections.

Each cycle on a connection sends four requests: a ``/v1/compress`` of a
CESM field with the default plan, a full ``/v1/decompress`` of the returned
container, and two ``/v1/decompress?slab=`` reads of a 1/16 row band of a
container with >= 16 segments that the server compressed during set-up.
Every response is checked by sha256 against an in-process
``Engine(jobs=1)``.
"""

from __future__ import annotations

import http.client
import os
import select
import signal
import subprocess
import sys
import threading
import time

from common import EB, N_BANDS, band, child_env, peak_rss_mb, sha

now = time.perf_counter

#: keep-alive connections of the closed loop (at most ``nproc``)
CONNECTIONS = 2

#: the segment size that gives the slab container >= 16 segments
SLAB_CHUNK_BYTES = 57600


class Server:
    """One ``repro serve`` process (threads, ``jobs=1``), plain or traced."""

    def __init__(self, traced_out: str | None = None) -> None:
        args = ["--port", "0", "--jobs", "1"]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, "perfbench/serve_traced.py", traced_out,
                   "--", *args]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=child_env(), text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        self.address = (host, int(port))

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            # SIGTERM: a background job may have SIGINT ignored; the traced
            # launcher maps SIGTERM onto the shipped Ctrl-C shutdown path
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One keep-alive connection; records ``[cycle, phase, kind, wall,
    bytes, ok]`` rows like ``runner.Ops`` plus its CPU time."""

    def __init__(self, address, rows: list, refs: dict, index: int) -> None:
        self.address = address
        self.rows = rows
        self.refs = refs
        self.index = index
        self.conn = http.client.HTTPConnection(*address, timeout=60)
        self.cpu_s = 0.0
        self.cycles = 0

    def post(self, path: str, body: bytes):
        t0, c0 = now(), time.thread_time()
        try:
            self.conn.request("POST", path, body=body)
            resp = self.conn.getresponse()
            data = resp.read()
            status = resp.status
        except (OSError, http.client.HTTPException) as exc:
            print(f"request {path} failed: {exc!r}", file=sys.stderr)
            self.conn.close()
            status, data = 0, b""
        self.cpu_s += time.thread_time() - c0
        return status, data, now() - t0

    def check(self, phase, kind, nbytes, path, body, expect):
        status, data, wall = self.post(path, body)
        ok = status == 200 and sha(data) == expect
        if not ok:
            print(f"{kind} {path}: status {status}, output mismatch",
                  file=sys.stderr)
        self.rows.append([self.cycles, phase, kind, wall, nbytes, ok])
        return data if ok else None

    def cycle(self, phase: int, slab: bytes) -> None:
        refs = self.refs
        field = refs["fields"][self.index % len(refs["fields"])]
        container = self.check(
            phase, "c", field["nbytes"], field["compress_path"], field["body"],
            field["container_sha"],
        )
        if container is not None:
            self.check(phase, "d", field["nbytes"], "/v1/decompress",
                       container, field["decoded_sha"])
        rows = refs["slab"]["rows"]
        for j in range(2):
            k = (2 * self.cycles + j + self.index * N_BANDS // 2) % N_BANDS
            a, b = band(rows, k)
            self.check(phase, "s", 0, f"/v1/decompress?slab={a}:{b}", slab,
                       refs["slab"]["bands"][str(k)])
        self.cycles += 1

    def close(self) -> None:
        self.conn.close()


def compress_path(shape, extra: str = "") -> str:
    return f"/v1/compress?shape={','.join(map(str, shape))}&eb={EB}{extra}"


def start(refs: dict, traced_out: str | None = None):
    """Launch and warm a server; returns ``(server, slab container, ok)``.

    Warm-up sends one full cycle per connection, after the slab container
    is compressed, so lazily built state exists before timing starts.
    """
    server = Server(traced_out)
    slab_ref = refs["slab"]
    warm = Client(server.address, [], refs, 0)
    slab = warm.check(0, "w", 0, slab_ref["compress_path"], slab_ref["body"],
                      slab_ref["container_sha"])
    ok = slab is not None
    for i in range(CONNECTIONS):
        warm.index = i
        warm.cycle(0, slab or b"")
    warm.close()
    ok = ok and all(row[5] for row in warm.rows)
    return server, slab, ok


def drive(server: Server, slab: bytes, refs: dict, seconds: float,
          phase: int, rows: list) -> tuple[float, int, float]:
    """Closed loop on every connection until ``seconds`` pass.

    Each connection finishes the cycle it is in, so every counted cycle is
    whole.  Returns ``(window seconds, cycles, client CPU seconds)``.
    """
    clients = [Client(server.address, rows, refs, i) for i in range(CONNECTIONS)]
    t0 = now()
    deadline = t0 + seconds

    def loop(client: Client) -> None:
        while now() < deadline:
            client.cycle(phase, slab)

    threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window = now() - t0
    for c in clients:
        c.close()
    return window, sum(c.cycles for c in clients), sum(c.cpu_s for c in clients)


def measure(refs: dict, seconds: float, trace: bool, setups: int, work: str):
    """Run the workload; returns the raw figures ``run.py`` reduces."""
    setup_s = []
    warm_ok = True
    for _ in range(setups - 1):
        t0 = now()
        server, _, ok = start(refs)
        setup_s.append(now() - t0)
        warm_ok &= ok
        server.stop()
    rows: list = []
    out: dict = {"rows": rows}
    phases = [(0, seconds)] if not trace else [(0, seconds / 2), (1, seconds / 2)]
    for phase, span in phases:
        traced_out = os.path.join(work, "serve_totals.json") if phase else None
        t0 = now()
        server, slab, ok = start(refs, traced_out)
        setup_s.append(now() - t0)
        warm_ok &= ok
        try:
            if traced_out:
                server.signal(signal.SIGUSR1)
                time.sleep(0.05)
            window, cycles, cpu = drive(server, slab or b"", refs, span, phase, rows)
            out[phase] = {"window": window, "cycles": cycles, "client_cpu": cpu}
            out["peak_rss_mb"] = peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
        if traced_out:
            import json

            with open(traced_out) as f:
                out["totals"] = json.load(f)
    out["setup_s"] = setup_s
    out["warm_ok"] = warm_ok
    return out
