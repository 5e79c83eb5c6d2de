"""Program host for the in-process workloads (``file_*``, ``batch_process``).

Run by ``perfbench/run.py`` as its own process, so that the benchmark's
input generation never sets this process's peak RSS::

    python3 perfbench/runner.py CONFIG.json [--setup-only]

It sets the program up (engine, pool, warm-up), prints ``READY``, then runs
closed-loop cycles of the workload for the configured seconds, checking
every output's sha256 against the reference digests in the config, and
prints one ``RESULT`` line.  With ``--setup-only`` it stops after ``READY``.
A traced run spends the first half of its time untraced and the second half
with the layer wrappers recording.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SLAB_BAND, band_spec, emit, peak_rss_mb, sha  # noqa: E402

now = time.perf_counter


class Ops:
    """Timed operations of one run: ``[cycle, phase, kind, wall, bytes, ok]``."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.cycle = 0
        self.phase = 0

    def time(self, kind: str, nbytes: int, call, check):
        t0 = now()
        try:
            out = call()
        except Exception as exc:  # noqa: BLE001 — a failed operation is counted
            print(f"{kind} failed: {exc!r}", file=sys.stderr)
            self.rows.append([self.cycle, self.phase, kind, now() - t0, nbytes, False])
            return None
        wall = now() - t0
        ok = bool(check(out))
        if not ok:
            print(f"{kind} output mismatch in cycle {self.cycle}", file=sys.stderr)
        self.rows.append([self.cycle, self.phase, kind, wall, nbytes, ok])
        return out


def file_cycle(engine, cfg: dict, ops: Ops) -> None:
    """One pass over the workload's field files (compress, then decompress
    each), then one slab read of the ``slab_field`` file's container."""
    work = cfg["work"]
    for i, f in enumerate(cfg["fields"]):
        fz = os.path.join(work, f"out{i}.fz")
        rec = os.path.join(work, f"rec{i}.npy")

        def container_ok(report, fz=fz, f=f):
            with open(fz, "rb") as fh:
                return sha(fh.read()) == f["container_sha"]

        ops.time("c", f["nbytes"],
                 lambda f=f, fz=fz: engine.compress_file(
                     f["path"], fz, cfg["eb"], plan=cfg["plan"]),
                 container_ok)
        ops.time("d", f["nbytes"],
                 lambda fz=fz, rec=rec: engine.decompress_file(fz, rec),
                 lambda out, f=f: sha(out) == f["decoded_sha"])
    i = cfg["slab_field"]
    f = cfg["fields"][i]
    ops.time("s", 0,
             lambda: engine.decompress_roi_file(
                 os.path.join(work, f"out{i}.fz"), band_spec(f["rows"], SLAB_BAND)),
             lambda out: sha(out) == f["bands"][str(SLAB_BAND)])


def batch_cycle(engine, cfg: dict, ops: Ops, fields, container: bytes) -> None:
    """compress_batch, decompress_batch, then one slab read of a container."""
    specs = cfg["fields"]
    nbytes = sum(f["nbytes"] for f in specs)
    results = ops.time(
        "c", nbytes, lambda: engine.compress_batch(fields, cfg["eb"]),
        lambda rs: [sha(r.stream) for r in rs] == [f["stream_sha"] for f in specs],
    )
    if results is not None:
        ops.time(
            "d", nbytes,
            lambda: engine.decompress_batch([r.stream for r in results]),
            lambda outs: [sha(a) for a in outs] == [f["decoded_sha"] for f in specs],
        )
    slab = cfg["slab"]
    ops.time("s", 0,
             lambda: engine.decompress_roi(
                 container, band_spec(slab["rows"], SLAB_BAND)),
             lambda out: sha(out) == slab["bands"][str(SLAB_BAND)])


def main(argv: list[str]) -> int:
    cfg = json.load(open(argv[0]))
    setup_only = "--setup-only" in argv
    tracer = None
    if cfg["trace"] and not setup_only:
        from repro import telemetry
        from tracing import Tracer, install

        telemetry.disable()
        tracer = install(Tracer())

    from repro.engine import Engine

    engine = Engine(jobs=cfg["jobs"], pool=cfg["pool"], plan=cfg["plan"])
    warm = Ops()
    if cfg["workload"] == "batch_process":
        fields = [np.load(f["path"]) for f in cfg["fields"]]
        slab = cfg["slab"]
        slab_field = np.load(slab["path"])
        container = warm.time(
            "w", 0,
            lambda: engine.compress_chunked(
                slab_field, cfg["eb"], chunk_bytes=slab["chunk_bytes"]),
            lambda blob: sha(blob) == slab["container_sha"],
        )
        # a fresh process pool runs its first batches at half speed
        for _ in range(2):
            batch_cycle(engine, cfg, warm, fields, container)

        def cycle(ops):
            batch_cycle(engine, cfg, ops, fields, container)
    else:
        file_cycle(engine, dict(cfg, fields=cfg["warm"], slab_field=0), warm)

        def cycle(ops):
            file_cycle(engine, cfg, ops)

    warm_ok = all(row[5] for row in warm.rows)
    emit("READY", {"warm_ok": warm_ok})
    if setup_only:
        engine.close()
        return 0

    ops = Ops()
    halves = [(0, cfg["seconds"])] if tracer is None else [
        (0, cfg["seconds"] / 2), (1, cfg["seconds"] / 2)]
    totals = None
    for phase, seconds in halves:
        ops.phase = phase
        if phase == 1:
            from repro import telemetry

            telemetry.enable()
            tracer.mark()
        deadline = now() + seconds
        while True:
            cycle(ops)
            ops.cycle += 1
            if now() >= deadline:
                break
        if phase == 1:
            totals = tracer.totals()
            telemetry.disable()
    engine.close()
    emit("RESULT", {
        "ops": ops.rows,
        "warm_ok": warm_ok,
        "peak_rss_mb": peak_rss_mb(),
        "totals": totals,
        "jobs": cfg["jobs"],
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
