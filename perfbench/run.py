"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload file_fast --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The inputs come from ``repro.datasets``
with the given seed and are written under ``.perfbench_work/``, which is
removed afterwards.  The program runs in a process of its own
(``runner.py`` or ``repro serve``), set up several times to measure
``setup_s``, and every output is checked by sha256 against an in-process
``Engine(jobs=1)`` reference, whose reconstruction must also hold the error
bound.  The last stdout line is the result; the line before it is the run
record (provenance and sample counts).  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.  The exit code is 1 when
an output is wrong and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from io import BytesIO

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from common import (  # noqa: E402
    EB, N_BANDS, band, child_env, emit, median, percentile, sha,
)

now = time.perf_counter

#: set-ups per run; the reported ``setup_s`` is their median
SETUPS = {"file_fast": 5, "file_auto": 5, "batch_process": 5, "serve_mixed": 5}

#: latency percentile reported as ``latency_p95_ms``.  A tail percentile
#: needs ``MIN_BEYOND`` samples beyond it in every run: p95 needs 200
#: requests, which only ``serve_mixed`` reaches.  The file and batch
#: workloads make 5-25 round trips (cycles) a run, too few for any
#: percentile above the median, so they report the median there.
TAIL_Q = {"file_fast": 50, "file_auto": 50, "batch_process": 50, "serve_mixed": 95}
MIN_BEYOND = 10

#: field whose container a file-workload cycle reads one slab of: the
#: single nyx field of ``file_fast``, the nyx field of ``file_auto``
SLAB_FIELD = {"file_fast": 0, "file_auto": 1}


# -- inputs and references ---------------------------------------------------


def _quality(data, decoded, eb_abs: float, stored_bytes: int) -> dict:
    from repro.metrics import check_error_bound, psnr

    return {
        "psnr": float(psnr(data, decoded)),
        "bound_ok": bool(check_error_bound(data, decoded, eb_abs)),
        "nbytes": int(data.nbytes),
        "stored": int(stored_bytes),
    }


def chunked_reference(engine, data, plan: str = "fast",
                      chunk_bytes: int | None = None) -> dict:
    """Container and decode digests from an in-process ``Engine(jobs=1)``."""
    from repro.engine import DEFAULT_CHUNK_BYTES

    buf = BytesIO()
    report = engine.compress_chunked_to(
        buf, data, EB, chunk_bytes=chunk_bytes or DEFAULT_CHUNK_BYTES, plan=plan
    )
    blob = buf.getvalue()
    decoded = engine.decompress_chunked(blob)
    rows = data.shape[0]
    return {
        "rows": rows,
        "nbytes": int(data.nbytes),
        "container_sha": sha(blob),
        "decoded_sha": sha(decoded),
        "bands": {str(k): sha(decoded[slice(*band(rows, k))])
                  for k in range(N_BANDS)},
        "quality": _quality(data, decoded, report.eb_abs, len(blob)),
        "blob": blob,
    }


def _segments(blob: bytes) -> int:
    """Segment count of a slab container; a 1/16 band must skip segments."""
    from repro.engine import read_containers

    n = len(read_containers(BytesIO(blob))[0].segments)
    if n < N_BANDS:
        raise RuntimeError(f"slab container has {n} < {N_BANDS} segments")
    return n


def _describe(name: str, data) -> dict:
    return {"field": name, "shape": list(data.shape), "bytes": int(data.nbytes)}


def realization(seed: int, index: int, dataset: str, name: str | None = None,
                shape=None):
    """Input field ``index`` of a run: a fixed realization, shifted by seed.

    Two generator seeds give fields whose compressibility differs by up to
    a third, which would swamp the run-to-run noise the bounds are set
    from.  So every run compresses the generator's seed-0 realization,
    rolled along its last axis by an offset drawn from ``(seed, index)``:
    other bytes and chunk contents for every seed, the same statistics.
    """
    import zlib

    import numpy as np
    from repro.datasets import generate

    data = generate(dataset, field=name, shape=shape, seed=0).data
    shift = zlib.crc32(f"{seed}/{index}".encode()) % data.shape[-1]
    return np.ascontiguousarray(np.roll(data, shift, axis=-1))


def _file_fields(work: str, fields, plan: str, prefix: str) -> list[dict]:
    import numpy as np
    from repro.engine import Engine

    out = []
    with Engine(jobs=1) as engine:
        for i, (name, data) in enumerate(fields):
            path = os.path.join(work, f"{prefix}{i}.npy")
            np.save(path, data)
            ref = chunked_reference(engine, data, plan)
            del ref["blob"]
            out.append(dict(ref, path=path, **_describe(name, data)))
    return out


def prepare_file(workload: str, seed: int, work: str) -> dict:
    """``file_fast``: one ~64 MiB nyx field.  ``file_auto``: Table 1 fields
    whose chunks the ``auto`` plan routes to all three segment plans."""
    from repro.engine import DEFAULT_CHUNK_BYTES

    if workload == "file_fast":
        plan = "fast"
        specs = [("nyx", (256, 256, 256))]
    else:
        plan = "auto"
        specs = [("hurricane", None), ("nyx", None), ("rtm", (512, 128, 96)),
                 ("qmcpack", None), ("hacc", None)]
    fields = []
    warm = []
    for i, (dataset, shape) in enumerate(specs):
        data = realization(seed, i, dataset, shape=shape)
        fields.append((dataset, data))
        # warm-up on each field's first container segment
        row_bytes = data[0].nbytes if data.ndim > 1 else 4
        warm.append((dataset, data[: max(1, DEFAULT_CHUNK_BYTES // row_bytes)]))
    return {
        "workload": workload, "eb": EB, "plan": plan, "jobs": 1,
        "pool": "thread", "work": work, "slab_field": SLAB_FIELD[workload],
        "fields": _file_fields(work, fields, plan, "in"),
        "warm": _file_fields(work, warm, plan, "warm"),
    }


def prepare_batch(seed: int, work: str) -> dict:
    """Independent mid-size fields for ``compress_batch`` on a process pool."""
    import numpy as np
    from repro.datasets import dataset_fields
    from repro.engine import Engine
    from serve_load import SLAB_CHUNK_BYTES

    names = [("cesm", n, None) for n in dataset_fields("cesm")]
    names += [("hurricane", n, (16, 250, 250)) for n in dataset_fields("hurricane")]
    fields = [realization(seed, i, d, n, s) for i, (d, n, s) in enumerate(names)]
    slab_data = realization(seed, len(fields), "cesm", "T")
    specs = []
    with Engine(jobs=1) as engine:
        results = engine.compress_batch(fields, EB)
        decoded = engine.decompress_batch([r.stream for r in results])
        for i, (f, r, d) in enumerate(zip(fields, results, decoded)):
            path = os.path.join(work, f"in{i}.npy")
            np.save(path, f)
            specs.append({
                "path": path, "nbytes": int(f.nbytes),
                "stream_sha": sha(r.stream), "decoded_sha": sha(d),
                "quality": _quality(f, d, r.eb_abs, len(r.stream)),
                **_describe(f"{names[i][0]}/{names[i][1]}", f),
            })
        slab = chunked_reference(engine, slab_data, chunk_bytes=SLAB_CHUNK_BYTES)
    del slab["quality"]
    slab["segments"] = _segments(slab.pop("blob"))
    slab_path = os.path.join(work, "slab.npy")
    np.save(slab_path, slab_data)
    slab.update(path=slab_path, chunk_bytes=SLAB_CHUNK_BYTES,
                **_describe("cesm/T", slab_data))
    return {
        "workload": "batch_process", "eb": EB, "plan": "fast",
        "jobs": os.cpu_count() or 1, "pool": "process", "work": work,
        "fields": specs, "slab": slab,
    }


def prepare_serve(seed: int, work: str) -> dict:
    """CESM fields for ``/v1/compress`` and a >= 16-segment slab container."""
    from repro.engine import Engine
    from serve_load import SLAB_CHUNK_BYTES, compress_path

    fields = []
    with Engine(jobs=1) as engine:
        for i, name in enumerate(("RELHUM", "T")):
            data = realization(seed, i, "cesm", name)
            ref = chunked_reference(engine, data)
            del ref["blob"]
            fields.append(dict(
                ref, body=data.astype("<f4").tobytes(),
                compress_path=compress_path(data.shape),
                **_describe(f"cesm/{name}", data),
            ))
        data = realization(seed, 2, "cesm", "PS")
        slab = chunked_reference(engine, data, chunk_bytes=SLAB_CHUNK_BYTES)
    del slab["quality"]
    slab["segments"] = _segments(slab.pop("blob"))
    slab.update(
        body=data.astype("<f4").tobytes(),
        compress_path=compress_path(data.shape, f"&chunk_bytes={SLAB_CHUNK_BYTES}"),
        **_describe("cesm/PS", data),
    )
    return {"workload": "serve_mixed", "fields": fields, "slab": slab, "jobs": 1}


# -- running the program -------------------------------------------------------


def host(cfg_path: str, setup_only: bool, timeout: float):
    """Start ``runner.py``; returns ``(seconds to READY, warm ok, result)``."""
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), cfg_path]
    if setup_only:
        cmd.append("--setup-only")
    t0 = now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    ready = warm_ok = result = None
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY":
                ready = now() - t0
                warm_ok = json.loads(payload)["warm_ok"]
            elif tag == "RESULT":
                result = json.loads(payload)
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or not (setup_only or result):
        raise RuntimeError(f"runner exited with {proc.returncode}")
    return ready, warm_ok, result


def measure_host(cfg: dict, seconds: float, trace: bool, work: str) -> dict:
    cfg = dict(cfg, seconds=seconds, trace=int(trace))
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    setups = SETUPS[cfg["workload"]]
    setup_s, warm_ok = [], True
    for i in range(setups):
        last = i == setups - 1
        ready, ok, result = host(cfg_path, not last, seconds + 150)
        setup_s.append(ready)
        warm_ok &= ok
    return {
        "rows": result["ops"], "setup_s": setup_s, "warm_ok": warm_ok,
        "peak_rss_mb": result["peak_rss_mb"], "totals": result["totals"],
    }


# -- metrics -------------------------------------------------------------------


def _walls(rows, kind: str, phase: int = 0) -> list[float]:
    return [r[3] for r in rows if r[2] == kind and r[1] == phase and r[5]]


def _mbps(rows, kind: str) -> float:
    """MB of the ``kind`` calls ÷ their summed wall (``serve_mixed``)."""
    done = [r for r in rows if r[2] == kind and r[1] == 0 and r[5]]
    return sum(r[4] for r in done) / 1e6 / sum(r[3] for r in done)


def _cycles(rows, phase: int, kinds: str = "cds") -> list[tuple[float, int, int]]:
    """``(wall, bytes, ops)`` of each cycle's calls of the given kinds."""
    by_cycle: dict = {}
    for r in rows:
        if r[1] == phase and r[2] in kinds:
            wall, nbytes, ops = by_cycle.get(r[0], (0.0, 0, 0))
            by_cycle[r[0]] = (wall + r[3], nbytes + r[4], ops + 1)
    return list(by_cycle.values())


def _cycle_rate(rows, kinds: str, unit: str) -> float:
    """One cycle's MB (``unit="bytes"``) or calls of the given kinds ÷ the
    median cycle's wall for them.  Every cycle does the same work; the
    median keeps a stretch of host interference out of the figure."""
    cycles = _cycles(rows, 0, kinds)
    amount = cycles[0][1] / 1e6 if unit == "bytes" else cycles[0][2]
    return amount / median([c[0] for c in cycles])


def _cycle_walls(rows, phase: int) -> list[float]:
    return [c[0] for c in _cycles(rows, phase)]


def end_to_end(workload: str, cfg: dict, raw: dict, quality: list[dict]) -> dict:
    rows = raw["rows"]
    attempted = len(rows)
    failed = sum(1 for r in rows if not r[5])
    if workload == "serve_mixed":
        done = [r for r in rows if r[5]]
        latencies = [r[3] for r in done]
        req_per_s = len(done) / raw[0]["window"]
        compress, decompress = _mbps(rows, "c"), _mbps(rows, "d")
    else:
        # a cycle's round trip: every field compressed, then decompressed
        latencies = [c[0] for c in _cycles(rows, 0, "cd")]
        req_per_s = _cycle_rate(rows, "cds", "calls")
        compress = _cycle_rate(rows, "c", "bytes")
        decompress = _cycle_rate(rows, "d", "bytes")
    tail = TAIL_Q[workload]
    if len(latencies) * (100 - tail) / 100 < MIN_BEYOND and tail > 50:
        raise RuntimeError(
            f"{len(latencies)} latency samples leave fewer than {MIN_BEYOND} "
            f"beyond p{tail}; run longer")
    slab_s = sum(_walls(rows, "s"))
    return {
        "compress_MBps": compress,
        "decompress_MBps": decompress,
        "ratio": sum(q["nbytes"] for q in quality) / sum(q["stored"] for q in quality),
        "psnr_db": sum(q["psnr"] for q in quality) / len(quality),
        "req_per_s": req_per_s,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, tail) * 1e3,
        "slab_latency_p50_ms": median(_walls(rows, "s")) * 1e3,
        "peak_rss_MB": raw["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": median(raw["setup_s"]),
    }, {
        "latency_samples": len(latencies),
        "latency_p95_reports_percentile": tail,
        "slab_samples": len(_walls(rows, "s")),
        "slab_share_of_op_wall": slab_s / sum(r[3] for r in rows if r[1] == 0),
    }


def per_layer(workload: str, cfg: dict, raw: dict) -> dict:
    from tracing import layer_metrics, unattributed

    rows, totals = raw["rows"], raw["totals"]
    if workload == "serve_mixed":
        cycles = raw[1]["cycles"]
        wall = raw[1]["window"]
        per_cycle = [raw[p]["window"] / raw[p]["cycles"] for p in (0, 1)]
        overhead = per_cycle[1] / per_cycle[0] - 1
        client = raw[1]["client_cpu"] / cycles
    else:
        cycles = len({r[0] for r in rows if r[1] == 1})
        wall = sum(r[3] for r in rows if r[1] == 1)
        overhead = median(_cycle_walls(rows, 1)) / median(_cycle_walls(rows, 0)) - 1
        client = 0.0
    m = layer_metrics(totals, cycles, wall, cfg["jobs"])
    m["client.busy_s"] = client
    m["unattributed_frac"] = unattributed(totals, wall)
    m["trace_overhead_frac"] = overhead
    return m, {"traced_cycles": cycles, "traced_wall_s": wall}


# -- entry point ---------------------------------------------------------------


def provenance(args, fields: list[dict]) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/repro/**/*.py", recursive=True)):
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fields": [{k: f[k] for k in ("field", "shape", "bytes")} for f in fields],
    }


WORKLOADS = ("file_fast", "file_auto", "serve_mixed", "batch_process")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (os.path.isfile("BENCHMARK.json")
            and os.path.isfile(os.path.join("src", "repro", "__init__.py"))):
        print("perfbench: run from the root of a checkout that holds "
              "BENCHMARK.json and src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    work = os.path.abspath(os.path.join(
        ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(work)
    try:
        if args.workload == "serve_mixed":
            import serve_load

            cfg = prepare_serve(args.seed, work)
            raw = serve_load.measure(cfg, args.seconds, bool(args.trace),
                                     SETUPS["serve_mixed"], work)
            fields = cfg["fields"] + [cfg["slab"]]
            quality = [f["quality"] for f in cfg["fields"]]
        else:
            if args.workload == "batch_process":
                cfg = prepare_batch(args.seed, work)
                fields = cfg["fields"] + [cfg["slab"]]
            else:
                cfg = prepare_file(args.workload, args.seed, work)
                fields = cfg["fields"]
            quality = [f["quality"] for f in cfg["fields"]]
            raw = measure_host(cfg, args.seconds, bool(args.trace), work)
        if args.trace:
            values, counts = per_layer(args.workload, cfg, raw)
            table = spec["per_layer"]
        else:
            values, counts = end_to_end(args.workload, cfg, raw, quality)
            table = spec["end_to_end"]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bound_ok = all(q["bound_ok"] for q in quality)
    attempted = len(raw["rows"])
    failed = sum(1 for r in raw["rows"] if not r[5])
    correct = failed == 0 and bound_ok and raw["warm_ok"]
    record = provenance(args, fields)
    record.update(counts, setup_samples_s=raw["setup_s"], bound_ok=bound_ok,
                  warm_ok=raw["warm_ok"])
    emit("record", record)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
