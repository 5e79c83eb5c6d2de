"""Batch engine: steady-state throughput of batched compression.

Compresses a 64-field batch two ways — single-shot calls of the
``reference`` codec (the oracle) and the engine with its default codec and
warm scratch arenas — and asserts the acceptance floor from the engine
design: the engine must be at least 1.5x single-shot wall-clock on the
same batch.  Also records the
conformance experiment's byte-identity checks, so the speedup can never
come at the cost of changed output bytes.

Set ``REPRO_TRACE=/path/out.json`` to record the whole module through
:mod:`repro.telemetry` and export a Chrome trace on teardown — the smoke
check CI uses to prove trace capture works on a real engine workload.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from conftest import checks_block, run_once

from repro import telemetry
from repro.core.pipeline import FZGPU
from repro.engine import Engine
from repro.harness import render_table, run_experiment

N_FIELDS = 64
SHAPE = (256, 256)
EB = 1e-3


@pytest.fixture(scope="module", autouse=True)
def _trace_to_env_path():
    """Record the module under REPRO_TRACE and export a Chrome trace."""
    out = os.environ.get("REPRO_TRACE")
    if not out:
        yield
        return
    from repro.telemetry import export

    rec = telemetry.get_recorder()
    rec.clear()
    rec.enabled = True
    try:
        yield
    finally:
        rec.enabled = False
        export.write_chrome_trace(rec, out)
        rec.clear()


def _make_batch() -> list[np.ndarray]:
    rng = np.random.default_rng(2023)
    base = np.cumsum(rng.standard_normal(SHAPE, dtype=np.float32), axis=0)
    return [np.roll(base, k, axis=0) for k in range(N_FIELDS)]


def _time(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_engine_batch_speedup(benchmark, record_result):
    fields = _make_batch()
    fz = FZGPU(backend="reference")

    def run() -> dict:
        t_single, singles = _time(lambda: [fz.compress(x, EB, "rel") for x in fields])
        with Engine(jobs=1) as engine:
            engine.compress_batch(fields[:1], EB, "rel")  # warm the arenas
            t_engine, batched = _time(lambda: engine.compress_batch(fields, EB, "rel"))
        assert all(a.stream == b.stream for a, b in zip(singles, batched))
        nbytes = sum(x.nbytes for x in fields)
        return {
            "single_s": t_single,
            "engine_s": t_engine,
            "single_MBps": nbytes / t_single / 1e6,
            "engine_MBps": nbytes / t_engine / 1e6,
            "speedup": t_single / t_engine,
        }

    stats = run_once(benchmark, run)
    rows = [{"config": k, "value": v} for k, v in stats.items()]
    table = render_table(
        rows,
        columns=["config", "value"],
        title=f"Engine batch: {N_FIELDS} fields of {SHAPE} at eb={EB:g} rel",
    )
    record_result("engine_batch", table)
    # acceptance floor: the engine at least 1.5x single-shot
    assert stats["speedup"] >= 1.5, stats


def test_engine_conformance(benchmark, record_result):
    res = run_once(benchmark, lambda: run_experiment("engine"))
    table = render_table(
        res.rows,
        columns=[
            "dataset", "fields", "single_MBps", "engine_MBps", "speedup",
            "byte_identical", "chunked_identical",
        ],
        title=res.title,
    )
    record_result("engine_conformance", table + checks_block(res))
    assert res.all_checks_pass, res.checks
