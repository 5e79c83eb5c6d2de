"""Batch engine: steady-state throughput of batched compression.

Compresses a 64-field batch two ways — single-shot calls of the
``reference`` codec (the oracle) and the engine with its default codec and
warm scratch arenas — and gates, under the shared gate (``gate.py``), the
acceptance floor from the engine design: the engine must be at least 1.5x
single-shot wall-clock on the same batch.  Also records the
conformance experiment's byte-identity checks, so the speedup can never
come at the cost of changed output bytes.

Set ``REPRO_TRACE=/path/out.json`` to record the whole module through
:mod:`repro.telemetry` and export a Chrome trace on teardown — the smoke
check CI uses to prove trace capture works on a real engine workload.
"""

from __future__ import annotations

import os

import gate
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
#: Acceptance floor: the engine batch at least this much faster than
#: single-shot reference calls.
SPEEDUP_FLOOR = 1.5


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


def test_engine_batch_speedup():
    fields = _make_batch()
    fz = FZGPU(backend="reference")
    with Engine(jobs=1) as engine:
        # the untimed first pass also warms the engine's arenas
        singles = [fz.compress(x, EB, "rel").stream for x in fields]
        batched = [r.stream for r in engine.compress_batch(fields, EB, "rel")]
        times = gate.interleave({
            "single": lambda: [fz.compress(x, EB, "rel") for x in fields],
            "engine": lambda: engine.compress_batch(fields, EB, "rel"),
        })
    claims = [gate.Claim("speedup", **gate.ratio(times, "single", "engine"),
                         floor=SPEEDUP_FLOOR)]
    gate.enforce("engine_batch", claims, {"byte_identical": singles == batched}, {
        "fields": N_FIELDS, "shape": list(SHAPE), "eb": EB,
        "ms": gate.best_ms(times),
    })


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
