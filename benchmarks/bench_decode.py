"""Decode-side backend shootout: fused vs reference.

Mirrors ``bench_backends.py`` for the decompression direction: every
Table 1 synthetic field is compressed once with the reference backend,
then the stream is decoded single-shot through each registered backend.
Reconstructions must be bit-identical; per-backend wall time, throughput
and the fused-over-reference decode speedup land in
``benchmarks/results/BENCH_decode.json``.

The committed copy at ``benchmarks/BENCH_decode.json`` is the decode perf
trajectory baseline: the gate fails if fused decode drops below its
per-field ``SPEEDUP_FLOOR`` over reference on any 2-D/3-D field (the
acceptance floor) or regresses below
``GATE_MARGIN`` of the committed speedup for that field.  Regenerate the
baseline with ``REPRO_UPDATE_BENCH=1`` after an intentional perf change:

    REPRO_UPDATE_BENCH=1 python -m pytest benchmarks/bench_decode.py -q
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
from conftest import RESULTS_DIR, run_once

from repro.core.pipeline import FZGPU
from repro.datasets import dataset_names, generate
from repro.harness import render_table

EB = 1e-3
MODE = "rel"
REPEATS = 3
BACKENDS = ("reference", "fused")

#: Acceptance floor of fused decode over reference per 2-D/3-D field: 1.5x
#: the staged scratch-arena decoders' committed speedup over reference (the
#: fused decoder's first bar), rounded up to one decimal.
SPEEDUP_FLOOR = {
    "cesm": 5.3, "hurricane": 6.1, "nyx": 5.2, "qmcpack": 5.3, "rtm": 6.4,
}
#: A fresh run may fall to this fraction of the committed baseline speedup
#: before the gate fails (absorbs machine-to-machine and CI-load noise).
GATE_MARGIN = 0.6

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_decode.json"


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure() -> dict:
    fields = {}
    for name in dataset_names():
        data = generate(name).data
        stream = FZGPU(backend="reference").compress(data, EB, MODE).stream
        codecs = {b: FZGPU(backend=b) for b in BACKENDS}
        recons = {b: c.decompress(stream) for b, c in codecs.items()}
        times = {
            b: _best_of(lambda c=c: c.decompress(stream))
            for b, c in codecs.items()
        }
        fields[name] = {
            "shape": list(data.shape),
            "ndim": data.ndim,
            "mb": data.nbytes / 1e6,
            "ms": {b: times[b] * 1e3 for b in BACKENDS},
            "mb_per_s": {b: data.nbytes / 1e6 / times[b] for b in BACKENDS},
            "fused_vs_reference": times["reference"] / times["fused"],
            "bit_identical": all(
                np.array_equal(recons[b], recons["reference"]) for b in BACKENDS
            ),
        }
    return {
        "eb": EB,
        "mode": MODE,
        "repeats": REPEATS,
        "backends": list(BACKENDS),
        "fields": fields,
    }


def test_decode_shootout(benchmark, record_result):
    results = run_once(benchmark, _measure)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_decode.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    if os.environ.get("REPRO_UPDATE_BENCH"):
        BASELINE_PATH.write_text(json.dumps(results, indent=2) + "\n")

    rows = [
        {
            "dataset": name,
            "shape": "x".join(str(d) for d in f["shape"]),
            "reference_ms": f"{f['ms']['reference']:.2f}",
            "fused_ms": f"{f['ms']['fused']:.2f}",
            "fused_vs_reference": f"{f['fused_vs_reference']:.2f}x",
            "bit_identical": f["bit_identical"],
        }
        for name, f in results["fields"].items()
    ]
    record_result(
        "bench_decode",
        render_table(rows, title=f"Decode shootout at eb={EB:g} {MODE}"),
    )

    for name, f in results["fields"].items():
        assert f["bit_identical"], f"{name}: backend reconstructions diverged"

    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else None
    )
    failures = []
    for name, f in results["fields"].items():
        speedup = f["fused_vs_reference"]
        floor = SPEEDUP_FLOOR.get(name)
        if floor is not None and speedup < floor:
            failures.append(
                f"{name}: fused decode {speedup:.2f}x reference < floor "
                f"{floor}x"
            )
        if baseline is not None and name in baseline["fields"]:
            committed = baseline["fields"][name]["fused_vs_reference"]
            if speedup < GATE_MARGIN * committed:
                failures.append(
                    f"{name}: fused decode {speedup:.2f}x reference regressed "
                    f"below {GATE_MARGIN:.0%} of committed {committed:.2f}x"
                )
    assert not failures, "; ".join(failures)
