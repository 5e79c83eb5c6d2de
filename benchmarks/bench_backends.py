"""Kernel-backend shootout: fused vs reference (Fig. 10 analog).

Compresses every Table 1 synthetic field single-shot through each
registered backend, checks the streams are byte-identical, and records
per-backend wall time / throughput plus the fused-over-reference speedup
to ``benchmarks/results/BENCH_backends.json``.

The committed copy at ``benchmarks/BENCH_backends.json`` is the perf
trajectory baseline: the gate fails if fused drops below its per-field
``SPEEDUP_FLOOR`` over reference on any 2-D/3-D field (the acceptance
floor) or regresses below ``GATE_MARGIN`` of the committed speedup for
that field.  Regenerate the
baseline with ``REPRO_UPDATE_BENCH=1`` after an intentional perf change:

    REPRO_UPDATE_BENCH=1 python -m pytest benchmarks/bench_backends.py -q
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from conftest import RESULTS_DIR, run_once

from repro.core.pipeline import FZGPU
from repro.datasets import dataset_names, generate
from repro.harness import render_table

EB = 1e-3
MODE = "rel"
REPEATS = 3
BACKENDS = ("reference", "fused")

#: Acceptance floor of fused over reference per 2-D/3-D field: 1.5x the
#: staged scratch-arena kernels' committed speedup over reference (the
#: fused backend's first bar), rounded up to one decimal.
SPEEDUP_FLOOR = {
    "cesm": 6.7, "hurricane": 4.9, "nyx": 6.5, "qmcpack": 6.2, "rtm": 7.0,
}
#: A fresh run may fall to this fraction of the committed baseline speedup
#: before the gate fails (absorbs machine-to-machine and CI-load noise).
GATE_MARGIN = 0.6

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_backends.json"


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
        codecs = {b: FZGPU(backend=b) for b in BACKENDS}
        streams = {b: c.compress(data, EB, MODE).stream for b, c in codecs.items()}
        times = {
            b: _best_of(lambda c=c: c.compress(data, EB, MODE))
            for b, c in codecs.items()
        }
        fields[name] = {
            "shape": list(data.shape),
            "ndim": data.ndim,
            "mb": data.nbytes / 1e6,
            "ms": {b: times[b] * 1e3 for b in BACKENDS},
            "mb_per_s": {b: data.nbytes / 1e6 / times[b] for b in BACKENDS},
            "fused_vs_reference": times["reference"] / times["fused"],
            "byte_identical": all(
                streams[b] == streams["reference"] for b in BACKENDS
            ),
        }
    return {
        "eb": EB,
        "mode": MODE,
        "repeats": REPEATS,
        "backends": list(BACKENDS),
        "fields": fields,
    }


def test_backend_shootout(benchmark, record_result):
    results = run_once(benchmark, _measure)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_backends.json").write_text(
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
            "byte_identical": f["byte_identical"],
        }
        for name, f in results["fields"].items()
    ]
    record_result(
        "bench_backends",
        render_table(rows, title=f"Backend shootout at eb={EB:g} {MODE}"),
    )

    for name, f in results["fields"].items():
        assert f["byte_identical"], f"{name}: backend streams diverged"

    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else None
    )
    failures = []
    for name, f in results["fields"].items():
        speedup = f["fused_vs_reference"]
        floor = SPEEDUP_FLOOR.get(name)
        if floor is not None and speedup < floor:
            failures.append(
                f"{name}: fused {speedup:.2f}x reference < floor {floor}x"
            )
        if baseline is not None and name in baseline["fields"]:
            committed = baseline["fields"][name]["fused_vs_reference"]
            if speedup < GATE_MARGIN * committed:
                failures.append(
                    f"{name}: fused {speedup:.2f}x reference regressed below "
                    f"{GATE_MARGIN:.0%} of committed {committed:.2f}x"
                )
    assert not failures, "; ".join(failures)
