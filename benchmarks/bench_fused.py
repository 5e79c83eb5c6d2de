"""Fused vs reference kernels, encode and decode (Fig. 10 analog).

Every Table 1 synthetic field is compressed and decompressed through the
``reference`` and ``fused`` backends.  Streams must be byte-identical and
reconstructions bit-identical; each leg's fused-over-reference speedup is
a claim under the shared gate (``gate.py``), floored per 2-D/3-D field and
regression-checked on every field::

    python -m pytest benchmarks/bench_fused.py -q
    REPRO_UPDATE_BENCH=1 python -m pytest benchmarks/bench_fused.py -q
"""

from __future__ import annotations

import gate
import numpy as np

from repro.core.pipeline import FZGPU
from repro.datasets import dataset_names, generate

EB = 1e-3
MODE = "rel"

#: Acceptance floors of fused over reference per 2-D/3-D field: 1.5x the
#: speedup the retired staged scratch-arena kernels had over reference in
#: their last committed baseline, rounded up to one decimal.
ENCODE_FLOOR = {
    "cesm": 6.7, "hurricane": 4.9, "nyx": 6.5, "qmcpack": 6.2, "rtm": 7.0,
}
DECODE_FLOOR = {
    "cesm": 5.3, "hurricane": 6.1, "nyx": 5.2, "qmcpack": 5.3, "rtm": 6.4,
}


def _measure():
    ref, fused = FZGPU(backend="reference"), FZGPU(backend="fused")
    claims, checks, data = [], {}, {}
    for name in dataset_names():
        x = generate(name).data
        stream = ref.compress(x, EB, MODE).stream
        checks[f"{name}.byte_identical"] = (
            fused.compress(x, EB, MODE).stream == stream
        )
        checks[f"{name}.bit_identical"] = np.array_equal(
            fused.decompress(stream), ref.decompress(stream)
        )
        encode = gate.interleave({
            "reference": lambda: ref.compress(x, EB, MODE),
            "fused": lambda: fused.compress(x, EB, MODE),
        })
        decode = gate.interleave({
            "reference": lambda: ref.decompress(stream),
            "fused": lambda: fused.decompress(stream),
        })
        claims += [
            gate.Claim("encode", **gate.ratio(encode, "reference", "fused"),
                       floor=ENCODE_FLOOR.get(name), field=name),
            gate.Claim("decode", **gate.ratio(decode, "reference", "fused"),
                       floor=DECODE_FLOOR.get(name), field=name),
        ]
        data[name] = {"shape": list(x.shape), "encode_ms": gate.best_ms(encode),
                      "decode_ms": gate.best_ms(decode)}
    return claims, checks, {"eb": EB, "mode": MODE, "fields": data}


def test_fused_gate():
    gate.enforce("fused", *_measure())
