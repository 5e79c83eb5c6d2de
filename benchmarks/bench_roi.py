"""ROI decode: a small hyperslab must cost a small fraction of a full decode.

The whole point of the seekable ``FZMC`` container index is that a
region-of-interest read touches only the segments whose axis-0 span
intersects the slab — everything else is never read, never CRC'd, never
decoded.  This bench decodes a 3-D field (a Table 1-style simulation cube:
smooth random-walk structure along the leading axis) two ways:

* full ``decompress_chunked`` of the whole container,
* ``decompress_roi`` of a 1/64th slab (4 of 256 leading rows),

verifies the ROI bytes equal the numpy slice of the full reconstruction,
and times both interleaved under the shared gate (``gate.py``).  The
acceptance floor: the 1/64th slab must decode at least ``SPEEDUP_FLOOR``
(4x) faster than the full decode; anything less means the index is not
actually pruning work.  Regenerate the baseline after an intentional
perf change:

    REPRO_UPDATE_BENCH=1 python -m pytest benchmarks/bench_roi.py -q
"""

from __future__ import annotations

import gate
import numpy as np

from repro.engine import Engine

SHAPE = (256, 64, 64)  # 4 MiB float32 cube
EB = 1e-3
#: 8 leading rows per segment: the container index holds 32 segments.
CHUNK_BYTES = 8 * SHAPE[1] * SHAPE[2] * 4
#: The 1/64th slab: 4 of 256 leading rows, full trailing extent.
ROI = "128:132"

#: Acceptance floor: the 1/64th slab decodes at least this much faster
#: than the full container (index pruning must actually prune).
SPEEDUP_FLOOR = 4.0


def _make_field() -> np.ndarray:
    rng = np.random.default_rng(31)
    walk = rng.standard_normal(SHAPE).astype(np.float32)
    return np.cumsum(walk, axis=0).astype(np.float32)


def _measure():
    data = _make_field()
    with Engine(jobs=2, pool="thread") as engine:
        blob = engine.compress_chunked(data, EB, chunk_bytes=CHUNK_BYTES)
        full = engine.decompress_chunked(blob)
        roi = engine.decompress_roi(blob, ROI)
        identical = roi.tobytes() == np.ascontiguousarray(full[128:132]).tobytes()
        times = gate.interleave({
            "full": lambda: engine.decompress_chunked(blob),
            "roi": lambda: engine.decompress_roi(blob, ROI),
        })
    claims = [gate.Claim("roi_speedup", **gate.ratio(times, "full", "roi"),
                         floor=SPEEDUP_FLOOR)]
    return claims, {"byte_identical": identical}, {
        "shape": list(SHAPE),
        "eb": EB,
        "segments": data.nbytes // CHUNK_BYTES,
        "roi": ROI,
        "container_mb": len(blob) / 1e6,
        "ms": gate.best_ms(times),
    }


def test_roi_decode_gate():
    gate.enforce("roi", *_measure())
