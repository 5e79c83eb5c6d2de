"""Shared-memory data plane: process-pool batch throughput vs thread pool.

The process pool's historical handicap is serialization: every input field
and output stream crossed the pool boundary as a pickle.  The process pool
ships ``(segment, offset, shape, dtype)`` descriptors instead — workers
attach the parent's shared-memory blocks and the only bytes that move
through the executor are tuple-sized; decoded fields come back as views of
their output block.  This bench compresses the same large-field batch, and
then decompresses its streams, on a thread pool (the in-process ceiling:
zero serialization) and on a process pool; checks both produce
byte-identical streams and decoded arrays, and times each leg interleaved
under the shared gate (``gate.py``).  The acceptance floor: process-pool
compress throughput stays above ``1/1.2`` of the thread pool's on the same
batch (the data plane is no longer allowed to be the bottleneck).  The
decode leg's ratio is recorded with its spread but not gated.  The
``arena_steady`` check requires that the timed rounds create no
shared-memory segment.  Regenerate the baseline after an intentional perf
change:

    REPRO_UPDATE_BENCH=1 python -m pytest benchmarks/bench_shm.py -q
"""

from __future__ import annotations

import contextlib

import gate
import numpy as np
import pytest

from repro.engine import Engine
from repro.utils.pool import shm_available

N_FIELDS = 6
SHAPE = (1024, 1024)  # 4 MiB per field: descriptor savings dominate framing
EB = 1e-3
JOBS = 2
POOLS = ("thread", "process")

#: Acceptance floor: the process pool keeps at least 1/1.2 of the
#: thread pool's batch throughput on large fields.
OVERHEAD_CEILING = 1.2


def _make_fields() -> list[np.ndarray]:
    rng = np.random.default_rng(47)
    base = np.cumsum(rng.standard_normal(SHAPE, dtype=np.float32), axis=0)
    return [np.roll(base, 11 * k, axis=0) for k in range(N_FIELDS)]


def _measure():
    fields = _make_fields()
    with contextlib.ExitStack() as stack:
        engines = {k: stack.enter_context(Engine(jobs=JOBS, pool=k))
                   for k in POOLS}
        # the untimed first batch also warms every pool and arena
        streams = {k: [r.stream for r in e.compress_batch(fields, EB, "rel")]
                   for k, e in engines.items()}
        decoded = {k: e.decompress_batch(streams[k]) for k, e in engines.items()}
        decoded_identical = all(
            a.tobytes() == b.tobytes() for a, b in zip(*decoded.values())
        )
        del decoded  # process-pool results hold their blocks until dropped
        arena = engines["process"].shared_arena()
        created = arena.n_created
        times = gate.interleave({
            k: lambda e=e: e.compress_batch(fields, EB, "rel")
            for k, e in engines.items()
        })
        dtimes = gate.interleave({
            k: lambda e=e, s=streams[k]: e.decompress_batch(s)
            for k, e in engines.items()
        })
        arena_steady = arena.n_created == created
    claims = [gate.Claim("shm_vs_thread",
                         **gate.ratio(times, "thread", "process"),
                         floor=1.0 / OVERHEAD_CEILING)]
    checks = {
        "byte_identical": streams["thread"] == streams["process"],
        "decoded_identical": decoded_identical,
        "arena_steady": arena_steady,
    }
    return claims, checks, {
        "fields": N_FIELDS,
        "shape": list(SHAPE),
        "eb": EB,
        "jobs": JOBS,
        "ms": gate.best_ms(times),
        "decode": {
            "ms": gate.best_ms(dtimes),
            "shm_vs_thread": gate.ratio(dtimes, "thread", "process"),
        },
    }


def test_shm_transport_gate():
    if not shm_available():
        pytest.skip("no POSIX/Win32 shared memory on this platform")
    gate.enforce("shm", *_measure())
