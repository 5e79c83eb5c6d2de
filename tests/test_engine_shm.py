"""Shared-memory data plane: byte identity, lifecycle, and leak regression.

Shared memory changes *how* bytes move between the parent and process
workers — never *which* bytes.  The contract under test:

* **byte identity** — every entry point produces streams byte-identical to
  the inline ``Engine(jobs=1)``, across pool x backend x plan, including
  chunked containers and file streaming (descriptors point at an mmap),
  and on a platform without shared memory, where every item ships pickled;
* **lifecycle** — segments are leased, refcounted, and unlinked by the
  parent; a worker crash, hang, or timeout must not leak a single
  ``/dev/shm`` entry, and a timed-out task's output block is *retired*
  (unlinked, never recycled) so a wedged stale writer cannot corrupt a
  later lease; a repeated workload creates no segment once warm, and a
  decoded result owns its block until it and its views are gone, even
  past ``Engine.close()``;
* **hygiene** — no ``resource_tracker`` warnings: workers attach without
  registering, the parent is the sole unlink owner (proved by a
  ``-W error`` subprocess);
* **hardening** — the parent-side header peek never allocates for crafted
  headers (caps + pickled fallback);
* **resource bounds** — repeated strict, salvage and failing decodes open
  no file descriptor and no segment once warm.

Fast-tier tests keep to one small process pool; the full differential
matrix, chaos-plan leak regression, the soak and the serve wire path are
tier-2 (``RUN_SLOW=1``), matching the chaos suite's convention.
"""

from __future__ import annotations

import gc
import glob
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.engine import Engine, TaskFailure
from repro.errors import ConfigError
from repro.utils.pool import (
    MmapDescriptor,
    Scratch,
    SharedArena,
    ShmArray,
    ShmDescriptor,
    mmap_descriptor_for,
    shm_available,
)

EB = 1e-3
FAST = {"backoff": 0.001}
JOBS = int(os.environ.get("ENGINE_JOBS", "2"))

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no POSIX/Win32 shared memory on this platform"
)


def _segments() -> list[str]:
    """Names of live shared-memory segments (POSIX tmpfs view)."""
    return sorted(glob.glob("/dev/shm/psm_*")) if os.path.isdir("/dev/shm") else []


@pytest.fixture(autouse=True)
def _no_segment_leak():
    """Every test in this file must leave /dev/shm exactly as it found it."""
    before = _segments()
    yield
    leaked = [name for name in _segments() if name not in before]
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def _fields(n: int = 6, seed: int = 5) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if i % 3 == 2:  # constant-plan bait
            out.append(np.full((20, 24), 1.5, np.float32))
        else:
            out.append(
                np.cumsum(rng.standard_normal((24, 20)), axis=0).astype(np.float32)
            )
    return out


def _streams(engine: Engine, fields) -> list[bytes]:
    return [r.stream for r in engine.compress_batch(fields, EB, "rel")]


# ---------------------------------------------------------------------------
# unit: arena / descriptors / scratch
# ---------------------------------------------------------------------------


class TestArena:
    def test_lease_release_recycles(self):
        arena = SharedArena()
        try:
            a = arena.lease(1 << 12)
            name = a.name
            a.release()
            b = arena.lease(1 << 12)
            assert b.name == name  # free-listed block is reused
            b.release()
        finally:
            arena.close()
        assert name.split("/")[-1] not in [s.split("/")[-1] for s in _segments()]

    def test_retire_never_recycles(self):
        arena = SharedArena()
        try:
            a = arena.lease(1 << 12)
            name = a.name
            a.retire()
            b = arena.lease(1 << 12)
            assert b.name != name  # retired names are gone for good
            b.release()
        finally:
            arena.close()

    def test_refcount_keeps_block_leased(self):
        arena = SharedArena()
        try:
            a = arena.lease(1 << 12)
            a.retain()
            a.release()
            # still referenced: a fresh lease must not alias it
            b = arena.lease(1 << 12)
            assert b.name != a.name
            a.release()
            b.release()
        finally:
            arena.close()

    def test_close_unlinks_everything(self):
        arena = SharedArena()
        a = arena.lease(1 << 12)
        arena.close()
        with pytest.raises(ConfigError):
            arena.lease(1 << 12)
        del a

    def test_descriptor_roundtrip(self):
        arena = SharedArena()
        try:
            block = arena.lease(1 << 12)
            src = np.arange(64, dtype=np.float32).reshape(8, 8)
            block.asarray(src.shape, src.dtype)[:] = src
            desc = block.descriptor(src.shape, src.dtype)
            seen = desc.attach()
            np.testing.assert_array_equal(seen, src)
            assert not seen.flags.writeable  # read-only unless writable=True
            writer = block.descriptor(src.shape, src.dtype, writable=True).attach()
            writer[0, 0] = 42.0
            assert block.asarray(src.shape, src.dtype)[0, 0] == 42.0
            from repro.utils.pool import detach_all

            detach_all()
            block.release()
        finally:
            arena.close()

    def test_recycles_only_within_size_class(self):
        arena = SharedArena()
        try:
            big = arena.lease(3 << 20)
            assert big.capacity == 4 << 20
            big.release()
            small = arena.lease(1 << 12)
            assert small.name != big.name  # a bigger idle block is not lent
            again = arena.lease(4 << 20)
            assert again.name == big.name
            small.release()
            again.release()
            assert arena.n_idle == 2 and arena.n_created == 2
        finally:
            arena.close()

    def test_adopted_block_released_after_every_view(self):
        arena = SharedArena()
        try:
            arr = arena.lease(1 << 12).adopt((8, 8), np.float32)
            assert isinstance(arr, ShmArray)
            sub, plain = arr[2:4], np.asarray(arr)[1]
            del arr
            assert arena.n_idle == 0
            del sub
            assert arena.n_idle == 0  # the plain ndarray view still maps it
            del plain
            assert arena.n_idle == 1
        finally:
            arena.close()

    def test_finalizer_inside_locked_lease_does_not_deadlock(self):
        """An adopted block collected while the arena lock is held.

        The array sits in a reference cycle, so only the garbage collector
        frees it; the wrapped lock runs ``gc.collect()`` as soon as
        ``lease`` holds it, which fires the finalizer on this thread.
        """

        class CollectingLock:
            def __init__(self, lock):
                self.lock = lock

            def __enter__(self):
                self.lock.acquire()
                gc.collect()

            def __exit__(self, *exc):
                self.lock.release()

        arena = SharedArena()
        try:
            cycle = [arena.lease(1 << 12).adopt((16,), np.float32)]
            cycle.append(cycle)
            del cycle
            arena._lock = CollectingLock(arena._lock)
            leased = []
            worker = threading.Thread(
                target=lambda: leased.append(arena.lease(1 << 12)), daemon=True
            )
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive(), "finalizer deadlocked lease()"
            assert arena.n_created == 1  # the collected block was re-leased
            leased[0].release()
        finally:
            arena._lock = threading.Lock()  # a deadlocked worker holds the old
            arena.close()

    def test_release_after_close_is_a_noop(self):
        arena = SharedArena()
        arr = arena.lease(1 << 12).adopt((4,), np.float32)
        held = arena.lease(1 << 12)
        arena.close()
        arr[:] = 1.5  # the mapping outlives the unlinked name
        held.release()
        del arr
        gc.collect()
        assert arena.n_idle == 0 and arena.n_live == 0

    def test_descriptor_for_rejects_foreign_array(self):
        arena = SharedArena()
        try:
            block = arena.lease(1 << 12)
            with pytest.raises(ConfigError):
                block.descriptor_for(np.zeros(4, np.float32))
            block.release()
        finally:
            arena.close()


class TestMmapDescriptor:
    def test_npy_view_addresses_file(self, tmp_path):
        path = tmp_path / "field.npy"
        data = np.arange(4096, dtype=np.float32).reshape(64, 64)
        np.save(path, data)
        mapped = np.load(path, mmap_mode="r")
        desc = mmap_descriptor_for(mapped[16:32])
        assert isinstance(desc, MmapDescriptor)
        np.testing.assert_array_equal(desc.attach(), data[16:32])
        assert desc.nbytes == data[16:32].nbytes

    def test_non_mmap_returns_none(self):
        assert mmap_descriptor_for(np.zeros((4, 4), np.float32)) is None


class TestScratch:
    def test_same_key_different_dtype_same_itemsize(self):
        """Regression: equal-itemsize dtypes sharing a key must not alias types.

        ``uint16`` and ``float16`` have itemsize 2; the old shape-keyed
        reuse handed back the previously-typed view, silently reinterpreting
        bits.  The byte-arena rewrite types the view on every take.
        """
        scratch = Scratch()
        a = scratch.take("k", (8,), np.uint16)
        a[:] = np.arange(8, dtype=np.uint16)
        b = scratch.take("k", (8,), np.float16)
        assert b.dtype == np.float16
        b[:] = np.float16(1.5)
        c = scratch.take("k", (8,), np.uint16)
        assert c.dtype == np.uint16

    def test_same_key_regrows(self):
        scratch = Scratch()
        small = scratch.take("k", (8,), np.float32)
        big = scratch.take("k", (64,), np.float32)
        assert big.size == 64 and small.size == 8


# ---------------------------------------------------------------------------
# unit: which engines stage in shared memory + crafted-header hardening
# ---------------------------------------------------------------------------


class TestTransportKnob:
    def test_thread_pool_never_uses_shm(self):
        with Engine(jobs=2, pool="thread") as engine:
            assert not engine._use_shm()
            assert engine.shared_arena() is None

    def test_auto_resolves_by_platform(self):
        with Engine(jobs=2, pool="process") as engine:
            assert engine._use_shm() == shm_available()


class TestDecodePeekCaps:
    """Crafted streams must not make the *parent* allocate output blocks."""

    def _engine(self):
        return Engine(jobs=JOBS, pool="process", **FAST)

    def test_garbage_peeks_to_none(self):
        with self._engine() as engine:
            assert engine._peek_decode_shape(b"\x00" * 64) is None

    def test_huge_claim_peeks_to_none(self):
        import struct
        import zlib

        from repro.planner import constant as fzcn

        body = struct.pack(
            fzcn._HEADER_FMT, fzcn.CONSTANT_MAGIC, fzcn.CONSTANT_VERSION,
            3, 0, 1 << 17, 1 << 17, 1 << 12, 1e-3, 2.5,
        )
        stream = body + struct.pack(
            fzcn._CRC_FMT, zlib.crc32(body) & 0xFFFFFFFF
        )
        with self._engine() as engine:
            # 2**46 elements sails past MAX_SHM_STAGE_BYTES: no staging
            assert engine._peek_decode_shape(stream) is None

    def test_crafted_stream_still_fails_typed(self):
        """The pickled fallback path preserves the worker's error taxonomy."""
        with self._engine() as engine:
            results = engine.decompress_batch(
                [b"FZIN" + b"\x00" * 90], on_error="return"
            )
            assert isinstance(results[0], TaskFailure)
            assert results[0].error_type == "FormatError"


# ---------------------------------------------------------------------------
# differential: process pool vs inline byte identity (fast-tier smoke + full
# matrix)
# ---------------------------------------------------------------------------


def _identity_roundtrip(plan: str, backend=None):
    fields = _fields()
    kw = dict(plan=plan, backend=backend, **FAST)
    with Engine(jobs=JOBS, pool="process", **kw) as shm_eng:
        shm_streams = _streams(shm_eng, fields)
        shm_back = shm_eng.decompress_batch(shm_streams)
    with Engine(jobs=1, **kw) as ref_eng:
        ref_streams = _streams(ref_eng, fields)
        ref_back = ref_eng.decompress_batch(ref_streams)
    assert shm_streams == ref_streams
    for a, b in zip(shm_back, ref_back):
        np.testing.assert_array_equal(a, b)


def test_batch_identity_smoke():
    """Fast tier: one small process pool proves the data plane end-to-end."""
    _identity_roundtrip("fast")


def test_no_shared_memory_platform_matches_inline(monkeypatch):
    """Without shared memory every item ships pickled, with the same bytes."""
    import io

    monkeypatch.setattr("repro.engine.executor.shm_available", lambda: False)
    fields = _fields()
    rng = np.random.default_rng(9)
    data = np.cumsum(rng.standard_normal((96, 64)), axis=0).astype(np.float32)
    outs = {}
    for jobs, kw in ((2, dict(pool="process")), (1, {})):
        with Engine(jobs=jobs, **kw, **FAST) as engine:
            assert engine.shared_arena() is None
            streams = _streams(engine, fields)
            decoded = engine.decompress_batch(streams)
            assert not any(isinstance(a, ShmArray) for a in decoded)
            sink = io.BytesIO()
            engine.compress_chunked_to(sink, data, EB, "rel", 1 << 13)
            full = engine.decompress_chunked(sink.getvalue())
            outs[jobs] = (
                streams, [a.tobytes() for a in decoded], sink.getvalue(),
                full.tobytes(),
            )
    assert outs[2] == outs[1]


@pytest.mark.slow
@pytest.mark.parametrize("plan", ["fast", "auto", "interp"])
def test_batch_identity_plans(plan):
    _identity_roundtrip(plan)


@pytest.mark.slow
def test_batch_identity_reference_backend():
    _identity_roundtrip("fast", backend="reference")


@pytest.mark.slow
@pytest.mark.parametrize("plan", ["fast", "auto"])
def test_chunked_container_identity(plan):
    import io

    rng = np.random.default_rng(9)
    data = np.cumsum(rng.standard_normal((192, 64)), axis=0).astype(np.float32)
    outs = {}
    for jobs, kw in ((JOBS, dict(pool="process")), (1, {})):
        sink = io.BytesIO()
        with Engine(jobs=jobs, **kw, **FAST) as engine:
            engine.compress_chunked_to(sink, data, EB, "rel", 1 << 14, plan=plan)
            outs[jobs] = sink.getvalue()
            back = engine.decompress_chunked_from(io.BytesIO(outs[jobs]))
        assert back.shape == data.shape
    assert outs[JOBS] == outs[1]


@pytest.mark.slow
def test_compress_file_identity(tmp_path):
    """File streaming ships mmap descriptors; output must match inline's."""
    rng = np.random.default_rng(13)
    data = np.cumsum(rng.standard_normal((256, 48)), axis=0).astype(np.float32)
    src = tmp_path / "field.npy"
    np.save(src, data)
    outs = {}
    for jobs, kw in ((JOBS, dict(pool="process")), (1, {})):
        dst = tmp_path / f"out-{jobs}.fz"
        with Engine(jobs=jobs, **kw, **FAST) as engine:
            report = engine.compress_file(src, dst, EB, "rel", chunk_bytes=1 << 14)
            assert report.n_chunks >= 2
            back = engine.decompress_file(dst)
        outs[jobs] = dst.read_bytes()
        np.testing.assert_allclose(back, data, atol=2 * EB * np.ptp(data))
    assert outs[JOBS] == outs[1]


@pytest.mark.slow
def test_mixed_fallback_batch_stays_identical(monkeypatch):
    """Items that decline shm (lease failure) mix with staged ones cleanly."""
    fields = _fields(8)
    with Engine(jobs=1, **FAST) as engine:
        expect = _streams(engine, fields)
    with Engine(jobs=JOBS, pool="process", **FAST) as engine:
        calls = {"n": 0}
        real = engine._try_lease

        def flaky(nbytes):
            calls["n"] += 1
            return None if calls["n"] % 2 else real(nbytes)

        monkeypatch.setattr(engine, "_try_lease", flaky)
        assert _streams(engine, fields) == expect
    assert calls["n"] > 0


# ---------------------------------------------------------------------------
# leak regression: chaos plans, resource_tracker hygiene, soak
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize(
    "plan",
    [
        "worker_crash:at=2",
        "transient_error:p=0.4,seed=7",
        "transient_error:at=1|4,times=99",
    ],
    ids=["crash", "transient", "quarantine"],
)
def test_fault_plans_do_not_leak_segments(plan):
    """Crash/retry/quarantine paths must release every staged block.

    The autouse fixture asserts /dev/shm is clean afterwards; this test
    additionally proves the engine still *recovers* (or quarantines in
    place) with shared-memory staging active — recovery changes
    wall-clock, never bytes.
    """
    fields = _fields()
    with Engine(jobs=1, **FAST) as eng:
        expect = _streams(eng, fields)
    with faults.installed(faults.FaultPlan.parse(plan)):
        with Engine(jobs=JOBS, pool="process", retries=3, **FAST) as engine:
            results = engine.compress_batch(fields, EB, "rel", on_error="return")
    faults.uninstall()
    for i, res in enumerate(results):
        if not isinstance(res, TaskFailure):
            assert res.stream == expect[i]


@pytest.mark.slow
def test_timeout_retires_out_blocks():
    """A hung worker's output block is unlinked, never recycled.

    The stale writer may scribble into its mapping long after the parent
    gave up; retirement makes that write land in an unlinked segment no
    future lease can alias.  The autouse fixture catches the leak half;
    recycling is ruled out by the retire counter.
    """
    from repro import telemetry

    telemetry.enable()
    fields = _fields(4)
    with faults.installed(faults.FaultPlan.parse("worker_hang:at=1,hang_s=30")):
        with Engine(
            jobs=JOBS, pool="process", retries=0, task_timeout=1.0, **FAST
        ) as engine:
            results = engine.compress_batch(fields, EB, "rel", on_error="return")
    faults.uninstall()
    assert any(isinstance(r, TaskFailure) for r in results)
    snap = telemetry.get_recorder().snapshot()
    retired = [
        c for c in snap["metrics"]["counters"] if c[0] == "pool.shm.retire"
    ]
    assert retired and retired[0][-1] >= 1


@pytest.mark.slow
def test_no_resource_tracker_warnings():
    """Workers attach segments without registering them: -W error stays green.

    resource_tracker leak complaints surface as UserWarning at interpreter
    shutdown; promoting warnings to errors in a subprocess turns any
    double-registration or orphaned segment into a hard failure.
    """
    code = """
import numpy as np
from repro.engine import Engine

rng = np.random.default_rng(0)
fields = [np.cumsum(rng.standard_normal((24, 20)), 0).astype(np.float32)
          for _ in range(4)]
with Engine(jobs=2, pool="process", backoff=0.001) as eng:
    streams = [r.stream for r in eng.compress_batch(fields, 1e-3, "rel")]
    back = eng.decompress_batch(streams)
for f, b in zip(fields, back):
    assert np.allclose(f, b, atol=2e-3 * np.ptp(f))
print("OK")
"""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", code],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr


@pytest.mark.slow
def test_steady_state_soak_zero_growth():
    """Segment count reaches a plateau: leases recycle instead of accreting."""
    fields = _fields(4)
    with Engine(jobs=JOBS, pool="process", **FAST) as engine:
        _streams(engine, fields)  # warm: arena grows to working-set size
        compress_plateau = len(_segments())
        # a decode's in-flight blocks fit the compress working set; beyond
        # it, each field it returns may hold at most its own output block
        engine.decompress_batch(_streams(engine, fields))
        plateau = len(_segments())
        assert plateau - compress_plateau <= len(fields)
        for _ in range(5):
            streams = _streams(engine, fields)
            engine.decompress_batch(streams)
            assert len(_segments()) == plateau
    assert len(_segments()) <= plateau


def _mixed_fields() -> list[np.ndarray]:
    """Fields that span three arena size classes (1, 2 and 4 MiB inputs)."""
    rng = np.random.default_rng(17)
    return [
        np.cumsum(rng.standard_normal(shape), axis=0).astype(np.float32)
        for shape in ((64, 48), (512, 640), (96, 80), (1024, 768))
    ]


def _shm_counter(name: str) -> float:
    from repro import telemetry

    snap = telemetry.get_recorder().snapshot()
    return sum(c[-1] for c in snap["metrics"]["counters"] if c[0] == name)


def test_arena_steady_state_after_warmup():
    """A repeated round of mixed-size batches creates no segment.

    Each round keeps the previous round's decoded fields alive, as a
    caller that reassigns its result does; two warm-up rounds reach the
    working set of that pattern, and the third is served from the free
    lists alone.
    """
    from repro import telemetry

    fields = _mixed_fields()
    with Engine(jobs=2, pool="process", **FAST) as engine:
        arena = engine.shared_arena()
        back = None
        for _ in range(2):
            back = engine.decompress_batch(_streams(engine, fields))
        created = arena.n_created
        telemetry.enable()
        telemetry.get_recorder().clear()
        back = engine.decompress_batch(_streams(engine, fields))
        assert arena.n_created == created
        assert _shm_counter("pool.shm.miss") == 0
        assert _shm_counter("pool.shm.hit") > 0
        # a field that fills half its block is the block; the small ones
        # are copies, so they pin no segment
        assert [isinstance(a, ShmArray) for a in back] == [
            False, True, False, True
        ]
        for f, a in zip(fields, back):
            np.testing.assert_allclose(a, f, atol=2 * EB * np.ptp(f))


def test_small_decodes_do_not_pin_blocks():
    """Many held small results keep the arena within the in-flight window.

    A few-KB field would pin a 1 MiB block if it kept its output block;
    it is copied out instead, so a batch of them leaves only the blocks
    that ``4 * jobs`` tasks (one input and one output block each) had
    in flight.
    """
    rng = np.random.default_rng(23)
    fields = [
        np.cumsum(rng.standard_normal((64, 48)), axis=0).astype(np.float32)
        for _ in range(40)
    ]
    jobs = 2
    with Engine(jobs=jobs, pool="process", **FAST) as engine:
        arena = engine.shared_arena()
        back = engine.decompress_batch(_streams(engine, fields))
        assert not any(isinstance(a, ShmArray) for a in back)
        assert arena.n_live <= 2 * (4 * jobs + 1)
        for f, a in zip(fields, back):
            np.testing.assert_allclose(a, f, atol=2 * EB * np.ptp(f))


def test_closed_stream_leaves_no_lease():
    """Closing a process-pool stream mid-way releases every staged block.

    The tasks still in flight are dropped with their input blocks released
    and their output blocks retired; once the yielded array (which adopted
    its output block) is gone too, every live block is idle.
    """
    field = np.cumsum(
        np.random.default_rng(29).standard_normal((512, 640)), axis=0
    ).astype(np.float32)
    with Engine(jobs=2, pool="process", **FAST) as engine:
        arena = engine.shared_arena()
        streams = _streams(engine, [field]) * 12
        gen = engine.decompress_stream(iter(streams))
        first = next(gen)
        assert isinstance(first, ShmArray)
        gen.close()
        assert engine.queue_depth == 0
        del first
        gc.collect()
        assert arena.n_live == arena.n_idle


def test_decoded_result_owns_its_block():
    """A held result is untouched by later batches, then recycled."""
    fields = _mixed_fields()
    with Engine(jobs=2, pool="process", **FAST) as engine:
        arena = engine.shared_arena()
        streams = _streams(engine, fields)
        held = engine.decompress_batch(streams)[1]
        expect = held.copy()
        view, plain = held[10:20], np.asarray(held)[::2]
        for _ in range(3):
            engine.decompress_batch(_streams(engine, fields[::-1]))
        np.testing.assert_array_equal(held, expect)
        block, idle = held.shm_block, arena.n_idle
        del held, view
        assert arena.n_idle == idle  # the plain ndarray view still maps it
        del plain
        assert arena.n_idle == idle + 1
        assert block in arena._free[block.capacity]


def test_result_outlives_engine_close():
    """Close unlinks every segment; a held result stays readable, feeds a
    reopened engine, and its later collection is silent."""
    code = f"""
import gc, glob
import numpy as np
from repro.engine import Engine

before = set(glob.glob("/dev/shm/psm_*"))
rng = np.random.default_rng(3)
field = np.cumsum(rng.standard_normal((256, 96)), 0).astype(np.float32)
eng = Engine(jobs=2, pool="process", backoff=0.001)
stream = eng.compress_batch([field], {EB}, "rel")[0].stream
held = eng.decompress_batch([stream])[0]
expect = np.array(held)
eng.close()
assert set(glob.glob("/dev/shm/psm_*")) <= before, "segments left after close"
assert np.array_equal(held, expect)
again = eng.compress_batch([held], {EB}, "rel")[0].stream  # reopened engine
assert again == eng.compress_batch([expect], {EB}, "rel")[0].stream
eng.close()
del held
gc.collect()
assert set(glob.glob("/dev/shm/psm_*")) <= before
print("OK")
"""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", code],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def _open_fds() -> int | None:
    fd_dir = "/proc/self/fd"
    return len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None


def test_repeated_decodes_hold_fds_and_segments_steady():
    """Fifty rounds of strict, salvage and failing decodes on a warm process
    pool open no file descriptor and create no segment."""
    from repro.errors import ReproError

    if _open_fds() is None:
        pytest.skip("no /proc/self/fd to count open descriptors")
    rng = np.random.default_rng(29)
    data = np.cumsum(rng.standard_normal((96, 32)), axis=0).astype(np.float32)
    crafted = [b"FZIN" + b"\x00" * 90]
    with Engine(jobs=2, pool="process", **FAST) as engine:
        clean = engine.compress_chunked(data, EB, chunk_bytes=4096)
        with faults.installed(faults.FaultPlan.parse("segment_corrupt:at=1,seed=5")):
            rotten = engine.compress_chunked(data, EB, chunk_bytes=4096)
        assert rotten != clean

        def round_trip():
            engine.decompress_chunked(clean)
            engine.decompress_chunked(rotten, salvage=True)
            with pytest.raises(ReproError):
                engine.decompress_chunked(rotten)
            failed = engine.decompress_batch(crafted, on_error="return")
            assert isinstance(failed[0], TaskFailure)

        for _ in range(2):  # warm-up: the pool and the arena reach size
            round_trip()
        gc.collect()
        fds, segments = _open_fds(), _segments()
        for _ in range(50):
            round_trip()
        gc.collect()
        assert _open_fds() == fds
        assert _segments() == segments


# ---------------------------------------------------------------------------
# serve: zero-copy upload wire path
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_serve_zero_copy_bodies_match_inline_engine():
    import io

    from repro import telemetry

    from .serve_support import live_server, request

    telemetry.enable()
    rng = np.random.default_rng(21)
    data = np.cumsum(rng.standard_normal((96, 64)), axis=0).astype(np.float32)
    with live_server(jobs=JOBS, pool="process", **FAST) as (server, app, engine):
        status, _, container = request(
            server.address, "POST", "/v1/compress?shape=96,64&eb=1e-3",
            body=data.tobytes(),
        )
        assert status == 200
        status, _, decoded = request(
            server.address, "POST", "/v1/decompress", body=container
        )
        assert status == 200
        chunk_bytes = app.config.chunk_bytes
    np.testing.assert_allclose(
        np.frombuffer(decoded, "<f4").reshape(96, 64), data,
        atol=2 * EB * np.ptp(data),
    )
    sink = io.BytesIO()
    with Engine(jobs=1, **FAST) as eng:
        eng.compress_chunked_to(sink, data, EB, "rel", chunk_bytes)
    assert sink.getvalue() == container
    snap = telemetry.get_recorder().snapshot()
    counted = [
        c for c in snap["metrics"]["counters"] if c[0] == "serve.shm_bodies"
    ]
    assert counted and counted[0][-1] >= 2  # both uploads leased segments


@pytest.mark.slow
def test_serve_sigterm_leaves_dev_shm_clean():
    """SIGTERM stops ``repro serve`` through its stop event: exit code 0,
    the arena unlinked by ``engine.close()``, the resource tracker silent."""
    from .serve_support import request

    before = set(_segments())
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--pool", "process", "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on http://" in banner, proc.stderr.read()
        host, port = banner.split("http://")[1].split()[0].rsplit(":", 1)
        data = np.arange(96 * 64, dtype=np.float32).reshape(96, 64)
        status, _, _ = request(
            (host, int(port)), "POST", "/v1/compress?shape=96,64&eb=1e-3",
            body=data.tobytes(),
        )
        assert status == 200
        assert set(_segments()) - before, "the upload should lease a segment"
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "resource_tracker" not in stderr


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


@pytest.mark.slow
@pytest.mark.parametrize("when", ["after_batch", "at_pool_start"])
def test_workers_die_with_a_killed_parent(when):
    """A SIGKILLed parent takes its pool down: the workers see their parent's
    sentinel close and exit, and the parent's resource tracker, whose pipe
    they held open, then unlinks the arena's segments.  ``at_pool_start``
    kills the parent as soon as the workers are forked, which can precede
    their initializer."""
    work = {
        "after_batch": 'eng.compress_batch(fields, 1e-3, "rel")',
        "at_pool_start": "eng._ensure_executor().submit(int)",
    }[when]
    code = f"""
import time
import numpy as np
from repro.engine import Engine

rng = np.random.default_rng(0)
fields = [np.cumsum(rng.standard_normal((24, 20)), 0).astype(np.float32)
          for _ in range(4)]
eng = Engine(jobs=2, pool="process", backoff=0.001)
{work}
print(*eng._executor._processes, flush=True)
time.sleep(300)
"""
    before = set(_segments())
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    pids: list[int] = []
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 2, pids
        if when == "after_batch":
            assert set(_segments()) - before, "the batch should lease segments"
    finally:
        proc.kill()
        proc.wait()  # not communicate(): surviving workers hold stdout open
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while True:
        alive = [p for p in pids if _alive(p)]
        leaked = set(_segments()) - before
        if not (alive or leaked) or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    for pid in alive:  # do not let a failed run leave workers behind
        os.kill(pid, signal.SIGKILL)
    assert not alive, f"workers outlived their killed parent: {alive}"
    assert not leaked, f"segments outlived the pool: {sorted(leaked)}"
