"""Differential conformance: the batch engine vs the single-shot codec.

The engine's contract is that parallelism and pooling change wall-clock,
never bytes.  Every test here compares engine output against the
single-shot ``FZGPU(backend="reference")`` oracle:

* ``compress_batch`` streams are **byte-identical** across the full
  jobs x pool-kind matrix;
* chunked containers decompress to the **bit-identical** array of the
  unchunked stream, for every rank and for pathologically small chunks;
* containers survive concatenation, reject corruption, and read the same
  through the seeking (`read_containers`) and streaming (`iter_segments`)
  paths;
* buffer pooling reaches a zero-allocation steady state;
* the CLI wiring (``--jobs/--batch/--chunk-mb/--verify``) round-trips and
  propagates bound violations as a nonzero exit.

CI matrix knobs: ``ENGINE_JOBS`` adds a worker count to the matrix
(default 2), ``ENGINE_POOL`` restricts the pool kinds (default both).
"""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

from repro import faults
from repro.core.pipeline import FZGPU
from repro.engine import Engine, iter_segments, plan_chunks, read_containers
from repro.errors import ConfigError, FormatError, ReproError
from repro.utils.pool import Scratch

JOBS_MATRIX = sorted({1, int(os.environ.get("ENGINE_JOBS", "2"))})
POOL_MATRIX = (
    [os.environ["ENGINE_POOL"]]
    if os.environ.get("ENGINE_POOL")
    else ["thread", "process"]
)

EB = 1e-3


def _fields() -> list[np.ndarray]:
    rng = np.random.default_rng(99)
    return [
        np.cumsum(rng.standard_normal(4001)).astype(np.float32),
        np.cumsum(rng.standard_normal((45, 37)), axis=0).astype(np.float32),
        np.cumsum(rng.standard_normal((9, 10, 11)), axis=1).astype(np.float32),
        np.zeros((33, 17), dtype=np.float32),
        np.full((64,), 3.25, dtype=np.float32),
    ]


@pytest.fixture(scope="module")
def fields():
    return _fields()


@pytest.fixture(scope="module")
def reference(fields):
    fz = FZGPU(backend="reference")
    results = [fz.compress(x, EB, "rel") for x in fields]
    recons = [fz.decompress(r.stream) for r in results]
    return results, recons


# ---------------------------------------------------------------------------
# batch byte-identity matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", JOBS_MATRIX)
@pytest.mark.parametrize("pool", POOL_MATRIX)
def test_batch_matches_single_shot(fields, reference, jobs, pool):
    results, recons = reference
    with Engine(jobs=jobs, pool=pool) as engine:
        batch = engine.compress_batch(fields, EB, "rel")
        assert [r.stream for r in batch] == [r.stream for r in results]
        assert [r.eb_abs for r in batch] == [r.eb_abs for r in results]
        back = engine.decompress_batch([r.stream for r in results])
    for got, want in zip(back, recons):
        assert got.dtype == np.float32
        assert np.array_equal(got, want)


def test_proc_worker_codec_cache(fields, reference):
    """Each process worker builds its one codec from the engine's settings.

    The pool initializer gets the engine's backend name; the worker's codec
    must not change a single output byte.
    """
    results, recons = reference
    with Engine(jobs=2, pool="process", backend="fused") as engine:
        batch = engine.compress_batch(fields, EB, "rel")
        assert [r.stream for r in batch] == [r.stream for r in results]
        back = engine.decompress_batch([r.stream for r in results])
    for got, want in zip(back, recons):
        assert np.array_equal(got, want)


def test_fault_plan_is_fixed_per_call(reference):
    """A call runs the fault plan that was active when it started.

    The source installs an always-failing plan after its first item; with
    ``retries=0`` a plan read per task would quarantine item 1, while the
    plan resolved at the call's start decodes every item.
    """
    results, recons = reference

    def streams():
        try:
            yield results[0].stream
            faults.install(faults.FaultPlan.parse("transient_error:p=1"))
            for r in results[1:]:
                yield r.stream
        finally:
            faults.uninstall()

    try:
        with Engine(jobs=1, retries=0) as engine:
            back = list(engine.decompress_stream(streams()))
    finally:
        faults.uninstall()
    assert len(back) == len(recons)
    for got, want in zip(back, recons):
        assert np.array_equal(got, want)


def test_batch_preserves_order(fields):
    # many more tasks than workers, distinguishable outputs
    batch = [np.full((8, 8), float(i), dtype=np.float32) for i in range(40)]
    with Engine(jobs=max(JOBS_MATRIX)) as engine:
        results = engine.compress_batch(batch, 0.5, "abs")
        back = engine.decompress_batch([r.stream for r in results])
    for i, arr in enumerate(back):
        assert float(arr[0, 0]) == pytest.approx(i, abs=1.0)


# ---------------------------------------------------------------------------
# the task loop's contract: pull window and queue depth
# ---------------------------------------------------------------------------


def _pull_counted(streams, pulled: list):
    for stream in streams:
        pulled.append(stream)
        yield stream


def test_inline_stream_is_lazy_and_not_pool_work(reference):
    """jobs=1 pulls item i+1 only once result i is consumed, and its tasks
    never count in ``queue_depth`` (serve's shed signal)."""
    streams = [r.stream for r in reference[0]]
    pulled: list = []
    with Engine(jobs=1) as engine:
        gen = engine.decompress_stream(_pull_counted(streams, pulled))
        assert len(pulled) == 0 and engine.queue_depth == 0
        next(gen)
        assert len(pulled) == 1 and engine.queue_depth == 0
        next(gen)
        assert len(pulled) == 2 and engine.queue_depth == 0
        gen.close()
        assert engine.queue_depth == 0


@pytest.mark.parametrize("pool", POOL_MATRIX)
def test_pool_stream_window_and_close(reference, pool):
    """A pool pulls at most ``4 * jobs`` items ahead; closing the stream
    mid-way brings ``queue_depth`` back to zero."""
    jobs = 2
    streams = [r.stream for r in reference[0]] * 4
    pulled: list = []
    with Engine(jobs=jobs, pool=pool) as engine:
        gen = engine.decompress_stream(_pull_counted(streams, pulled))
        next(gen)
        assert 1 <= len(pulled) <= 4 * jobs < len(streams)
        assert engine.queue_depth > 0
        gen.close()
        assert engine.queue_depth == 0


# ---------------------------------------------------------------------------
# chunked streaming vs unchunked
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk_bytes", [1, 4096, 64 * 1024])
def test_chunked_reconstruction_matches_unchunked(fields, reference, chunk_bytes):
    _, recons = reference
    with Engine(jobs=max(JOBS_MATRIX)) as engine:
        for data, want in zip(fields, recons):
            blob = engine.compress_chunked(data, EB, "rel", chunk_bytes=chunk_bytes)
            got = engine.decompress_chunked(blob)
            assert np.array_equal(got, want), (
                f"shape {data.shape} chunk_bytes={chunk_bytes}"
            )


def test_chunk_plan_aligns_to_lorenzo_grid():
    spans = plan_chunks((1000, 30), align=16, chunk_bytes=16 * 4 * 30 * 3)
    assert spans[0][0] == 0 and spans[-1][1] == 1000
    for (_, stop), (start, _) in zip(spans, spans[1:]):
        assert stop == start
    for start, _ in spans[1:]:
        assert start % 16 == 0, spans
    # chunk smaller than one aligned row group still produces full coverage
    tiny = plan_chunks((7,), align=256, chunk_bytes=1)
    assert tiny == [(0, 7)]
    with pytest.raises(ConfigError):
        plan_chunks((10,), align=0)


def test_chunked_rejects_unsupported_fields():
    with Engine() as engine:
        with pytest.raises(ReproError):
            engine.compress_chunked(np.zeros((0,), np.float32), EB)
        with pytest.raises(ReproError):
            engine.compress_chunked(np.zeros((2, 2, 2, 2), np.float32), EB)


# ---------------------------------------------------------------------------
# container: concatenation, dual read paths, corruption
# ---------------------------------------------------------------------------


def test_concatenated_containers_stitch(fields):
    data = fields[1]
    with Engine() as engine:
        whole = engine.decompress_chunked(
            engine.compress_chunked(data, EB, "abs", chunk_bytes=2048)
        )
        blob = (
            engine.compress_chunked(data[:20], EB, "abs", chunk_bytes=2048)
            + engine.compress_chunked(data[20:], EB, "abs", chunk_bytes=2048)
        )
        got = engine.decompress_chunked(blob)
    # same absolute bound and Lorenzo-aligned split: byte-identical rows
    assert np.array_equal(got[:20], whole[:20])
    assert got.shape == data.shape


def test_concatenated_containers_shape_mismatch(fields):
    with Engine() as engine:
        blob = (
            engine.compress_chunked(np.zeros((8, 6), np.float32), EB, "abs")
            + engine.compress_chunked(np.zeros((8, 7), np.float32), EB, "abs")
        )
        with pytest.raises(FormatError, match="trailing dims"):
            engine.decompress_chunked(blob)


def test_iter_segments_matches_indexed_read(fields):
    with Engine() as engine:
        blob = engine.compress_chunked(fields[1], EB, "rel", chunk_bytes=2048)
    indexes = read_containers(io.BytesIO(blob))
    assert len(indexes) == 1
    streamed = list(iter_segments(io.BytesIO(blob)))
    assert len(streamed) == len(indexes[0].segments) > 1
    fz = FZGPU()
    rows = [fz.decompress(payload) for _, _, payload in streamed]
    with Engine() as engine:
        assert np.array_equal(
            np.concatenate(rows, axis=0), engine.decompress_chunked(blob)
        )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b[:-1],                                   # truncated footer
        lambda b: b[: len(b) // 2],                         # truncated body
        lambda b: b"JUNK" + b[4:],                          # bad magic
        lambda b: b[:40] + bytes([b[40] ^ 0xFF]) + b[41:],  # payload bit flip
        lambda b: b[:-10] + bytes([b[-10] ^ 0x01]) + b[-9:],  # index corruption
    ],
    ids=["trunc-footer", "trunc-body", "bad-magic", "payload-flip", "index-flip"],
)
def test_corrupted_container_rejected(fields, mutate):
    with Engine() as engine:
        blob = engine.compress_chunked(fields[3], EB, "abs", chunk_bytes=512)
        bad = mutate(blob)
        with pytest.raises(FormatError):
            engine.decompress_chunked(bad)
    with pytest.raises(FormatError):
        for _ in iter_segments(io.BytesIO(bad)):
            pass


# ---------------------------------------------------------------------------
# buffer pool steady state
# ---------------------------------------------------------------------------


def test_scratch_zero_allocation_steady_state(fields):
    import tracemalloc

    from repro import telemetry

    fz = FZGPU()
    scratch = Scratch()
    data = fields[1]
    stream = fz.compress(data, EB, "rel", scratch=scratch).stream
    fz.decompress(stream, scratch=scratch)
    warm = scratch.n_allocations
    assert not telemetry.enabled()
    tracemalloc.start(25)
    try:
        for _ in range(3):
            assert fz.compress(data, EB, "rel", scratch=scratch).stream == stream
            fz.decompress(stream, scratch=scratch)
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert scratch.n_allocations == warm, "steady state still allocating"
    assert scratch.n_requests > 0 and scratch.nbytes > 0
    # disabled telemetry must stay off the allocation profile entirely:
    # no live allocation in the steady state may originate in telemetry code
    telem_allocs = [
        stat
        for stat in snap.statistics("filename")
        if "telemetry" in stat.traceback[0].filename
    ]
    assert not telem_allocs, telem_allocs


def _wide_planes(shape: tuple[int, ...]) -> np.ndarray:
    """A smooth field whose chunk-rows the fused encoder cuts into blocks."""
    rng = np.random.default_rng(256)
    return np.cumsum(rng.standard_normal(shape), axis=2).astype(np.float32)


def test_scratch_footprint_blocked_encode():
    """Encoder slabs are cache-sized even when one chunk-row is not.

    One 8-row chunk-row of 256x256 planes holds 512K codes; whole-row slabs
    took 12.8 MiB of scratch for this field, chunk-column blocks ~1.5 MiB,
    and ~2.5 MiB with the 256K-code tile batch.
    """
    scratch = Scratch()
    FZGPU().compress(_wide_planes((16, 256, 256)), EB, "rel", scratch=scratch)
    assert scratch.nbytes <= 3 * 2**20, scratch.nbytes


def test_scratch_zero_allocation_steady_state_ragged_blocks():
    """A ragged last block reuses the full block's buffers.

    (9, 300, 97) pads to (16, 304, 104) and encodes as (8, 72, 104)
    blocks; the last block of each chunk-row is clipped to the 16 padded
    columns [288, 304), 12 of them real, and must take a prefix of the
    full-size scratch.
    """
    fz = FZGPU()
    scratch = Scratch()
    data = _wide_planes((9, 300, 97))
    stream = fz.compress(data, EB, "rel", scratch=scratch).stream
    recon = fz.decompress(stream, scratch=scratch)
    warm = scratch.n_allocations
    for _ in range(3):
        assert fz.compress(data, EB, "rel", scratch=scratch).stream == stream
        got = fz.decompress(stream, scratch=scratch)
        assert np.array_equal(got.view(np.uint32), recon.view(np.uint32))
    assert scratch.n_allocations == warm, "steady state still allocating"


def test_interp_scratch_zero_allocation_steady_state(fields):
    """FZIN encode and decode stop growing one shared scratch once warm.

    The (32, 64, 128) field runs its finest last-axis pass on flat views,
    the odd-width ones on strided runs.  Once warm, the level passes make
    no field-sized array either: flat views, predictions and int16 decode
    buffers are views or scratch, so the traced peak stays at NumPy's
    fixed-size cast buffers (about 200 KiB), under a quarter of ``rec``.
    """
    import tracemalloc

    from repro.planner import interp

    scratch = Scratch()
    even = np.cumsum(
        np.random.default_rng(128).standard_normal((32, 64, 128)), axis=2
    ).astype(np.float32)
    cases = []
    for data in (*fields[1:3], even):
        stream = interp.interp_compress(data, EB, scratch=scratch).stream
        recon = interp.interp_decompress(stream, scratch=scratch)
        cases.append((data, stream, recon))
    warm = scratch.n_allocations
    for _ in range(3):
        for data, stream, recon in cases:
            assert interp.interp_compress(data, EB, scratch=scratch).stream == stream
            got = interp.interp_decompress(stream, scratch=scratch)
            assert np.array_equal(got.view(np.uint32), recon.view(np.uint32))
    assert scratch.n_allocations == warm, "steady state still allocating"
    assert scratch.n_requests > 0
    rec = scratch.take("fzin.rec", even.shape, np.float64)
    codes = scratch.take("fzin.codes", even.shape, np.uint16)
    anchor_log2 = interp.default_anchor_log2(even.shape)
    for src in (even, None):  # encode, then decode
        tracemalloc.start()
        try:
            interp._run_levels(
                rec, src, codes, anchor_log2, 2 * EB, src is not None,
                interp._pass_vectorized, scratch,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rec.nbytes // 4, (peak, rec.nbytes)
    assert scratch.n_allocations == warm


def test_buffer_pool_reuses_scratches(fields):
    with Engine(jobs=1) as engine:
        pool = engine.buffer_pool
        engine.compress_batch(fields, EB, "rel")
        first_created = pool.n_created
        warm_allocs = pool.n_allocations
        engine.compress_batch(fields, EB, "rel")
    assert pool.n_created == first_created == 1  # serial path: one scratch
    assert pool.n_allocations == warm_allocs, "second batch allocated"
    assert pool.n_idle == 1


# ---------------------------------------------------------------------------
# file API + CLI wiring
# ---------------------------------------------------------------------------


def test_file_roundtrip_npy_and_raw(tmp_path, fields, reference):
    _, recons = reference
    data = fields[1]
    npy = tmp_path / "field.npy"
    np.save(npy, data)
    with Engine(jobs=max(JOBS_MATRIX)) as engine:
        report = engine.compress_file(npy, tmp_path / "field.fz", EB,
                                      chunk_bytes=2048)
        back = engine.decompress_file(tmp_path / "field.fz",
                                      tmp_path / "back.npy")
    assert report.shape == data.shape and report.n_chunks > 1
    assert report.ratio > 1.0
    assert np.array_equal(back, recons[1])
    assert np.array_equal(np.load(tmp_path / "back.npy"), back)

    raw = tmp_path / "field.f32"
    fields[0].tofile(raw)
    with Engine() as engine:
        engine.compress_file(raw, tmp_path / "raw.fz", EB,
                             shape=fields[0].shape)
        assert np.array_equal(
            engine.decompress_file(tmp_path / "raw.fz"), recons[0]
        )
    with Engine() as engine, pytest.raises(FormatError):
        engine.compress_file(raw, tmp_path / "bad.fz", EB, shape=(999,))


def test_cli_batch_compress_verify(tmp_path, fields):
    from repro.cli import main

    inputs = []
    for i in range(3):
        p = tmp_path / f"f{i}.npy"
        np.save(p, fields[1] + np.float32(i))
        inputs.append(str(p))
    outdir = tmp_path / "out"
    rc = main(["compress", *inputs, str(outdir), "--batch",
               "--jobs", str(max(JOBS_MATRIX)), "--verify"])
    assert rc == 0
    assert sorted(p.name for p in outdir.iterdir()) == ["f0.fz", "f1.fz", "f2.fz"]
    # single-shot CLI stream must byte-match the engine's batch output
    single = tmp_path / "single.fz"
    assert main(["compress", inputs[0], str(single)]) == 0
    assert single.read_bytes() == (outdir / "f0.fz").read_bytes()


def test_cli_chunked_roundtrip(tmp_path, fields, reference):
    from repro.cli import main

    _, recons = reference
    src = tmp_path / "f.npy"
    np.save(src, fields[1])
    fz = tmp_path / "f.fz"
    out = tmp_path / "f_out.npy"
    assert main(["compress", str(src), str(fz), "--chunk-mb", "0.002",
                 "--jobs", str(max(JOBS_MATRIX)), "--verify"]) == 0
    assert main(["info", str(fz)]) == 0
    assert main(["decompress", str(fz), str(out)]) == 0
    assert np.array_equal(np.load(out), recons[1])


def test_cli_verify_reports_violation(tmp_path, fields, monkeypatch):
    import repro.cli as cli

    src = tmp_path / "f.npy"
    np.save(src, fields[1])
    monkeypatch.setattr(cli, "_check_bound", lambda *a: (False, 1.0))
    rc = cli.main(["compress", str(src), str(tmp_path / "f.fz"), "--verify"])
    assert rc == 1
    # without --verify the (stubbed) violation goes unchecked
    assert cli.main(["compress", str(src), str(tmp_path / "f2.fz")]) == 0


def test_cli_multiple_inputs_require_batch(tmp_path, fields):
    from repro.cli import main

    a, b = tmp_path / "a.npy", tmp_path / "b.npy"
    np.save(a, fields[1])
    np.save(b, fields[1])
    with pytest.raises(SystemExit):
        main(["compress", str(a), str(b), str(tmp_path / "out.fz")])


def test_engine_config_validation():
    with pytest.raises(ConfigError):
        Engine(jobs=0)
    with pytest.raises(ConfigError):
        Engine(pool="greenlet")


@pytest.mark.parametrize("backoff", [float("nan"), float("inf"), -0.5])
def test_engine_rejects_non_finite_backoff(backoff):
    """A nan backoff would silently disable the retry sleep (``nan > 0``)."""
    with pytest.raises(ConfigError, match="backoff"):
        Engine(backoff=backoff)


@pytest.mark.parametrize("chunk", [(0,), (3, 4), (65536,)], ids=str)
def test_invalid_chunk_shape_is_config_error(chunk):
    """Bad chunk overrides fail typed and up front, before any encoding.

    A zero edge, an edge count that does not match the (1-D) data and an
    edge past the header's u16 field all raise ``ConfigError`` from the
    codec.
    """
    data = np.linspace(0.0, 1.0, 1000, dtype=np.float32)
    with pytest.raises(ConfigError, match="chunk shape"):
        FZGPU(chunk=chunk).compress(data, EB)
