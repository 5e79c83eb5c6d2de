"""Decoding straight into the destination: codec and engine ``out=``, and
the file sink behind ``decompress_file`` / ``decompress_roi_file``.

Every decode that writes into a caller's array or a memory-mapped file
must produce the same bits as a decode into a fresh array, and the sink's
file must be byte-identical to :func:`repro.io.save_field` of that array.
The sink is made only once every payload has been read and CRC-checked, a
strict decode that fails removes it, and a decode to a ``.npy`` sink holds
about one segment in anonymous memory, not the field.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repro import faults
from repro.core.pipeline import FZGPU
from repro.engine import Engine
from repro.engine import executor
from repro.errors import ConfigError, DecompressionError, FormatError, ReproError
from repro.io import save_field
from repro.planner import compress_with_plan, decompress_any

from tests.test_engine_differential import JOBS_MATRIX, POOL_MATRIX

EB = 1e-2
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(shape), axis=0).astype(np.float32)


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def mixed():
    """A container of fast, interp and constant segments, and its decode."""
    data = _field((96, 40, 24))
    data[32:48] = 3.25  # one constant segment
    with Engine(plan="auto") as engine:
        blob = engine.compress_chunked(data, EB, chunk_bytes=16 * 40 * 24 * 4)
        full = engine.decompress(blob)
    return blob, full


# ---------------------------------------------------------------------------
# codec out=
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan", ["fast", "interp", "constant"])
@pytest.mark.parametrize("backend", ["fused", "reference"])
def test_codec_decodes_into_out(plan, backend):
    data = np.full((20, 33), 1.5, np.float32) if plan == "constant" else _field((20, 33))
    stream = compress_with_plan(data, EB, "abs", plan=plan).stream
    codec = FZGPU(backend=backend)
    want = decompress_any(stream, codec=codec)
    out = np.full(want.shape, 7.0, np.float32)
    got = decompress_any(stream, codec=codec, out=out)
    assert got is out and _same(out, want)


def test_fused_exact_fallback_fills_out():
    # a saturated (300, 300) chunk takes the int64 reference decode
    from tests.test_backends_conformance import _saturated_big_chunk

    codec = FZGPU(chunk=(300, 300))
    stream = codec.compress(_saturated_big_chunk(), 1e-3, "abs").stream
    want = codec.decompress(stream)
    out = np.empty_like(want)
    assert codec.decompress(stream, out=out) is out and _same(out, want)


def _bad_outs(shape):
    ok = np.empty(shape, np.float32)
    ro = np.empty(shape, np.float32)
    ro.flags.writeable = False
    return {
        "float64": np.empty(shape, np.float64),
        "shape": np.empty((shape[0] + 1,) + shape[1:], np.float32),
        "strided": np.empty((shape[0], 2 * shape[1]), np.float32)[:, ::2],
        "read-only": ro,
        "big-endian": ok.astype(">f4"),
        "list": ok.tolist(),
    }


@pytest.mark.parametrize("kind", sorted(_bad_outs((4, 4))))
def test_out_contract_is_a_config_error(kind, mixed):
    blob, full = mixed
    stream = compress_with_plan(_field((20, 33)), EB, "abs", plan="fast").stream
    with pytest.raises(ConfigError, match="out must be"):
        decompress_any(stream, out=_bad_outs((20, 33))[kind])
    with Engine() as engine, pytest.raises(ConfigError, match="out must be"):
        engine.decompress(blob, out=_bad_outs(full.shape)[kind])


# ---------------------------------------------------------------------------
# engine out=: every pool, full, slab and salvage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", JOBS_MATRIX)
@pytest.mark.parametrize("pool", POOL_MATRIX)
@pytest.mark.parametrize("slab", [None, "8:72", "20:70,3:30,:"])
def test_engine_decodes_into_caller_array(mixed, jobs, pool, slab):
    blob, full = mixed
    want = full if slab is None else full[
        tuple(slice(*map(int, s.split(":"))) if s != ":" else slice(None)
              for s in slab.split(","))
    ]
    with Engine(jobs=jobs, pool=pool) as engine:
        out = np.full(want.shape, 9.0, np.float32)
        assert engine.decompress(blob, slab=slab, out=out) is out
        assert _same(out, want)
        out = np.full(want.shape, 9.0, np.float32)
        got, report = engine.decompress(blob, slab=slab, salvage=True, out=out)
        assert got is out and _same(out, want) and report.lost_bytes == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_in_place_decode_skips_the_copy(mixed, monkeypatch, jobs):
    """Inline tasks covering whole chunks decode into the rows; pool tasks
    decode privately, so a timed-out thread abandoned mid-decode can never
    write the caller's rows."""
    blob, full = mixed
    seen = []
    real = executor.decompress_any

    def spy(stream, *, codec=None, scratch=None, out=None):
        seen.append(out is not None)
        return real(stream, codec=codec, scratch=scratch, out=out)

    monkeypatch.setattr(executor, "decompress_any", spy)
    with Engine(jobs=jobs, pool="thread") as engine:
        assert _same(engine.decompress(blob), full)
        n_full = len(seen)
        # rows 8:40 cover segment 1 (rows 16:32) only; segment 0 is partial
        assert _same(engine.decompress(blob, slab="8:40"), full[8:40])
    assert n_full == 5  # 6 segments, 1 constant
    if jobs > 1:
        assert not any(seen)
        return
    assert all(seen[:n_full])
    # rows 32:48 are the constant segment, filled without a decode
    assert seen[n_full:] == [False, True]


# ---------------------------------------------------------------------------
# file sink
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suffix", [".npy", ".f32"])
def test_file_sink_returns_its_memmap(tmp_path, mixed, suffix):
    blob, full = mixed
    src = tmp_path / "c.fz"
    src.write_bytes(blob)
    with Engine() as engine:
        got = engine.decompress_file(src, tmp_path / f"full{suffix}")
        band = engine.decompress_roi_file(src, "16:80", tmp_path / f"band{suffix}")
    assert isinstance(got, np.memmap) and isinstance(band, np.memmap)
    for name, want in (("full", full), ("band", full[16:80])):
        save_field(tmp_path / f"ref_{name}{suffix}", want)
        assert (tmp_path / f"{name}{suffix}").read_bytes() == (
            tmp_path / f"ref_{name}{suffix}"
        ).read_bytes()


def test_device_output_is_written_at_the_end(tmp_path, mixed):
    """A device cannot be mapped: the field decodes in memory and is saved."""
    blob, full = mixed
    src = tmp_path / "c.fz"
    src.write_bytes(blob)
    with Engine() as engine:
        got = engine.decompress_file(src, os.devnull)
    assert not isinstance(got, np.memmap) and _same(got, full)


def test_decompress_file_onto_its_own_input(tmp_path, mixed):
    """The sink is made after every payload was read: naming the source
    as the output still decodes the whole container (a raw .fz file)."""
    blob, full = mixed
    path = tmp_path / "same.fz"
    path.write_bytes(blob)
    with Engine() as engine:
        got = engine.decompress_file(path, path)
    assert _same(got, full)
    save_field(tmp_path / "ref.fz", full)
    assert path.read_bytes() == (tmp_path / "ref.fz").read_bytes()


@pytest.fixture(scope="module")
def rotten():
    """A six-segment container whose segment 1 (rows 16:32) fails its CRC."""
    with Engine() as engine:
        with faults.installed(faults.FaultPlan.parse("segment_corrupt:at=1,seed=5")):
            return engine.compress_chunked(_field((96, 40, 24)), EB,
                                           chunk_bytes=16 * 40 * 24 * 4)


def test_failed_strict_decode_leaves_no_file(tmp_path, rotten):
    src = tmp_path / "bad.fz"
    src.write_bytes(rotten)
    out = tmp_path / "bad_out.npy"
    with Engine() as engine, pytest.raises(FormatError, match="CRC"):
        engine.decompress_file(src, out)
    assert not out.exists()
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "decompress", str(src), str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1 and "FormatError" in proc.stderr
    assert not out.exists()
    # a salvage still writes its NaN-filled field
    with Engine() as engine:
        got, report = engine.decompress_file(src, out, salvage=True)
    assert report.lost_bytes > 0 and out.exists()
    assert np.isnan(np.load(out)[16:32]).all()


def test_failed_decode_leaves_the_output_path_as_it_was(tmp_path, mixed):
    """The sink replaces its path only on success: a decode that fails after
    the sink was made keeps its own input, an earlier output and a memmap an
    earlier decode returned."""
    blob, full = mixed
    same = tmp_path / "same.fz"
    same.write_bytes(blob)
    src, out = tmp_path / "c.fz", tmp_path / "out.npy"
    src.write_bytes(blob)
    late = faults.FaultPlan.parse("transient_error:at=2,times=9")
    with Engine(retries=0) as engine:
        earlier = engine.decompress_file(src, out)
        before = out.read_bytes()
        with faults.installed(late):
            with pytest.raises(ReproError):
                engine.decompress_file(same, same)
            with pytest.raises(ReproError):
                engine.decompress_file(src, out)
        assert same.read_bytes() == blob
        assert out.read_bytes() == before and _same(earlier, full)
        # a successful decode replaces the file, not the earlier mapping
        earlier[:] = -1.0
        again = engine.decompress_file(src, out)
    assert _same(again, full) and _same(np.load(out), full)
    assert (earlier == -1.0).all()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.fz", "out.npy", "same.fz",
    ]


def test_timed_out_thread_task_retries_into_the_result(mixed):
    """A hung thread attempt is abandoned and retried; pool tasks decode
    privately, so the caller's array holds the ``jobs=1`` result."""
    blob, full = mixed
    hang = faults.FaultPlan.parse("worker_hang:at=1,hang_s=0.3")
    with faults.installed(hang):
        with Engine(jobs=2, pool="thread", retries=2, task_timeout=0.1,
                    backoff=0.001) as engine:
            out = np.empty_like(full)
            assert engine.decompress(blob, out=out) is out
    assert _same(out, full)


def test_salvage_refills_rows_a_failed_attempt_wrote(mixed, monkeypatch):
    blob, full = mixed
    real = executor.decompress_any
    failed = []

    def scribble(stream, *, codec=None, scratch=None, out=None):
        if out is not None and not failed:
            failed.append(out)
            out[: len(out) // 2] = 5.0  # a partial write, then the failure
            raise DecompressionError("injected")
        return real(stream, codec=codec, scratch=scratch, out=out)

    monkeypatch.setattr(executor, "decompress_any", scribble)
    with Engine() as engine:
        got, report = engine.decompress(blob, salvage=True)
    assert [s.status for s in report.segments].count("lost") == 1
    assert failed and not (got == 5.0).any()
    for seg in report.segments:
        rows = slice(16 * seg.ordinal, 16 * seg.ordinal + 16)
        if seg.status == "lost":
            assert np.isnan(got[rows]).all()
        else:
            assert _same(got[rows], full[rows])


def test_sink_decode_memory_is_bounded(tmp_path):
    """Decoding 16 segments to a .npy sink holds about one in anonymous
    memory: the traced peak stays under 2 segments + 1 MiB, a fraction of
    the 16 MiB field."""
    seg_bytes = 1 << 20
    x = np.linspace(0, 6 * np.pi, 256, dtype=np.float32)
    data = (np.sin(x)[:, None, None] * np.cos(x)[None, :64, None]
            * np.ones(256, np.float32)).astype(np.float32)
    src, out = tmp_path / "big.fz", tmp_path / "big.npy"
    with Engine() as engine:
        with open(src, "wb") as f:
            report = engine.compress_chunked_to(f, data, 1e-3,
                                                chunk_bytes=seg_bytes)
        assert report.n_chunks >= 8 and data.nbytes == 16 * seg_bytes
        engine.decompress_file(src, tmp_path / "warm.npy")  # warm the scratch
        tracemalloc.start()
        try:
            got = engine.decompress_file(src, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * seg_bytes + (1 << 20), peak
    with Engine() as engine:
        assert _same(np.load(out), engine.decompress(src))
    del got
