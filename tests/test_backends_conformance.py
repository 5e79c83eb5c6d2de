"""Cross-backend conformance: every backend must match ``reference`` exactly.

The contract of :mod:`repro.backends` is that backends are pure execution
strategies — compressed streams are **byte-identical** and decodes are
**bit-identical** across all of them, for every input.  The matrix here is
registry-driven: registering a new backend automatically subjects it to
the full sweep (shapes across 1-D/2-D/3-D including tails that are not
multiples of the chunk or of the 2048-code bitshuffle tile, abs/rel
modes, an error-bound sweep, constant and all-zero fields, plus the
saturating, huge-quantum and oversized-chunk paths that exercise the
fused backend's fallbacks to the ``reference`` kernels).

A representative fast subset runs in tier-1; the exhaustive matrix is
``@pytest.mark.slow`` and runs in the ``backends`` CI job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends, fused, get_backend, resolve_backend
from repro.backends.reference import ReferenceBackend
from repro.core.pipeline import FZGPU
from repro.datasets import generate
from repro.engine import Engine
from repro.errors import ConfigError, DecompressionError, UnsupportedDataError
from repro.utils.chunking import chunk_shape_for

BACKENDS = available_backends()

SHAPES = [
    (256,),          # one whole 1-D chunk
    (2049,),         # tile boundary + 1
    (1000,),         # chunk tail
    (1,),            # single element
    (64, 64),        # whole 2-D chunks
    (31, 33),        # tails on both axes, not multiple of 32
    (7, 300),        # short-fat
    (450, 71),       # tall-thin with tail
    (16, 16, 16),    # whole 3-D chunks
    (9, 17, 33),     # tails on all axes
    (8, 8, 7),       # single chunk with tail
    (20, 50, 50),    # multi-slab 3-D
]

FAST_SHAPES = [(1000,), (31, 33), (9, 17, 33)]

EBS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]

FIELD_KINDS = ["smooth", "rough", "constant", "zero"]


def make_field(shape: tuple[int, ...], kind: str) -> np.ndarray:
    rng = np.random.default_rng(hash((shape, kind)) % (2**32))
    if kind == "zero":
        return np.zeros(shape, dtype=np.float32)
    if kind == "constant":
        return np.full(shape, -7.125, dtype=np.float32)
    if kind == "smooth":
        idx = np.indices(shape, dtype=np.float32)
        field = sum(np.sin(ax / (2.0 + k)) for k, ax in enumerate(idx))
        return (field + 0.01 * rng.standard_normal(shape)).astype(np.float32)
    return rng.standard_normal(shape).astype(np.float32)


def assert_conformant(backend: str, data: np.ndarray, eb: float, mode: str):
    ref = FZGPU(backend="reference")
    other = FZGPU(backend=backend)
    want = ref.compress(data, eb, mode)
    got = other.compress(data, eb, mode)
    assert got.stream == want.stream, (
        f"{backend} stream diverged for shape={data.shape} eb={eb} {mode}"
    )
    assert got.stage_sizes == want.stage_sizes
    assert got.quantizer == want.quantizer
    recon_ref = ref.decompress(want.stream)
    recon = other.decompress(want.stream)
    assert np.array_equal(recon, recon_ref), (
        f"{backend} decode diverged for shape={data.shape} eb={eb} {mode}"
    )


def test_registry_lists_required_backends():
    assert {"reference", "fused"} <= set(BACKENDS)


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        FZGPU(backend="warp-speed").compress(np.zeros(8, np.float32), 1e-3)


def test_resolve_auto_and_env(monkeypatch):
    assert resolve_backend(None).name == "fused"
    assert resolve_backend("auto").name == "fused"
    assert resolve_backend("reference").name == "reference"
    instance = ReferenceBackend()
    assert resolve_backend(instance) is instance
    # the environment selects nothing: the default is always fused
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert resolve_backend(None).name == "fused"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", FAST_SHAPES, ids=str)
@pytest.mark.parametrize("kind", ["smooth", "zero"])
@pytest.mark.parametrize("mode", ["rel", "abs"])
def test_conformance_fast(backend, shape, kind, mode):
    assert_conformant(backend, make_field(shape, kind), 1e-3, mode)


@pytest.mark.parametrize("backend", BACKENDS)
def test_conformance_saturating(backend):
    """Tiny eb forces |delta| > 0x7FFF — the clamped quantizer path."""
    rng = np.random.default_rng(99)
    data = (rng.standard_normal((40, 40)) * 1e6).astype(np.float32)
    assert_conformant(backend, data, 1e-3, "abs")


@pytest.mark.parametrize("backend", BACKENDS)
def test_conformance_huge_quantum(backend):
    """eb so small that max |q| >= 2**51 — the fused exact-path fallback."""
    rng = np.random.default_rng(7)
    data = (rng.standard_normal((32, 32)) * 1e4).astype(np.float32)
    with np.errstate(invalid="ignore"):
        assert_conformant(backend, data, 1e-13, "abs")


def _saturated_big_chunk() -> np.ndarray:
    """One (300, 300) chunk of residuals far above 0x7FFF at eb=1e-3 abs.

    0x7FFF * 300 * 300 >= 2**31, so the fused decoder cannot prove its int32
    prefix sums exact and takes the int64 ``reference`` path.
    """
    rng = np.random.default_rng(300)
    return (rng.standard_normal((300, 300)) * 1e6).astype(np.float32)


CUSTOM_CHUNK_CASES = [
    ((21,), (7,), None),
    ((13, 9), (5, 3), None),
    ((10, 12, 9), (3, 4, 3), None),
    ((300, 300), (300, 300), "saturated"),
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_conformance_custom_chunks(backend):
    for shape, chunk, kind in CUSTOM_CHUNK_CASES:
        if kind == "saturated":
            data, eb, mode = _saturated_big_chunk(), 1e-3, "abs"
        else:
            data, eb, mode = make_field(shape, "rough"), 1e-3, "rel"
        ref = FZGPU(chunk=chunk, backend="reference")
        other = FZGPU(chunk=chunk, backend=backend)
        want = ref.compress(data, eb, mode)
        got = other.compress(data, eb, mode)
        assert got.stream == want.stream, (backend, shape, chunk)
        assert np.array_equal(other.decompress(want.stream), ref.decompress(want.stream))


def test_fused_decode_falls_back_to_reference(monkeypatch):
    """The oversized saturated chunk decodes through the int64 exact path."""
    calls = []

    class Spy(ReferenceBackend):
        def decode(self, *args, **kwargs):
            calls.append(args[1])
            return super().decode(*args, **kwargs)

    monkeypatch.setattr(fused, "_EXACT", Spy())
    data = _saturated_big_chunk()
    stream = FZGPU(chunk=(300, 300), backend="reference").compress(
        data, 1e-3, "abs"
    ).stream
    want = FZGPU(chunk=(300, 300), backend="reference").decompress(stream)
    got = FZGPU(chunk=(300, 300), backend="fused").decompress(stream)
    assert calls == [(300, 300)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_decode_rejects_bad_code_count(backend):
    """All backend decode paths validate the header-supplied code count."""
    b = get_backend(backend)
    data = make_field((64, 64), "smooth")
    out = b.encode(data, 1e-3, (16, 16))
    for bad in (-1, -(2**40), 64 * 64 * 2048):
        with pytest.raises(DecompressionError):
            bad_shape = (bad, 1)
            b.decode(out.encoded, bad_shape, (64, 64), 1e-3, (16, 16))


@pytest.mark.parametrize("enc", BACKENDS)
@pytest.mark.parametrize("dec", BACKENDS)
@pytest.mark.parametrize("shape", FAST_SHAPES, ids=str)
def test_cross_backend_fast(enc, dec, shape):
    """Every decode backend reads every encode backend's stream identically."""
    data = make_field(shape, "smooth")
    stream = FZGPU(backend=enc).compress(data, 1e-3, "rel").stream
    ref = FZGPU(backend="reference").decompress(stream)
    got = FZGPU(backend=dec).decompress(stream)
    assert np.array_equal(got, ref), (
        f"decode backend {dec} diverged on a stream encoded by {enc}"
    )


# (shape, slab the fused encoder walks): chunk-rows of more than twice
# TARGET_SLAB_CODES are cut into blocks of whole chunk-columns, with ragged
# last blocks and chunk-padded columns inside them; the others keep whole
# chunk-row slabs
BLOCKED_ENCODE_CASES = [
    ((16, 256, 256), (8, 32, 256)),
    ((16, 250, 250), (8, 32, 256)),
    ((9, 300, 97), (8, 72, 104)),
    ((24, 128, 96), (8, 128, 96)),  # 1.5x the target: one chunk-row slab
    ((3, 513, 130), (8, 56, 136)),
    ((20, 33, 700), (8, 8, 704)),
    ((17, 70000), (16, 4096)),
    ((40, 8200), (16, 4096)),   # 16 x 8208 codes: just over twice the target
    ((40, 4100), (16, 4112)),   # just over the target: one chunk-row slab
    ((40, 4096), (16, 4096)),
    ((100000,), (65536,)),
]


@pytest.mark.parametrize(
    "shape, slab", BLOCKED_ENCODE_CASES, ids=[str(s) for s, _ in BLOCKED_ENCODE_CASES]
)
def test_conformance_blocked_encode(shape, slab):
    """Chunk-column blocks emit reference's bytes, stats and decode."""
    chunk = chunk_shape_for(len(shape))
    padded = tuple(-(-s // c) * c for s, c in zip(shape, chunk))
    assert fused._encode_slab_shape(padded, chunk) == slab
    assert_conformant("fused", make_field(shape, "smooth"), 1e-3, "rel")




# Slabs gather their codes into tile batches of TILE_BATCH_CODES, carrying
# what is left past the last full batch over to the next slab:
TILE_BATCH_CASES = {
    # 7 slabs of 65792 codes: a batch boundary inside the 4th slab, and a
    # code count that is not a multiple of the batch
    "boundary_in_slab": (100, 4100),
    # 3 such slabs: the whole field under one batch
    "under_one_batch": (40, 4100),
    # cesm: 58368-code slabs of 28.5 tiles, 423168 codes in all
    "cesm_ragged_tiles": (450, 900),
    # 3-D blocks of 65536 codes: every 4th slab closes a batch exactly
    "whole_batches": (16, 256, 256),
}


def _n_codes(shape: tuple[int, ...]) -> int:
    chunk = chunk_shape_for(len(shape))
    return int(np.prod([-(-s // c) * c for s, c in zip(shape, chunk)]))


@pytest.mark.parametrize(
    "shape", TILE_BATCH_CASES.values(), ids=list(TILE_BATCH_CASES)
)
def test_conformance_tile_batches(shape, monkeypatch):
    """Tile batches emit reference's bytes, with one tile-codec call per
    batch: no per-slab call, and no one-tile call for a slab's carry."""
    calls = []
    encode_tiles = fused.encode_tiles

    def counting(codes, scratch):
        calls.append(codes.size)
        return encode_tiles(codes, scratch)

    monkeypatch.setattr(fused, "encode_tiles", counting)
    assert_conformant("fused", make_field(shape, "smooth"), 1e-3, "rel")
    n = _n_codes(shape)
    batch, tail = fused.TILE_BATCH_CODES, n % fused.TILE_BATCH_CODES
    padded_tail = [tail + (-tail) % fused.TILE_CODES] if tail else []
    assert calls == [batch] * (n // batch) + padded_tail


@pytest.mark.parametrize("batch_tiles", [1, 3, 29])
@pytest.mark.parametrize(
    "shape", [(450, 900), (9, 300, 97), (100000,)], ids=str
)
def test_conformance_small_tile_batches(shape, batch_tiles, monkeypatch):
    """Batches smaller than a slab: each slab closes several batches and
    carries a part-batch over, still byte-identical to reference."""
    monkeypatch.setattr(fused, "TILE_BATCH_CODES", batch_tiles * fused.TILE_CODES)
    assert_conformant("fused", make_field(shape, "rough"), 1e-3, "rel")


# The fused encoder quantizes each slab into int32 when max |q| <= 2**27 and
# into int64 below 2**51.  At eb = 0.5 abs, q = rint(data), and float32
# holds every integer up to 2**24 and every multiple of 16 up to 2**28, so
# these fields place each 1-D slab (65536 codes) on a chosen side of 2**27.
WIDE_EB = 0.5
Q32 = 2**27


def _straddling_field() -> np.ndarray:
    """Four slabs of random walks in steps of 16, each topping out at 0."""
    rng = np.random.default_rng(27)
    steps = rng.integers(-3, 4, (4, fused.TARGET_SLAB_CODES))
    walk = np.cumsum(16.0 * steps, axis=1)
    walk -= walk.max(axis=1, keepdims=True)
    far = Q32 + 2.0**25
    field = np.stack([
        Q32 + walk[0],  # max |q| exactly 2**27: the last int32 slab
        far - walk[1],  # above it: int64
        walk[2] - far,  # above it, negative: int64
        walk[3],  # small: int32 again
    ])
    return field.reshape(-1).astype(np.float32)


def _slab_widths(data: np.ndarray) -> list[str]:
    q = np.rint(data.astype(np.float64) / (2 * WIDE_EB))
    n = fused.TARGET_SLAB_CODES
    return [
        "int32" if np.abs(q[i : i + n]).max() <= Q32 else "int64"
        for i in range(0, q.size, n)
    ]


def test_conformance_int32_and_int64_slabs():
    """One stream mixes int32 and int64 slabs; bytes, n_saturated and
    max_abs still equal reference's."""
    data = _straddling_field()
    assert _slab_widths(data) == ["int32", "int64", "int64", "int32"]
    assert_conformant("fused", data, WIDE_EB, "abs")


@pytest.mark.parametrize("m", [Q32, 2 * Q32], ids=["2**27", "2**28"])
def test_conformance_worst_case_residuals(m):
    """A 3-D checkerboard of +-m has interior residuals of 8m: 2**30 fits
    int32 at the int32 bound itself, 2**31 would wrap if that bound were
    not conservative."""
    sign = (-1.0) ** np.indices((16, 16, 16)).sum(axis=0)
    assert_conformant("fused", (m * sign).astype(np.float32), WIDE_EB, "abs")


@pytest.mark.parametrize("width", ["int32", "int64"])
def test_conformance_saturating_slabs_at_both_widths(width):
    """Residuals beyond 0x7FFF are counted and clamped at either width."""
    rng = np.random.default_rng(15)
    base = 2.0**20 if width == "int32" else 2.0**27 + 2.0**25
    data = base + 16.0 * np.cumsum(rng.integers(-2, 3, (96, 700)), axis=1)
    data[::7, ::13] += 2.0**17  # isolated spikes: residuals far past 0x7FFF
    data = data.astype(np.float32)
    n = fused.TARGET_SLAB_CODES
    q = np.abs(np.rint(data.astype(np.float64)))
    assert (q.max() <= Q32) == (width == "int32")
    ref = FZGPU(backend="reference").compress(data, WIDE_EB, "abs")
    assert ref.quantizer.n_saturated > data.size // 100 > 0
    assert data.size > n  # more than one slab
    assert_conformant("fused", data, WIDE_EB, "abs")


def _last_slab_bad(value: float) -> np.ndarray:
    """A (40, 64, 64) field, three non-finite values in its last slab."""
    data = make_field((40, 64, 64), "smooth")
    data[-1, -1, -3:] = value
    return data


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", ["abs", "rel"])
def test_non_finite_rejected_with_count(value, mode, tmp_path):
    """The fused encoder's guard rejects NaN/Inf the way the isfinite pass
    it replaces did, from every entry point and in both modes."""
    data = _last_slab_bad(value)
    with pytest.raises(UnsupportedDataError, match="3 non-finite"):
        FZGPU().compress(data, 1e-3, mode)
    with pytest.raises(UnsupportedDataError, match="3 non-finite"):
        FZGPU(backend="reference").compress(data, 1e-3, mode)
    with Engine(jobs=1) as engine:
        with pytest.raises(UnsupportedDataError, match="3 non-finite"):
            engine.compress_chunked(data, 1e-3, mode, chunk_bytes=64 << 10)
        src = tmp_path / "bad.npy"
        np.save(src, data)
        with pytest.raises(UnsupportedDataError, match="3 non-finite"):
            engine.compress_file(src, tmp_path / "bad.fz", 1e-3, mode,
                                 chunk_bytes=64 << 10)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_compress_file_leaves_no_output(jobs, tmp_path):
    """A NaN in the last segment fails compress_file after earlier segments
    were written: the truncated container must not stay on disk."""
    data = generate("cesm").data
    data.flat[-1] = np.nan
    src, dst = tmp_path / "nan.npy", tmp_path / "nan.fz"
    np.save(src, data)
    with Engine(jobs=jobs) as engine:
        with pytest.raises(UnsupportedDataError, match="1 non-finite"):
            engine.compress_file(src, dst, 1e-3, "abs", chunk_bytes=1 << 19)
    assert not dst.exists()


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("mode", ["rel", "abs"])
def test_conformance_matrix(backend, shape, kind, mode):
    data = make_field(shape, kind)
    for eb in EBS:
        assert_conformant(backend, data, eb, mode)


@pytest.mark.slow
@pytest.mark.parametrize("enc", BACKENDS)
@pytest.mark.parametrize("dec", BACKENDS)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_cross_backend_matrix(enc, dec, shape, kind):
    """Exhaustive encode-backend x decode-backend sweep (slow tier)."""
    data = make_field(shape, kind)
    ref_codec = FZGPU(backend="reference")
    for eb in (1e-2, 1e-4):
        stream = FZGPU(backend=enc).compress(data, eb, "rel").stream
        ref = ref_codec.decompress(stream)
        got = FZGPU(backend=dec).decompress(stream)
        assert np.array_equal(got, ref), (
            f"decode {dec} diverged from reference on an {enc}-encoded "
            f"stream: shape={shape} kind={kind} eb={eb}"
        )
