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
from repro.errors import ConfigError, DecompressionError
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
