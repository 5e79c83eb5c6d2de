"""Branch-free sign-magnitude helpers against their oracles.

The fused backend and the vectorized ``FZIN`` passes build and read the
FZ-GPU v2 sign-magnitude codes with bit arithmetic instead of masked
``where=`` ufuncs.  These tests pin that arithmetic to the reference
definitions exhaustively (every int16 residual, every uint16 code), run a
spiky field through both saturating paths against the ``reference``
oracles, and keep masked ufuncs out of the two hot modules.
"""

from __future__ import annotations

import ast
import pathlib
import struct
import zlib

import numpy as np
import pytest

from repro.backends import fused
from repro.backends.fused import TILE_CODES, encode_tiles, join_tiles
from repro.backends.reference import ReferenceBackend
from repro.core.pipeline import FZGPU
from repro.core.quantize import (
    MAX_MAGNITUDE,
    SIGN_BIT,
    decode_sign_magnitude_into,
    encode_sign_magnitude,
    encode_sign_magnitude_int16,
)
from repro.planner import interp
from repro.planner.interp import interp_compress, interp_decompress, interp_info
from repro.utils.chunking import chunk_shape_for
from repro.utils.pool import Scratch

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


# ---------------------------------------------------------------------------
# exhaustive helper oracles
# ---------------------------------------------------------------------------


def test_encode_helper_matches_reference_on_every_int16():
    x = np.arange(-MAX_MAGNITUDE, MAX_MAGNITUDE + 1, dtype=np.int16)
    want, _ = encode_sign_magnitude(x)
    got = encode_sign_magnitude_int16(
        x, np.empty(x.shape, np.uint16), np.empty(x.shape, np.uint16)
    )
    assert got.dtype == np.uint16
    assert np.array_equal(got, want)
    # in place: the codes overwrite the residuals they are built from
    inplace = x.copy()
    encode_sign_magnitude_int16(
        inplace, inplace.view(np.uint16), np.empty(x.shape, np.uint16)
    )
    assert np.array_equal(inplace.view(np.uint16), want)


def test_encode_helper_matches_reference_after_clamping():
    """Out-of-range residuals clamped first give the reference's codes."""
    wide = np.array(
        [-(2**40), -(10**6), -32769, -32768, 32768, 32769, 10**6, 2**40, 0, -1, 1],
        dtype=np.int64,
    )
    want, stats = encode_sign_magnitude(wide)
    assert stats.n_saturated == 8
    for src in (wide, wide.astype(np.float64)):
        x = np.clip(src, -MAX_MAGNITUDE, MAX_MAGNITUDE).astype(np.int16)
        got = encode_sign_magnitude_int16(
            x, np.empty(x.shape, np.uint16), np.empty(x.shape, np.uint16)
        )
        assert np.array_equal(got, want)


def _every_code() -> tuple[np.ndarray, np.ndarray]:
    codes = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    mag = (codes & np.uint16(MAX_MAGNITUDE)).astype(np.int64)
    return codes, mag


def test_decode_helper_int32_matches_where_oracle():
    codes, mag = _every_code()
    want = np.where(codes & SIGN_BIT, -mag, mag)
    got = decode_sign_magnitude_into(
        codes, np.empty(codes.shape, np.int32), np.empty(codes.shape, np.int16)
    )
    assert np.array_equal(got, want)


def test_decode_helper_float64_matches_where_oracle_bitwise():
    codes, mag = _every_code()
    fmag = mag.astype(np.float64)
    want = np.where(codes & SIGN_BIT, -fmag, fmag)
    got = decode_sign_magnitude_into(codes, np.empty(codes.shape, np.float64))
    # via uint64 so the sign of zero counts: 0x8000 decodes to -0.0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(got[0x8000]) and not np.signbit(got[0])


def test_decode_helper_int_path_decodes_in_place():
    """The int path leaves ``codes`` holding their int16 values (the
    documented in-place contract); the float path leaves them unchanged."""
    codes, mag = _every_code()
    want = np.where(codes & SIGN_BIT, -mag, mag)
    kept = codes.copy()
    decode_sign_magnitude_into(codes, np.empty(codes.shape, np.float64))
    assert np.array_equal(codes, kept)
    got = decode_sign_magnitude_into(
        codes, np.empty(codes.shape, np.int32), np.empty(codes.shape, np.int16)
    )
    assert np.array_equal(got, want)
    assert np.array_equal(codes.view(np.int16), want)


def test_decoders_decode_in_place_only_over_their_scratch(monkeypatch):
    """``fused`` and FZIN take the in-place int path only for codes held in
    the scratch they decode with; the stream is never written."""
    calls = []

    def spy(codes, out, sign=None):
        owned = any(np.shares_memory(codes, a) for a in scratch._arenas.values())
        calls.append(out.dtype.kind == "f" or owned)
        return decode_sign_magnitude_into(codes, out, sign)

    monkeypatch.setattr(fused, "decode_sign_magnitude_into", spy)
    monkeypatch.setattr(interp, "decode_sign_magnitude_into", spy)
    rng = np.random.default_rng(5)
    for shape in ((5000,), (70, 90), (12, 20, 30)):
        data = np.cumsum(rng.standard_normal(shape), axis=0).astype(np.float32)
        eb = 1e-3 * float(data.max() - data.min())
        chunk = chunk_shape_for(data.ndim, None)
        out = fused.FusedBackend().encode(data, eb, chunk)
        literals = out.encoded.literals.copy()
        scratch = Scratch()
        want = ReferenceBackend().decode(
            out.encoded, out.padded_shape, shape, eb, chunk
        )
        got = fused.FusedBackend().decode(
            out.encoded, out.padded_shape, shape, eb, chunk, scratch
        )
        assert np.array_equal(got, want)
        assert np.array_equal(out.encoded.literals, literals)
        stream = interp_compress(data, eb).stream
        kept = bytes(stream)
        scratch = Scratch()
        interp_decompress(stream, scratch=scratch)
        assert stream == kept
    assert calls and all(calls)


def _fzin_stream(
    codes: np.ndarray, eb_abs: float, anchor_log2: int, anchors=None
) -> bytes:
    """A CRC-valid FZIN stream of ``anchors`` (default all zero) around
    ``codes``."""
    n = codes.size
    padded = np.zeros(n + (-n) % TILE_CODES, np.uint16)
    padded[:n] = codes.reshape(-1)
    encoded = join_tiles([encode_tiles(padded, Scratch())])
    grid = interp._anchor_grid_shape(codes.shape, anchor_log2)
    if anchors is None:
        anchors = np.zeros(grid)
    anchors = np.asarray(anchors, dtype=interp._ANCHOR_DTYPE).reshape(grid)
    header = struct.pack(
        interp._HEADER_FMT,
        interp.INTERP_MAGIC,
        interp.INTERP_VERSION,
        codes.ndim,
        0,
        *interp._pad3(codes.shape),
        eb_abs,
        anchor_log2,
        0,
        encoded.n_blocks,
        encoded.n_nonzero,
        0,
        anchors.size,
    )
    body = (
        header
        + anchors.tobytes()
        + encoded.bitflags.tobytes()
        + encoded.literals.tobytes()
    )
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_fzin_negative_zero_code_decodes_identically(monkeypatch):
    """Code 0x8000 (-0) decodes bit-identically under both pass impls.

    Even last dimensions of 8 or more run the finest last-axis pass on
    flat views, with 0x8000 codes on its targets (every odd column).
    """
    flat_calls = []
    predict_flat = interp._predict_flat
    monkeypatch.setattr(
        interp, "_predict_flat",
        lambda *args: flat_calls.append(1) or predict_flat(*args),
    )
    anchor_log2 = 2
    s0 = 1 << anchor_log2
    for shape in ((9, 13), (9, 16), (3, 5, 16)):
        rng = np.random.default_rng(8000)
        codes = rng.integers(0, 4, shape).astype(np.uint16)
        codes[rng.random(shape) < 0.5] |= SIGN_BIT
        codes[..., ::2, 1::2] = SIGN_BIT
        codes[(slice(None, None, s0),) * len(shape)] = 0  # anchors: no residual
        assert np.count_nonzero(codes == SIGN_BIT) > 10
        stream = _fzin_stream(codes, 0.5, anchor_log2)
        assert interp_info(stream)["shape"] == shape
        flat_calls.clear()
        ref = interp_decompress(stream, impl="reference")
        vec = interp_decompress(stream, impl="vectorized")
        assert np.array_equal(ref.view(np.uint32), vec.view(np.uint32))
        assert len(flat_calls) == (shape[-1] % 2 == 0)


@pytest.mark.parametrize("shape", [(8,), (9,)], ids=str)
def test_fzin_negative_zero_code_on_a_negative_zero_prediction(shape):
    """The one place a -0 code shows: a -0.0 prediction, which a crafted
    stream makes by underflow.  At eb = 5e-324 (2 * eb = 2**-1073) the
    anchors 0 and -1 predict -2**-1074 at 2 and -0.0 at 1; -0.0 + -0.0 is
    -0.0, where an int16 decode's +0 would give +0.0.
    """
    codes = np.zeros(shape, np.uint16)
    codes[1] = SIGN_BIT
    grid = interp._anchor_grid_shape(shape, 2)
    anchors = np.zeros(grid)
    anchors[1] = -1
    stream = _fzin_stream(codes, 5e-324, 2, anchors)
    ref = interp_decompress(stream, impl="reference")
    vec = interp_decompress(stream, impl="vectorized")
    assert np.signbit(ref[1]) and ref[1] == 0
    assert np.array_equal(ref.view(np.uint32), vec.view(np.uint32))


#: (eb, tiny negative): rint gives -0.0 for -0.3 quanta at eb = 1e-3 and
#: for -0.6 / 2e300 at eb = 1e300; at eb = 5e-324 every nonzero float32
#: saturates, and -0.0 data gives -0.0 residuals at every eb
_SIGNED_ZERO_CASES = [(1e-3, -0.3 * 2e-3), (5e-324, -1e-45), (1e300, -0.6)]


@pytest.mark.parametrize("eb, tiny", _SIGNED_ZERO_CASES, ids=str)
@pytest.mark.parametrize("shape", [(700,), (24, 40), (6, 10, 16)], ids=str)
def test_fzin_encoder_never_writes_negative_zero(shape, eb, tiny):
    """The invariant that lets the vectorized encoder drop its + 0.0 pass:
    no code 0x8000 and no -0.0 in ``rec``, though rint gives -0.0
    residuals.  The field mixes +0.0, -0.0 and tiny negatives; anchor
    positions hold zeros, so no anchor overflows int64.
    """
    rng = np.random.default_rng(0x8000)
    data = np.zeros(shape, np.float32)
    pick = rng.random(shape)
    data[pick < 0.4] = -0.0
    data[pick > 0.7] = tiny
    asel = (slice(None, None, 16),) * len(shape)
    data[asel] = 0.0
    assert np.count_nonzero(np.signbit(data)) > data.size // 2
    ref = interp_compress(data, eb, impl="reference")
    for impl in ("reference", "vectorized"):
        scratch = Scratch()
        got = interp_compress(data, eb, impl=impl, scratch=scratch)
        assert got.stream == ref.stream
        n = data.size
        codes = scratch.take("fzin.codes", (n,), np.uint16)
        rec = scratch.take("fzin.rec", shape, np.float64)
        assert not np.any(codes == SIGN_BIT)
        assert not np.any(np.signbit(rec) & (rec == 0))


# ---------------------------------------------------------------------------
# saturation: a spiky field through both saturating paths
# ---------------------------------------------------------------------------


def _spiky_field(
    shape: tuple[int, ...] = (96, 40, 40),
    spikes: tuple[tuple[int, ...], ...] = ((48, 24, 8), (50, 21, 13)),
) -> tuple[np.ndarray, float, list[tuple[int, ...]]]:
    """A smooth 3-D field with two 1e6-quanta spikes, and its tight eb.

    (96, 40, 40) spans three fused slabs of 40 chunk rows, so the spiked
    middle slab takes the saturating branch while its neighbours do not.
    One spike is positive and one negative, so residuals saturate with
    both signs; both sit on non-anchor points of the FZIN stride-16 grid.
    """
    rng = np.random.default_rng(1_000_000)
    data = rng.standard_normal(shape)
    for axis in range(3):
        data = np.cumsum(data, axis=axis)
    data /= np.abs(data).max()
    eb = 1e-5
    spikes = list(spikes)
    for spike, sign in zip(spikes, (1, -1)):
        data[spike] += sign * 1e6 * 2 * eb
    return data.astype(np.float32), eb, spikes


def test_spiky_field_saturates_fused_like_reference():
    data, eb, _ = _spiky_field()
    ref = FZGPU(backend="reference").compress(data, eb, "abs")
    got = FZGPU(backend="fused").compress(data, eb, "abs")
    # only the fused saturating-slab branch counts saturated codes
    assert got.quantizer.n_saturated >= 2
    assert got.quantizer.max_abs_delta > 10**5
    assert got.stream == ref.stream
    assert got.quantizer == ref.quantizer
    want = FZGPU(backend="reference").decompress(ref.stream)
    dec = FZGPU(backend="fused").decompress(ref.stream)
    assert np.array_equal(dec.view(np.uint32), want.view(np.uint32))


def test_spiky_field_saturates_fzin_like_reference():
    data, eb, spikes = _spiky_field()
    assert all(any(c % 16 for c in spike) for spike in spikes)
    ref = interp_compress(data, eb, impl="reference")
    vec = interp_compress(data, eb, impl="vectorized")
    # only the vectorized saturating pass counts saturated codes
    assert vec.quantizer.n_saturated >= 2
    assert vec.quantizer.max_abs_delta > 10**5
    assert vec.stream == ref.stream
    assert vec.quantizer == ref.quantizer
    assert interp_info(vec.stream)["n_saturated"] == ref.quantizer.n_saturated
    dec_ref = interp_decompress(ref.stream, impl="reference")
    dec_vec = interp_decompress(ref.stream, impl="vectorized")
    assert np.array_equal(dec_ref.view(np.uint32), dec_vec.view(np.uint32))


#: (16, 300, 97) pads to (16, 304, 104) and encodes as chunk-row x
#: chunk-column blocks of (8, 72, 104) codes.  Both spikes sit in the second
#: chunk-row: one in the middle block of columns [144, 216), one in the
#: ragged last block [288, 304), whose columns past 300 are chunk padding.
BLOCKED_SHAPE = (16, 300, 97)
BLOCKED_SPIKES = ((10, 150, 50), (12, 293, 60))


def test_saturation_inside_chunk_column_blocks():
    data, eb, _ = _spiky_field(BLOCKED_SHAPE, BLOCKED_SPIKES)
    assert fused._encode_slab_shape((16, 304, 104), (8, 8, 8)) == (8, 72, 104)
    ref = FZGPU(backend="reference").compress(data, eb, "abs")
    got = FZGPU(backend="fused").compress(data, eb, "abs")
    # fused counts saturated codes only in its saturating-slab branch, so
    # this proves the branch ran inside the two non-first blocks
    assert got.quantizer.n_saturated >= 2
    assert got.quantizer.n_saturated == ref.quantizer.n_saturated
    assert got.stream == ref.stream
    assert got.quantizer == ref.quantizer


def test_exact_fallback_from_ragged_last_block(monkeypatch):
    """A quantum >= 2**51 in the last block reruns the field on reference."""
    calls = []

    class Spy(ReferenceBackend):
        def encode(self, *args, **kwargs):
            calls.append(args[0].shape)
            return super().encode(*args, **kwargs)

    data, eb, _ = _spiky_field(BLOCKED_SHAPE, BLOCKED_SPIKES)
    data[12, 298, 90] = 1e11
    assert 1e11 / (2 * eb) >= 2**51
    monkeypatch.setattr(fused, "_EXACT", Spy())
    got = FZGPU(backend="fused").compress(data, eb, "abs")
    assert calls == [BLOCKED_SHAPE]
    ref = FZGPU(backend="reference").compress(data, eb, "abs")
    assert got.stream == ref.stream
    assert got.quantizer == ref.quantizer


# ---------------------------------------------------------------------------
# tooling guard: no masked ufuncs in the hot modules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "module", ["backends/fused.py", "planner/interp.py"], ids=str
)
def test_no_masked_ufuncs_in_hot_modules(module):
    path = SRC / module
    tree = ast.parse(path.read_text(), filename=str(path))
    masked = [
        f"{module}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and any(kw.arg == "where" for kw in node.keywords)
    ]
    assert not masked, (
        f"masked where= ufunc call(s) at {', '.join(masked)}: NumPy's masked "
        "loops branch per element and do not vectorize; the masked "
        "np.negative(f, out=f, where=neg) took 34.5 of 84 ms of a fused "
        "decode of a (64, 256, 256) nyx slice.  Use the branch-free "
        "helpers in repro.core.quantize instead."
    )
