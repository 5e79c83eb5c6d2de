"""Cubic multi-level interpolation predictor (the ``interp`` plan, ``FZIN``).

This is the high-ratio pipeline of the planner, modeled on cuSZ-i /
SZ3-style interpolation compression: instead of the Lorenzo predictor's
immediate-neighbor differences, values are predicted level by level from a
coarse *anchor grid* by cubic spline interpolation, and only the quantized
prediction residuals are stored.  On smooth fields the cubic predictor is
dramatically more accurate than Lorenzo, so the residual codes are almost
all zero and the existing bitshuffle + zero-block stages collapse them to
near nothing.

Algorithm
---------
* **Anchors** — every grid point whose coordinates are all multiples of
  ``2**anchor_log2`` is stored exactly as its pre-quantized integer
  ``round(v / 2eb)`` (int64, outside the residual stream).
* **Levels** — for stride ``s = 2**anchor_log2 / 2, ..., 1``, one pass per
  axis predicts the points at odd multiples of ``s`` along that axis from
  the already-reconstructed stride-``2s`` grid: a 4-point cubic midpoint
  ``(9(f(x-s)+f(x+s)) - (f(x-3s)+f(x+3s))) / 16`` in the interior, linear
  at boundaries, nearest-neighbor at the trailing edge.  The residual
  ``round((v - pred) / 2eb)`` is clamped to the same 15-bit sign-magnitude
  codes as the fused path, and the encoder reconstructs as it goes — the
  prediction context is *identical* on both sides, which is what makes the
  decode exact and the error bound hold (except at saturated residuals,
  the same caveat as the fused path).
* **Encoding** — the residual code grid (zeros at anchor positions) runs
  through the fused backend's bit-plane tile codec, byte-equal to the
  staged bitshuffle + zero-block stages, into a CRC-trailed ``FZIN`` stream.

Two implementations are provided and are **byte-identical** by
construction: the staged reference walks targets one hyperplane at a time;
the vectorized fast path predicts every target of a pass at once through
basic-slice views and pooled buffers.  Both apply the same float64
operations in the same order, so each target sees the same expression tree
regardless of implementation (``* 0.0625`` is ``/ 16.0`` bit for bit) —
conformance is pinned by ``tests/test_planner.py``.  The fast path
predicts in one of two ways:

* the finest pass along the last axis (``s = 1``) of C-contiguous arrays
  with an even last dimension of 8 or more — half of a field's targets,
  and 43% of the pass time of a (64, 128, 128) chunk when it ran strided —
  runs on flat stride-2 views of the whole chunk: the cubic for every
  target in flat order, then each row's linear head, linear tail and
  nearest-left last target overwritten through 1-D column views, so NumPy
  runs long 1-D loops;
* every other pass splits its targets into at most four strided runs, one
  per prediction rule.

It handles the sign without masked ``where=`` ufuncs.  The encoder keeps
the signed ``rint`` residual ``t``, builds codes with the int16
``|x| | (x & 0x8000)`` trick
(:func:`~repro.core.quantize.encode_sign_magnitude_int16`) and
reconstructs from ``t`` itself: where ``rint`` gives ``-0.0`` the reference
uses ``+0.0``, which differs only at a ``-0.0`` prediction, and the
encoder never makes one (the argument is in :func:`_pass_vectorized`).
The decoder reads each pass's codes into an int16 buffer and decodes
``((code & 0x7FFF) ^ s) - s`` with ``s = int16(code) >> 15`` in int16,
widened to float64 once (:func:`~repro.core.quantize.decode_sign_magnitude_into`);
only a pass holding code ``0x8000``, which the encoder never writes, takes
the float ``copysign`` decode, so that code still reads as ``-0.0``.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Callable

import numpy as np

from repro import telemetry
from repro.backends.fused import TILE_BATCH_CODES, TILE_CODES, TileDecoder
from repro.backends.fused import encode_tiles, join_tiles
from repro.core.encoder import BLOCK_BYTES, BLOCK_WORDS, EncodedBlocks
from repro.core.format import MAX_ELEMENTS, implied_block_count
from repro.core.pipeline import CompressionResult
from repro.core.quantize import (
    MAX_MAGNITUDE,
    SIGN_BIT,
    QuantizerStats,
    check_quantized,
    decode_sign_magnitude_into,
    encode_sign_magnitude_int16,
)
from repro.errors import ConfigError, DecompressionError, FormatError
from repro.utils.pool import Scratch
from repro.utils.safeio import BoundedReader
from repro.utils.validation import ensure_float32, ensure_ndim, ensure_positive

__all__ = [
    "INTERP_MAGIC",
    "INTERP_VERSION",
    "interp_compress",
    "interp_decompress",
    "interp_peek_shape",
    "interp_preview",
    "default_anchor_log2",
]

INTERP_MAGIC = b"FZIN"
INTERP_VERSION = 1

# magic, version, ndim, reserved, 3x dim, eb_abs, anchor_log2, reserved,
# pad, n_blocks, n_nonzero, n_saturated, n_anchors
_HEADER_FMT = "<4sBBH3QdBB2xQQQQ"
_HEADER_BYTES = struct.calcsize(_HEADER_FMT)
_CRC_FMT = "<I"
_CRC_BYTES = struct.calcsize(_CRC_FMT)
_ANCHOR_DTYPE = np.dtype("<i8")

#: Hard cap on the anchor stride exponent a header may declare.
_MAX_ANCHOR_LOG2 = 30
#: Code 0x8000 (``-0``) read as int16; the encoder never writes it.
_NEG_ZERO_CODE = np.iinfo(np.int16).min


def default_anchor_log2(shape: tuple[int, ...]) -> int:
    """Default anchor stride exponent for a field shape.

    1D fields use a sparser anchor grid (stride 64) because anchors cost
    8 bytes each and a stride-16 line grid would floor the bitrate at half
    a byte per value; in 2D/3D the anchor overhead at stride 16 is already
    negligible (one anchor per 256 / 4096 points).
    """
    return 6 if len(shape) == 1 else 4


def _max_abs(mag: np.ndarray) -> int:
    """Largest unclamped residual magnitude, capped at ``2**62``."""
    m = float(np.max(mag, initial=0.0))
    return int(m) if m <= float(1 << 62) else 1 << 62


def _axis_sel(ndim: int, axis: int, at) -> tuple:
    """Index tuple selecting position(s) ``at`` along ``axis``."""
    return (slice(None),) * axis + (at,) + (slice(None),) * (ndim - axis - 1)


def _region(ndim: int, axis: int, s: int) -> tuple:
    """The sub-grid one pass operates on.

    Axes before ``axis`` were filled earlier this level (stride ``s``);
    axes after it are still on the coarser stride ``2s``; the pass axis
    stays full so target positions are addressed in grid coordinates.
    """
    return tuple(
        slice(None, None, s) if a < axis
        else (slice(None) if a == axis else slice(None, None, 2 * s))
        for a in range(ndim)
    )


# -- the two pass implementations -------------------------------------------


def _pass_reference(rec, src, codes, axis, s, eb2, encode, scratch):
    """Staged reference: one hyperplane of targets at a time.

    This is the oracle.  Predictions are the 4-point cubic midpoint
    ``(9(b + c) - (a + d)) / 16``, the linear ``(b + c) * 0.5`` or the
    nearest-left ``b``; residuals are clamped sign-magnitude codes.  The
    vectorized pass repeats these float64 operations in the same order.
    """
    d = rec.shape[axis]
    nd = rec.ndim
    n_sat = 0
    max_abs = 0
    for i in range(s, d, 2 * s):
        left = rec[_axis_sel(nd, axis, i - s)]
        if i + s >= d:
            pred = left
        elif i - 3 * s >= 0 and i + 3 * s < d:
            far = rec[_axis_sel(nd, axis, i - 3 * s)]
            far = far + rec[_axis_sel(nd, axis, i + 3 * s)]
            pred = (9.0 * (left + rec[_axis_sel(nd, axis, i + s)]) - far) / 16.0
        else:
            pred = (left + rec[_axis_sel(nd, axis, i + s)]) * 0.5
        sel = _axis_sel(nd, axis, i)
        if encode:
            t = np.rint((src[sel] - pred) / eb2)
            mag = np.abs(t)
            n_sat += int(np.count_nonzero(mag > MAX_MAGNITUDE))
            max_abs = max(max_abs, _max_abs(mag))
            mag = np.minimum(mag, float(MAX_MAGNITUDE))
            neg = t < 0.0
            codes[sel] = mag.astype(np.uint16) | np.where(neg, SIGN_BIT, np.uint16(0))
        else:
            mag = (codes[sel] & np.uint16(MAX_MAGNITUDE)).astype(np.float64)
            neg = (codes[sel] & SIGN_BIT) != 0
        rec[sel] = pred + np.where(neg, -mag, mag) * eb2
    return n_sat, max_abs


def _flat_pass(rec, src, codes, axis, s) -> bool:
    """Whether a pass runs on flat stride-2 views of the whole chunk.

    That is the finest pass along the last axis, of C-contiguous arrays
    (``reshape(-1)`` of any other layout would copy) with an even last
    dimension, so the targets are exactly the odd flat positions.  From a
    dimension of 8 on, every row holds a cubic target.
    """
    d = rec.shape[-1]
    return (
        axis == rec.ndim - 1
        and s == 1
        and d % 2 == 0
        and d >= 8
        and all(a is None or a.flags.c_contiguous for a in (rec, src, codes))
    )


def _predict_flat(rec, pred, ad):
    """Predictions of a :func:`_flat_pass`, as long 1-D loops.

    The cubic runs over every target that has four in-bounds flat
    neighbors; then each row's linear head, linear tail and nearest-left
    last target, the targets whose flat neighbors straddle a row edge, are
    overwritten through 1-D column views.  ``ad`` holds the cubic's
    ``a + d``.
    """
    d = rec.shape[-1]
    even = rec.reshape(-1)[::2]  # the neighbors, in flat order
    m = pred.size
    p = pred.reshape(-1)[1 : m - 2]
    np.add(even[1 : m - 2], even[2 : m - 1], out=p)
    np.multiply(p, 9.0, out=p)
    a = ad.reshape(-1)[1 : m - 2]
    np.add(even[: m - 3], even[3:], out=a)
    np.subtract(p, a, out=p)
    np.multiply(p, 0.0625, out=p)
    rows = rec.reshape(-1, d)
    cols = pred.reshape(-1, d // 2)
    for k, i in ((0, 1), (d // 2 - 2, d - 3)):  # linear head and tail
        np.add(rows[:, i - 1], rows[:, i + 1], out=cols[:, k])
        np.multiply(cols[:, k], 0.5, out=cols[:, k])
    np.copyto(cols[:, -1], rows[:, -2])  # nearest-left last target


def _predict_runs(rec, pred, ad, axis, s):
    """Predictions of any pass, one contiguous run of targets per rule.

    The rules cover the linear head, the cubic interior, the linear tail
    and the nearest-left last target, so every neighbor read is a strided
    basic slice.  ``ad`` holds the cubic's ``a + d``.
    """
    d = rec.shape[axis]
    nd = rec.ndim
    n_t = pred.shape[axis]
    n_r = len(range(s, d - s, 2 * s))  # targets with a right neighbor
    n_c = max(1, len(range(s, d - 3 * s, 2 * s)))  # end of the cubic run

    def at(k0, k1, off):  # positions (2k + 1)s + off of targets k0 <= k < k1
        span = slice((2 * k0 + 1) * s + off, 2 * k1 * s + off, 2 * s)
        return rec[_axis_sel(nd, axis, span)]

    for k0, k1 in ((0, min(n_r, 1)), (n_c, n_r)):  # linear head and tail
        if k0 < k1:
            p = pred[_axis_sel(nd, axis, slice(k0, k1))]
            np.add(at(k0, k1, -s), at(k0, k1, s), out=p)
            np.multiply(p, 0.5, out=p)
    if n_c > 1:  # cubic interior
        p = pred[_axis_sel(nd, axis, slice(1, n_c))]
        np.add(at(1, n_c, -s), at(1, n_c, s), out=p)
        np.multiply(p, 9.0, out=p)
        a = ad[_axis_sel(nd, axis, slice(1, n_c))]
        np.add(at(1, n_c, -3 * s), at(1, n_c, 3 * s), out=a)
        np.subtract(p, a, out=p)
        np.multiply(p, 0.0625, out=p)
    if n_r < n_t:  # trailing target without a right neighbor
        np.copyto(pred[_axis_sel(nd, axis, slice(n_r, n_t))], at(n_r, n_t, -s))


def _pass_vectorized(rec, src, codes, axis, s, eb2, encode, scratch):
    """Fast path: every target of the pass at once, through views.

    Targets sit at odd multiples of ``s`` and neighbors at even ones, so
    reading every neighbor before writing any target matches the
    reference's in-order walk.  Predictions come from :func:`_predict_flat`
    when :func:`_flat_pass` allows, else from :func:`_predict_runs`; the
    residual arithmetic then goes through pooled contiguous buffers with
    ``out=``.  Every target keeps the reference's float64 expression tree;
    ``* 0.0625`` is ``/ 16.0`` bit for bit, as a power of two divides
    exactly.
    """
    d = rec.shape[axis]
    nd = rec.ndim
    if s >= d:
        return 0, 0
    tgt = _axis_sel(nd, axis, slice(s, d, 2 * s))
    pred = scratch.take("fzin.pred", rec[tgt].shape, np.float64)
    # res holds the cubic's (a + d) first, then the signed residuals
    res = scratch.take("fzin.res", pred.shape, np.float64)
    if _flat_pass(rec, src, codes, axis, s):
        _predict_flat(rec, pred, res)
        pred, res = pred.reshape(-1), res.reshape(-1)
        rec, src, codes = (
            None if a is None else a.reshape(-1)[1::2] for a in (rec, src, codes)
        )
    else:
        _predict_runs(rec, pred, res, axis, s)
        rec, src, codes = (None if a is None else a[tgt] for a in (rec, src, codes))
    n_sat = max_abs = 0
    x = scratch.take("fzin.x16", res.shape, np.int16)
    m16 = scratch.take("fzin.m16", res.shape, np.int16)
    if encode:
        np.subtract(src, pred, out=res)
        np.divide(res, eb2, out=res)
        np.rint(res, out=res)
        max_abs = _max_abs(max(res.max(), -res.min()))
        if max_abs > MAX_MAGNITUDE:  # rare: count and clamp saturated codes
            n_sat = int(np.count_nonzero(res > MAX_MAGNITUDE))
            n_sat += int(np.count_nonzero(res < -MAX_MAGNITUDE))
            np.clip(res, -MAX_MAGNITUDE, MAX_MAGNITUDE, out=res)
        # codes are built contiguous, then stored to the strided targets once
        np.copyto(x, res, casting="unsafe")
        encode_sign_magnitude_int16(x, x.view(np.uint16), m16.view(np.uint16))
        np.copyto(codes, x.view(np.uint16))
        # No + 0.0 pass: the reference reconstructs from +0.0 where rint
        # gives -0.0, but pred + -0.0 differs from pred + 0.0 only at
        # pred == -0.0, and rint never gives -0.0 there.  Anchors are
        # integers times eb2, so never -0.0, and no sum, difference or 9x
        # of values that are not -0.0 is; only a product (x 0.5, x 0.0625)
        # that underflows can be.  Every value stays a multiple of
        # 2**(e - 52 - 4 * passes), e the exponent of eb2, so that needs
        # passes > (e + 1022) / 4, at most 3 * _MAX_ANCHOR_LOG2, hence
        # eb2 < 2**-662.  At pred == -0.0 the residual is d / eb2 for a
        # float32 d: |d| >= 2**-149 puts it far from zero, and d == 0
        # gives +0.0.
    else:
        np.copyto(x, codes.view(np.int16))
        if x.min() == _NEG_ZERO_CODE:
            # a crafted -0 code: the float decode keeps its -0.0, which a
            # -0.0 prediction (see test_sign_magnitude.py) would show
            decode_sign_magnitude_into(x.view(np.uint16), res)
        else:  # int16 decode, widened to float64 once
            decode_sign_magnitude_into(x.view(np.uint16), res, m16)
    np.multiply(res, eb2, out=res)
    np.add(pred, res, out=rec)
    return n_sat, max_abs


_IMPLS: dict[str, Callable] = {
    "reference": _pass_reference,
    "vectorized": _pass_vectorized,
}


def _resolve_impl(impl: str | None) -> Callable:
    if impl in (None, "auto"):
        impl = "vectorized"
    fn = _IMPLS.get(impl)
    if fn is None:
        raise ConfigError(
            f"interp impl must be 'reference', 'vectorized' or 'auto', got {impl!r}"
        )
    return fn


def _run_levels(rec, src, codes, anchor_log2, eb2, encode, impl_pass, scratch):
    """Drive every (level, axis) pass; returns (n_saturated, max_abs)."""
    ndim = rec.ndim
    n_sat = 0
    max_abs = 0
    s = (1 << anchor_log2) // 2
    while s >= 1:
        for axis in range(ndim):
            region = _region(ndim, axis, s)
            ns, ma = impl_pass(
                rec[region],
                None if src is None else src[region],
                codes[region],
                axis,
                s,
                eb2,
                encode,
                scratch,
            )
            n_sat += ns
            max_abs = max(max_abs, ma)
        s //= 2
    return n_sat, max_abs


def _anchor_grid_shape(shape: tuple[int, ...], anchor_log2: int) -> tuple[int, ...]:
    s0 = 1 << anchor_log2
    return tuple(-(-d // s0) for d in shape)


def _pad3(dims: tuple[int, ...]) -> tuple[int, int, int]:
    dims = tuple(int(d) for d in dims)
    return tuple(list(dims) + [1] * (3 - len(dims)))  # type: ignore[return-value]


# -- stream assembly / parsing ----------------------------------------------


def interp_compress(
    data: np.ndarray,
    eb_abs: float,
    *,
    anchor_log2: int | None = None,
    impl: str | None = None,
    scratch=None,
) -> CompressionResult:
    """Compress ``data`` with the interpolation predictor (absolute bound).

    ``impl`` selects the pass implementation (``"reference"`` /
    ``"vectorized"``; ``None``/``"auto"`` mean vectorized) — output bytes
    are identical for both.
    ``scratch`` lends the pooled working buffers (a private one otherwise).
    """
    data = ensure_ndim(ensure_float32(data))
    eb_abs = ensure_positive(eb_abs, "eb_abs")
    impl_pass = _resolve_impl(impl)
    if anchor_log2 is None:
        anchor_log2 = default_anchor_log2(data.shape)
    if not 1 <= anchor_log2 <= _MAX_ANCHOR_LOG2:
        raise ConfigError(f"anchor_log2 must be in [1, {_MAX_ANCHOR_LOG2}]")
    scratch = Scratch() if scratch is None else scratch
    eb2 = 2.0 * eb_abs
    with telemetry.span("stage.interp.predict"):
        rec = scratch.take("fzin.rec", data.shape, np.float64)
        # codes are zero-padded to whole tiles, as bitshuffle pads them
        n = data.size
        padded = scratch.take("fzin.codes", (n + (-n) % TILE_CODES,), np.uint16)
        padded[n:] = 0
        codes = padded[:n].reshape(data.shape)
        s0 = 1 << anchor_log2
        asel = tuple(slice(None, None, s0) for _ in range(data.ndim))
        anchors = check_quantized(
            np.rint(data[asel].astype(np.float64) / eb2), eb_abs
        ).astype(np.int64)
        rec[asel] = anchors.astype(np.float64) * eb2
        codes[asel] = 0
        # data stays float32: it promotes exactly inside the float64 ufuncs
        n_sat, max_abs = _run_levels(
            rec, data, codes, anchor_log2, eb2, True, impl_pass, scratch
        )
    with telemetry.span("stage.encode"):  # in cache-sized batches of tiles
        step = TILE_BATCH_CODES
        encoded = join_tiles([
            encode_tiles(padded[lo : lo + step], scratch)
            for lo in range(0, padded.size, step)
        ])
    anchors_le = np.ascontiguousarray(anchors, dtype=_ANCHOR_DTYPE)
    header = struct.pack(
        _HEADER_FMT,
        INTERP_MAGIC,
        INTERP_VERSION,
        data.ndim,
        0,
        *_pad3(data.shape),
        float(eb_abs),
        anchor_log2,
        0,
        encoded.n_blocks,
        encoded.n_nonzero,
        n_sat,
        int(anchors_le.size),
    )
    with telemetry.span("stage.pack"):
        body = (
            header
            + anchors_le.tobytes()
            + encoded.bitflags.tobytes()
            + encoded.literals.tobytes()
        )
        stream = body + struct.pack(_CRC_FMT, zlib.crc32(body) & 0xFFFFFFFF)
    return CompressionResult(
        stream=stream,
        original_bytes=int(data.nbytes),
        compressed_bytes=len(stream),
        eb_abs=eb_abs,
        quantizer=QuantizerStats(n_sat, 0, max_abs),
        n_blocks=encoded.n_blocks,
        n_nonzero_blocks=encoded.n_nonzero,
        stage_sizes={
            "codes_bytes": int(codes.nbytes),
            "shuffled_bytes": encoded.n_blocks * BLOCK_BYTES,
            "flags_bytes": int(encoded.bitflags.nbytes),
            "literals_bytes": int(encoded.literals.nbytes),
            "anchors_bytes": int(anchors_le.nbytes),
        },
        plan="interp",
    )


def _unpack_header(buf: bytes):
    """Parse + cross-validate an FZIN header (the full hardening ladder)."""
    reader = BoundedReader(buf, name="FZIN stream")
    (
        magic,
        version,
        ndim,
        _r0,
        d0,
        d1,
        d2,
        eb_abs,
        anchor_log2,
        _r1,
        n_blocks,
        n_nonzero,
        n_saturated,
        n_anchors,
    ) = reader.read_struct(_HEADER_FMT, "header")
    if magic != INTERP_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != INTERP_VERSION:
        raise FormatError(f"unsupported FZIN stream version {version}")
    if not 1 <= ndim <= 3:
        raise FormatError(f"bad ndim {ndim}")
    shape = (d0, d1, d2)[:ndim]
    if any(d <= 0 for d in shape):
        raise FormatError(f"non-positive dimension in shape {shape}")
    if not (eb_abs > 0 and math.isfinite(eb_abs)):
        raise FormatError(f"bad error bound {eb_abs}")
    if not 1 <= anchor_log2 <= _MAX_ANCHOR_LOG2:
        raise FormatError(f"bad anchor stride exponent {anchor_log2}")
    n_codes = math.prod(shape)
    if n_codes > MAX_ELEMENTS:
        raise FormatError(
            f"element count {n_codes} exceeds the cap {MAX_ELEMENTS}"
        )
    implied_anchors = math.prod(_anchor_grid_shape(shape, anchor_log2))
    if n_anchors != implied_anchors:
        raise FormatError(
            f"n_anchors {n_anchors} does not match the {implied_anchors} "
            f"anchors implied by shape {shape} at stride 2**{anchor_log2}"
        )
    implied = implied_block_count(n_codes)
    if n_blocks != implied:
        raise FormatError(
            f"n_blocks {n_blocks} does not match the {implied} blocks "
            f"implied by shape {shape}"
        )
    if n_nonzero > n_blocks:
        raise FormatError(f"n_nonzero {n_nonzero} exceeds n_blocks {n_blocks}")
    if n_saturated > n_codes:
        raise FormatError(
            f"n_saturated {n_saturated} exceeds element count {n_codes}"
        )
    return shape, float(eb_abs), anchor_log2, n_blocks, n_nonzero, n_anchors


def _check_framing(buf: bytes):
    """Header validation ladder + exact-length + CRC for a full FZIN stream."""
    header = _unpack_header(buf)
    shape, eb_abs, anchor_log2, n_blocks, n_nonzero, n_anchors = header
    flag_bytes = (n_blocks + 7) // 8
    expected = (
        _HEADER_BYTES
        + n_anchors * _ANCHOR_DTYPE.itemsize
        + flag_bytes
        + n_nonzero * BLOCK_BYTES
        + _CRC_BYTES
    )
    if len(buf) != expected:
        raise FormatError(
            f"stream size mismatch: have {len(buf)} bytes, header implies {expected}"
        )
    (stored,) = struct.unpack_from(_CRC_FMT, buf, expected - _CRC_BYTES)
    actual = zlib.crc32(memoryview(buf)[: expected - _CRC_BYTES]) & 0xFFFFFFFF
    if stored != actual:
        raise FormatError(
            f"stream CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )
    return header


def interp_info(stream: bytes | bytearray | memoryview) -> dict:
    """Validated header facts of an ``FZIN`` stream (framing + CRC checked)."""
    buf = bytes(stream)
    shape, eb_abs, anchor_log2, n_blocks, n_nonzero, n_anchors = _check_framing(buf)
    n_sat = struct.unpack_from(_HEADER_FMT, buf)[-2]
    return {
        "shape": shape,
        "eb_abs": eb_abs,
        "anchor_stride": 1 << anchor_log2,
        "n_anchors": n_anchors,
        "n_blocks": n_blocks,
        "n_nonzero": n_nonzero,
        "n_saturated": n_sat,
    }


def interp_peek_shape(stream: bytes | bytearray | memoryview) -> tuple[int, ...]:
    """Shape declared by an ``FZIN`` header, without a CRC/length pass.

    Runs the header cross-validation ladder only (dims positive, element
    count capped, anchor/block counts implied by the shape), so transports
    can pre-size decode buffers from untrusted bytes; decoding still runs
    the full framing + CRC checks.
    """
    shape, *_ = _unpack_header(bytes(stream[:_HEADER_BYTES]))
    return tuple(int(d) for d in shape)


def interp_preview(stream: bytes | bytearray | memoryview) -> np.ndarray:
    """Coarse anchor-grid preview of an ``FZIN`` stream (float32).

    Reconstructs only the exactly-stored anchors (one per ``2**anchor_log2``
    hypercube) and upsamples them nearest-neighbor to the declared shape —
    no residual decode, no bitunshuffle, no level passes.  This is the
    level-0 tile of a progressive ROI decode: anchors live directly after
    the header, so the preview touches a fraction of the stream's work
    while framing + CRC are still validated in full.

    Anchor positions (coordinates ≡ 0 mod the stride) are *exact* — they
    equal the final reconstruction there; everything else is the nearest
    anchor at block resolution.
    """
    buf = bytes(stream)
    shape, eb_abs, anchor_log2, _n_blocks, _n_nonzero, n_anchors = _check_framing(buf)
    reader = BoundedReader(buf, name="FZIN stream")
    reader.skip(_HEADER_BYTES, "header")
    anchors = reader.read_array(_ANCHOR_DTYPE, n_anchors, "anchor values")
    grid = _anchor_grid_shape(shape, anchor_log2)
    try:
        vals = anchors.reshape(grid).astype(np.float64) * (2.0 * eb_abs)
    except ValueError as exc:
        raise DecompressionError(f"inconsistent FZIN stream: {exc}") from exc
    s0 = 1 << anchor_log2
    ndim = len(shape)
    for axis, dim in enumerate(shape):
        vals = np.repeat(vals, s0, axis=axis)[_axis_sel(ndim, axis, slice(0, dim))]
    return vals.astype(np.float32)


def interp_decompress(
    stream: bytes | bytearray | memoryview,
    *,
    impl: str | None = None,
    scratch=None,
) -> np.ndarray:
    """Reconstruct a field from an ``FZIN`` stream (float32).

    Mirrors the core format's failure taxonomy: framing problems
    (truncation, bad magics, header inconsistencies, CRC mismatch) raise
    :class:`~repro.errors.FormatError`; streams that parse but decode
    inconsistently raise :class:`~repro.errors.DecompressionError`.
    """
    buf = bytes(stream)
    impl_pass = _resolve_impl(impl)
    shape, eb_abs, anchor_log2, n_blocks, n_nonzero, n_anchors = _check_framing(buf)
    flag_bytes = (n_blocks + 7) // 8
    reader = BoundedReader(buf, name="FZIN stream")
    reader.skip(_HEADER_BYTES, "header")
    anchors = reader.read_array(_ANCHOR_DTYPE, n_anchors, "anchor values")
    flags = reader.read_array(np.uint8, flag_bytes, "bit-flag array")
    literals = reader.read_array(np.uint32, n_nonzero * BLOCK_WORDS, "literal blocks")
    encoded = EncodedBlocks(
        bitflags=flags, literals=literals, n_blocks=n_blocks, n_nonzero=n_nonzero
    )
    n_codes = math.prod(shape)
    scratch = Scratch() if scratch is None else scratch
    with telemetry.span("stage.decode"):
        tiles = TileDecoder(encoded, n_codes, scratch)
        codes = scratch.take("fzin.codes", shape, np.uint16)
        for lo in range(0, n_codes, TILE_BATCH_CODES):
            hi = min(lo + TILE_BATCH_CODES, n_codes)
            codes.reshape(-1)[lo:hi] = tiles.codes(lo, hi)
    with telemetry.span("stage.interp.reconstruct"):
        eb2 = 2.0 * eb_abs
        rec = scratch.take("fzin.rec", shape, np.float64)
        s0 = 1 << anchor_log2
        asel = tuple(slice(None, None, s0) for _ in range(len(shape)))
        try:
            rec[asel] = anchors.reshape(
                _anchor_grid_shape(shape, anchor_log2)
            ).astype(np.float64) * eb2
            _run_levels(
                rec, None, codes, anchor_log2, eb2, False, impl_pass, scratch
            )
        except ValueError as exc:
            raise DecompressionError(f"inconsistent FZIN stream: {exc}") from exc
    return rec.astype(np.float32)
