"""Pooled, allocation-free FZ-GPU pipeline stages for the batch engine.

These are the *same algorithms* as :mod:`repro.core.quantize`,
:mod:`repro.core.bitshuffle` and :mod:`repro.core.encoder`, restructured so
every large temporary lives in a borrowed :class:`repro.utils.pool.Scratch`
arena and the bit transpose runs the O(log 32) masked-swap network instead
of the 32x bit-expansion mirror of the warp ballot loop.  After the first
call on a given shape, a steady-state compression performs **zero**
allocations for quantization/bitshuffle temporaries — only the stream
payload itself (flag bytes + literal blocks) is freshly materialized,
because it outlives the call.

The contract, enforced by ``tests/test_engine_differential.py`` across the
whole jobs x chunking x pool matrix: for every input, the pooled path
produces a stream **byte-identical** to the reference single-shot path, and
the pooled decompressor reconstructs an array **bit-identical** to the
reference decompressor.  Each function's docstring states why the
restructuring preserves exact equality.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.bitshuffle import TILE_WORDS
from repro.core.encoder import BLOCK_WORDS, EncodedBlocks, check_blocks
from repro.core.quantize import MAX_MAGNITUDE, SIGN_BIT, QuantizerStats
from repro.errors import DecompressionError
from repro.utils.bits import bit_transpose_32x32_fast, pack_bitflags
from repro.utils.chunking import block_view, chunk_shape_for
from repro.utils.pool import Scratch

__all__ = [
    "dual_quantize_pooled",
    "bitshuffle_pooled",
    "encode_zero_blocks_pooled",
    "decode_zero_blocks_pooled",
    "bitunshuffle_pooled",
    "dual_dequantize_pooled",
]


def _diff_inblock(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """``dst = np.diff(src, axis=axis, prepend=0)`` without the concat copy.

    Exact for int64: the first slice is copied through, the rest is a plain
    elementwise subtraction — the same arithmetic ``np.diff`` performs.
    """
    first = [slice(None)] * src.ndim
    first[axis] = slice(0, 1)
    hi = [slice(None)] * src.ndim
    hi[axis] = slice(1, None)
    lo = [slice(None)] * src.ndim
    lo[axis] = slice(None, -1)
    dst[tuple(first)] = src[tuple(first)]
    np.subtract(src[tuple(hi)], src[tuple(lo)], out=dst[tuple(hi)])


def dual_quantize_pooled(
    data: np.ndarray,
    eb_abs: float,
    chunk: tuple[int, ...],
    scratch: Scratch,
) -> tuple[np.ndarray, tuple[int, ...], QuantizerStats]:
    """Pooled :func:`repro.core.quantize.dual_quantize` (bit-identical).

    Equality argument, stage by stage against the reference:

    * pre-quantization — the reference computes
      ``rint(float64(data) / (2 eb)).astype(int64)``; here the float64
      upcast, division, ``rint`` and int64 cast run through the same C
      loops, just into pooled destinations (``copyto`` with unsafe casting
      *is* ``astype``'s cast).
    * Lorenzo — ``diff`` commutes with the chunk-major copy (both are
      elementwise/per-chunk), so differencing after
      ``block_view``+``copyto`` instead of before changes nothing; int64
      subtraction is exact.
    * sign-magnitude — ``|d|`` clamp + MSB-on-negatives computed with
      ``minimum``/``copyto``/``bitwise_or(where=neg)`` produces the exact
      values of ``np.where(d < 0, clamped | SIGN_BIT, clamped)``.

    The returned code array is scratch-backed: consume it (the next stage
    does) before the scratch is reused.
    """
    shape = data.shape
    ndim = data.ndim
    # pre-quantization in float64, rounded on the same grid as the reference
    with telemetry.span("stage.quantize.prequant"):
        f = scratch.take("pq.f64", shape, np.float64)
        np.copyto(f, data)
        np.divide(f, 2.0 * eb_abs, out=f)
        np.rint(f, out=f)
        padded_shape = tuple(-(-s // c) * c for s, c in zip(shape, chunk))
        qpad = scratch.take("pq.qpad", padded_shape, np.int64)
        if padded_shape != shape:
            qpad.fill(0)
        interior = tuple(slice(0, s) for s in shape)
        np.copyto(qpad[interior], f, casting="unsafe")
    # chunk-major gather, then per-chunk Lorenzo diffs along in-block axes
    with telemetry.span("stage.quantize.lorenzo"):
        blocked_shape = tuple(p // c for p, c in zip(padded_shape, chunk)) + tuple(chunk)
        src = scratch.take("lz.a", blocked_shape, np.int64)
        dst = scratch.take("lz.b", blocked_shape, np.int64)
        np.copyto(src, block_view(qpad, chunk))
        for k in range(ndim):
            _diff_inblock(src, dst, ndim + k)
            src, dst = dst, src
        delta = src
    # sign-magnitude encode with saturation bookkeeping
    with telemetry.span("stage.quantize.signmag"):
        mag = dst  # the other ping-pong buffer is free again
        np.absolute(delta, out=mag)
        max_abs = int(mag.max(initial=0))
        mask = scratch.take("sm.mask", blocked_shape, bool)
        np.greater(mag, MAX_MAGNITUDE, out=mask)
        n_sat = int(np.count_nonzero(mask))
        np.minimum(mag, MAX_MAGNITUDE, out=mag)
        codes = scratch.take("sm.codes", blocked_shape, np.uint16)
        np.copyto(codes, mag, casting="unsafe")
        np.less(delta, 0, out=mask)
        np.bitwise_or(codes, SIGN_BIT, out=codes, where=mask)
    return codes.reshape(-1), padded_shape, QuantizerStats(n_sat, 0, max_abs)


def bitshuffle_pooled(codes: np.ndarray, scratch: Scratch) -> np.ndarray:
    """Pooled :func:`repro.core.bitshuffle.bitshuffle` (bit-identical).

    Padding lands in a pooled buffer instead of ``np.concatenate``; the bit
    transpose is the exact-equal masked-swap network; the word transpose is
    the same ``swapaxes`` + contiguous copy, into a pooled destination.
    """
    n = codes.size
    padded_n = n + (-n) % (2 * TILE_WORDS)
    if padded_n != n or not codes.flags.c_contiguous:
        cp = scratch.take("bs.codes", (padded_n,), np.uint16)
        cp[:n] = codes
        cp[n:] = 0
        codes = cp
    tiles = codes.view(np.uint32).reshape(-1, 32, 32)
    with telemetry.span("stage.bitshuffle.transpose"):
        voted = bit_transpose_32x32_fast(
            tiles, out=scratch.take("bs.voted", tiles.shape, np.uint32), scratch=scratch
        )
        out = scratch.take("bs.out", tiles.shape, np.uint32)
        np.copyto(out, voted.swapaxes(-1, -2))
    return out.reshape(-1)


def encode_zero_blocks_pooled(words: np.ndarray, scratch: Scratch) -> EncodedBlocks:
    """Pooled :func:`repro.core.encoder.encode_zero_blocks` (bit-identical).

    ``(blocks != 0).any(axis=1)`` is computed as the OR of the four words
    followed by ``!= 0`` — the same predicate without the intermediate
    boolean matrix.  The flag bytes and literal gather stay freshly
    allocated: they *are* the stream payload and outlive the scratch.
    """
    blocks = words.reshape(-1, BLOCK_WORDS)
    n_blocks = blocks.shape[0]
    acc = scratch.take("enc.acc", (n_blocks,), np.uint32)
    np.bitwise_or(blocks[:, 0], blocks[:, 1], out=acc)
    for w in range(2, BLOCK_WORDS):
        np.bitwise_or(acc, blocks[:, w], out=acc)
    byteflags = scratch.take("enc.flags", (n_blocks,), bool)
    np.not_equal(acc, 0, out=byteflags)
    n_nonzero = int(np.count_nonzero(byteflags))
    literals = blocks[byteflags].reshape(-1)
    return EncodedBlocks(
        bitflags=pack_bitflags(byteflags),
        literals=literals,
        n_blocks=n_blocks,
        n_nonzero=n_nonzero,
    )


def decode_zero_blocks_pooled(encoded: EncodedBlocks, scratch: Scratch) -> np.ndarray:
    """Pooled :func:`repro.core.encoder.decode_zero_blocks` (bit-identical).

    Same validation ladder (:func:`repro.core.encoder.check_blocks`,
    pinned by ``tests/test_hotpath.py``) and scatter; the zero-filled
    destination is pooled instead of ``np.zeros``-allocated per call.
    """
    byteflags, literals = check_blocks(encoded)
    out = scratch.zeros("dec.words", (encoded.n_blocks, BLOCK_WORDS), np.uint32)
    out[byteflags] = literals.reshape(-1, BLOCK_WORDS)
    return out.reshape(-1)


def bitunshuffle_pooled(
    words: np.ndarray, n_codes: int, scratch: Scratch
) -> np.ndarray:
    """Pooled :func:`repro.core.bitshuffle.bitunshuffle` (bit-identical)."""
    if words.size % TILE_WORDS:
        raise DecompressionError("word count must be a multiple of TILE_WORDS")
    n_codes = int(n_codes)
    if not 0 <= n_codes <= 2 * words.size:
        # header-supplied count: negative values would silently mis-slice
        raise DecompressionError(
            f"stream holds {2 * words.size} codes, {n_codes} requested"
        )
    tiles = words.reshape(-1, 32, 32)
    unswapped = scratch.take("bus.unswap", tiles.shape, np.uint32)
    np.copyto(unswapped, tiles.swapaxes(-1, -2))
    restored = bit_transpose_32x32_fast(
        unswapped, out=scratch.take("bus.out", tiles.shape, np.uint32), scratch=scratch
    )
    codes = restored.reshape(-1).view(np.uint16)
    return codes[:n_codes]


def dual_dequantize_pooled(
    codes: np.ndarray,
    padded_shape: tuple[int, ...],
    orig_shape: tuple[int, ...],
    eb: float,
    chunk: tuple[int, ...] | None,
    scratch: Scratch,
) -> np.ndarray:
    """Pooled :func:`repro.core.quantize.dual_dequantize` (bit-identical).

    Sign-magnitude decode and the per-chunk cumulative sums run into pooled
    int64 buffers (``np.cumsum`` supports ``out=``; int64 addition is
    exact); the final float32 reconstruction is freshly allocated because it
    is returned to the caller and must survive scratch reuse.
    """
    n = int(np.prod(padded_shape))
    ndim = len(padded_shape)
    chunk_resolved = chunk_shape_for(ndim, chunk)
    if any(p % c for p, c in zip(padded_shape, chunk_resolved)):
        raise DecompressionError(
            f"padded shape {tuple(padded_shape)} is not aligned to chunk {chunk_resolved}"
        )
    if codes.size < n:
        raise DecompressionError(
            f"code stream holds {codes.size} codes, padded grid needs {n}"
        )
    codes = codes[:n]
    # sign-magnitude decode into int64
    mag16 = scratch.take("dq.mag16", (n,), np.uint16)
    np.bitwise_and(codes, np.uint16(MAX_MAGNITUDE), out=mag16)
    delta = scratch.take("dq.a", (n,), np.int64)
    np.copyto(delta, mag16)
    neg = scratch.take("dq.neg", (n,), bool)
    np.greater_equal(codes, SIGN_BIT, out=neg)
    np.negative(delta, out=delta, where=neg)
    # per-chunk Lorenzo reconstruction (cumsums along in-block axes)
    blocked_shape = tuple(
        p // c for p, c in zip(padded_shape, chunk_resolved)
    ) + tuple(chunk_resolved)
    src = delta.reshape(blocked_shape)
    dst = scratch.take("dq.b", blocked_shape, np.int64)
    for k in range(ndim):
        np.cumsum(src, axis=ndim + k, out=dst)
        src, dst = dst, src  # delta's buffer becomes the next destination
    q_blocked = src
    padded = scratch.take("dq.padded", tuple(padded_shape), np.int64)
    np.copyto(block_view(padded, chunk_resolved), q_blocked)
    crop = tuple(slice(0, s) for s in orig_shape)
    f = scratch.take("dq.f64", tuple(orig_shape), np.float64)
    np.copyto(f, padded[crop])
    np.multiply(f, 2.0 * eb, out=f)
    return f.astype(np.float32)
