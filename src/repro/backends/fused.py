"""The ``fused`` backend: single-pass quantize + bitshuffle + zero-block encode.

The paper's biggest ablation win (Fig. 10) comes from fusing bitshuffle
into the dual-quantization kernel so the quantization-code array never
round-trips through global memory (§3.3).  This backend reproduces that
bandwidth argument on the CPU: instead of three full-array passes
(``stage.quantize`` → ``stage.bitshuffle`` → ``stage.encode``, each
streaming the whole field through memory), it processes the field in
cache-sized *slabs* and pushes each slab all the way to encoded output
while it is still resident.  A slab is a run of whole Lorenzo chunk-rows
or, when a single chunk-row holds more than twice
:data:`TARGET_SLAB_CODES` codes (256x256 planes of 8x8x8 chunks hold
512K), one chunk-row cut along axis 1 into blocks of whole chunk-columns:
either way its chunk-major codes are one contiguous run of the stream, so
slabs need no reordering.
Per slab:

1. pre-quantize the slab once, straight into integers: divide and
   ``rint`` in float64 (as ``reference`` does), take one max/min
   reduction, then cast into an int32 slab when ``max |q| <= 2**27``
   (each Lorenzo difference level, at most three, then stays within
   ``2**30``), or into an int64 slab below ``2**51``; the per-chunk Lorenzo
   residuals, the saturation count and the clamp all run at that width,
   so they equal the reference's int64 pipeline bit for bit (beyond
   ``2**51`` a guard falls back to the ``reference`` kernels).  NaN and
   ±inf fail the same reduction's bounds, so the guard is also the
   encoder's finiteness check: a failing slab counts the non-finite
   values of the whole field and raises
   :class:`~repro.errors.UnsupportedDataError`, and
   :meth:`~repro.core.pipeline.FZGPU.compress` skips its separate
   ``isfinite`` pass for this backend;
2. cast the residuals to int16 and sign-magnitude encode them — a
   two's-complement int16 of a magnitude ≤ 0x7FFF has bit 15 set exactly
   when negative, i.e. the int16 bit pattern's top bit *is* the format's
   sign bit, collapsing the clamp/compare/mask sequence to
   ``|x| | (x & 0x8000)``
   (:func:`~repro.core.quantize.encode_sign_magnitude_int16`); a slab
   whose residuals saturate (checked per slab) is first counted and
   clamped to ±0x7FFF.  The codes are then gathered into chunk-major
   order a whole ``chunk[-1]``-code run at a time, straight into the
   tile batch behind the codes carried over from the last one;
3. hand every full batch of :data:`TILE_BATCH_CODES` codes to the tile
   codec in one call.  The tile codec has its own, larger size: its ~30
   NumPy calls cost as much for one 2048-code tile as for 128, and its
   planes take 2 bytes a code, so a 256K-code batch stays in L2 where a
   Lorenzo slab that large would not (a 1M-code batch spills L2 and is
   slower again).  Only the field's final partial tile is zero-padded;
4. bit-transpose each batch of tiles in *bit-plane-major* layout — all
   five masked-swap passes then run over long contiguous runs instead of
   the tile-major layout's stride-``j`` hops — and derive zero-block flags
   and literal blocks directly from that layout, so the word-transposed
   "shuffled" array of the staged pipeline is never materialized either.
   Each 16-byte block is OR-ed as two ``uint64`` words for its flag, and
   a ``(tile, plane, block)`` view of the planes as 16-byte ``void``
   items gathers the literals in stream order with the flag mask itself:
   no index arrays, no fancy indexing.

Output is **byte-identical** to the ``reference`` backend for every input
(enforced by ``tests/test_backends_conformance.py``); the speedup over
``reference`` is recorded in ``benchmarks/BENCH_fused.json`` and gated in
CI.

Decoding runs the same argument in reverse: instead of four staged
full-array passes (zero-block scatter → bit un-transpose → sign-magnitude
decode → inverse Lorenzo/dequant), :func:`_fused_decode_codes` walks the
field in slabs of whole chunk-rows (cutting wide chunk-rows into the
encoder's chunk-column blocks measured no decode gain) and, per batch of
at least :data:`TILE_BATCH_CODES` codes, scatters only the needed tiles'
literal blocks straight into the bit-plane-major layout (mask assignment
into the same 16-byte block view the encoder gathers from) and applies
the masked-swap network once more (the transpose is an involution).  Per
slab it then un-gathers chunk-major codes into row-major order a whole
``chunk[-1]``-code run at a time, as the encoder gathers them.  The
sign-magnitude decode is branch-free
(:func:`~repro.core.quantize.decode_sign_magnitude_into`): with
``s = int16(code) >> 15`` the value is ``((code & 0x7FFF) ^ s) - s``,
computed in place over the slab's int16 codes with same-type loops and
widened once into an int32 slab that is written out as float32 rows — no
masked ``where=`` ufunc, whose per-element branch does not vectorize, and
no mixed-dtype ufunc, which NumPy runs through a buffered cast
(``docs/PERFORMANCE.md`` has the measured pairs).  Decode
magnitudes are masked to 15 bits, so every per-chunk prefix sum —
intermediates included — is bounded by ``0x7FFF * chunk_elems``, which
fits int32 for every default chunk; for custom chunks where it might
not, a per-slab max-reduction checks the slab, and a slab that might
overflow takes the same ``_NeedsExactPath`` fallback to the
``reference`` decoders, which do int64 arithmetic.  The inverse Lorenzo
itself runs in place as a ladder of vectorized adds along each axis
(``cumsum``'s element-by-element carry is far slower on short accumulate
axes; long-chunk 1-D keeps ``cumsum``), and the final dequantize
multiplies the cropped int32 view by ``2eb`` straight into the caller's
output through NumPy's float64 ufunc loop — bit-identical to the staged
multiply-then-cast.  Decoded arrays are **bit-identical** to
``reference`` everywhere; the decode speedup is recorded in the same
``benchmarks/BENCH_fused.json`` and gated in CI alongside the encode gate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro import telemetry
from repro.backends.base import EncodeOutcome, KernelBackend
from repro.backends.reference import ReferenceBackend, padded_stage_sizes
from repro.core.bitshuffle import TILE_WORDS
from repro.core.encoder import BLOCK_WORDS, EncodedBlocks, check_blocks
from repro.core.quantize import (
    MAX_MAGNITUDE,
    QuantizerStats,
    decode_sign_magnitude_into,
    encode_sign_magnitude_int16,
)
from repro.errors import DecompressionError
from repro.utils.bits import (
    _SWAP_DISTANCES,
    _SWAP_MASKS,
    pack_bitflags,
)
from repro.utils.chunking import chunk_shape_for
from repro.utils.pool import Scratch
from repro.utils.validation import check_finite

__all__ = ["FusedBackend", "TILE_CODES", "TARGET_SLAB_CODES", "TILE_BATCH_CODES"]

#: Quantization codes per bitshuffle tile (2048 = 4 KiB of uint16).
TILE_CODES = 2 * TILE_WORDS

#: Aim for ~64K codes per encoder slab (chunk-rows, or chunk-row x
#: chunk-column blocks once a chunk-row exceeds twice this): one float64
#: quotient buffer, two int32 residual buffers and one uint16 code
#: buffer, 1.125 MiB, big enough to amortize ufunc dispatch and small
#: enough to stay in a 2 MiB per-core L2 through all fused steps.  The
#: decoder's slabs are whole chunk-rows of this many codes or more.
TARGET_SLAB_CODES = 1 << 16

#: Codes per tile-codec call: 128 tiles, 512 KiB of bit planes, still
#: inside a 2 MiB per-core L2.  The tile codec's ~30 NumPy calls cost the
#: same for 1 tile as for 128, so it runs on batches of several slabs
#: (a 512-tile batch spills L2 and is slower again).
TILE_BATCH_CODES = 1 << 18

#: A slab with ``max |q| <= 2**27`` runs in int32: each of the up-to-three
#: Lorenzo difference levels at most doubles the magnitude, so every
#: residual, intermediates included, stays within ``2**30``.
_Q32_LIMIT = float(2**27)
#: Slabs below this bound run the same loop on int64 buffers; beyond it
#: (``eb`` near 1e-13 for unit-scale data) the whole field goes to the
#: ``reference`` kernels.
_EXACT_LIMIT = float(2**51)
#: Decode-side bound: per-chunk prefix sums must fit int32 exactly.
_I32_LIMIT = 2**31


class _NeedsExactPath(Exception):
    """Raised when a slab's ``max |q|`` is beyond the fused paths' bounds."""


#: The int64 staged kernels both fallbacks run on.
_EXACT = ReferenceBackend()


def _transpose_bitplanes(B: np.ndarray, scratch: Scratch) -> None:
    """In-place 32x32 bit transpose of ``B`` in bit-plane-major layout.

    ``B[c, t*32 + i]`` holds in-row word ``c`` of row ``i`` of tile ``t``.
    The masked-swap network pairs rows ``c`` and ``c ^ j``, so every pass
    operates on contiguous ``(j * M)``-element slices — unlike the
    tile-major layout, where the ``j in (1, 2, 4)`` passes degrade to
    stride-``j`` inner loops.  A permutation of the same bits as
    :func:`repro.utils.bits.bit_transpose_32x32` (the warp-ballot oracle),
    hence bit-exact.
    """
    M = B.shape[1]
    for j, mask in zip(_SWAP_DISTANCES, _SWAP_MASKS):
        pairs = B.reshape(32 // (2 * j), 2, j, M)
        lo = pairs[:, 0]
        hi = pairs[:, 1]
        t = scratch.take("fz.swap", lo.shape, np.uint32)
        np.right_shift(lo, j, out=t)
        np.bitwise_xor(t, hi, out=t)
        np.bitwise_and(t, mask, out=t)
        np.bitwise_xor(hi, t, out=hi)
        np.left_shift(t, j, out=t)
        np.bitwise_xor(lo, t, out=lo)


#: One zero-block literal (``BLOCK_WORDS`` uint32 words) as a single item.
_BLOCK = np.dtype((np.void, 4 * BLOCK_WORDS))


def _block_view(B: np.ndarray, n_tiles: int) -> np.ndarray:
    """``B``'s 16-byte blocks as a ``(tile, plane, block)`` stream-order view.

    Batch flag ``t*256 + c*8 + m`` is block ``B[c, t*32 + 4m : t*32 + 4m +
    4]``, item ``[t, c, m]`` of this view, so a flag mask of shape
    ``(n_tiles, 32, 8)`` gathers or scatters literals in stream order.
    """
    return B.view(_BLOCK).reshape(32, n_tiles, 8).transpose(1, 0, 2)


def encode_tiles(
    codes: np.ndarray, scratch: Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """Bitshuffle + zero-block encode a whole number of 2048-code tiles.

    Returns the packed flag bytes and the literal words, equal to
    ``encode_zero_blocks(bitshuffle(codes))``: the tiles are bit-transposed
    in bit-plane-major layout and flags and literals are read straight from
    it, so the word-transposed "shuffled" array is never materialized.
    """
    flat = codes.view(np.uint32).reshape(-1, 32)
    n_tiles = flat.shape[0] // 32
    M = n_tiles * 32
    B = scratch.take("fz.planes", (32, M), np.uint32)
    np.copyto(B, flat.T)
    _transpose_bitplanes(B, scratch)
    # shuffled block (t, c, m) is B[c, t*32 + 4m : t*32 + 4m + 4]: OR it as
    # two uint64 words, then read the flags in stream order (t, c, m).  The
    # ORs fill the transpose's swap arena, free now and exactly this size
    words = B.view(np.uint64).reshape(32, n_tiles, 8, BLOCK_WORDS // 2)
    acc = scratch.take("fz.swap", (32, n_tiles, 8), np.uint64)
    np.bitwise_or(words[..., 0], words[..., 1], out=acc)
    bf = scratch.take("fz.bf", (n_tiles, 32, 8), bool)
    np.not_equal(acc.transpose(1, 0, 2), 0, out=bf)
    flags = pack_bitflags(bf.reshape(-1))
    # gather the nonzero blocks, in stream order, as 16-byte items
    return flags, _block_view(B, n_tiles)[bf].view(np.uint32)


def join_tiles(parts: list[tuple[np.ndarray, np.ndarray]]) -> EncodedBlocks:
    """Concatenate :func:`encode_tiles` outputs, in stream order."""
    bitflags = np.concatenate([f for f, _ in parts] or [np.zeros(0, np.uint8)])
    literals = np.concatenate([w for _, w in parts] or [np.zeros(0, np.uint32)])
    return EncodedBlocks(
        bitflags=bitflags,
        literals=literals,
        n_blocks=bitflags.size * 8,
        n_nonzero=literals.size // BLOCK_WORDS,
    )


class TileDecoder:
    """Random access to the codes of a zero-block-encoded, bitshuffled stream.

    The constructor runs the staged decoders' validation ladder
    (:func:`~repro.core.encoder.check_blocks`, then ``bitunshuffle``'s
    checks: same conditions, same messages, same order), so crafted streams
    fail identically whichever path decodes them.  :meth:`codes` then
    decodes any code range from its covering tiles alone: the tiles' flag
    mask scatters their literals, kept as 16-byte ``void`` items, into the
    stream-order block view of the planes (a range of literal-free tiles
    skips the scatter).  It decodes at least :data:`TILE_BATCH_CODES`
    codes at a time and serves later ranges inside that batch from it, so
    a decoder owns its ``fzd.*`` scratch keys until its last call.
    """

    def __init__(self, encoded: EncodedBlocks, n_codes: int, scratch: Scratch):
        byteflags, literals = check_blocks(encoded)
        n_words = encoded.n_blocks * BLOCK_WORDS
        if n_words % TILE_WORDS:
            raise DecompressionError("word count must be a multiple of TILE_WORDS")
        if not 0 <= n_codes <= 2 * n_words:
            raise DecompressionError(
                f"stream holds {2 * n_words} codes, {n_codes} requested"
            )
        self._scratch = scratch
        self._byteflags = byteflags
        self._literals = literals.view(_BLOCK)
        # literal-block start offset of every tile: exclusive cumsum of
        # per-tile flag popcounts, so any tile range scatters without a
        # global pass.  A tile holds 256 flags, so its popcount sums the
        # flag bytes into a uint16 accumulator (an int64 sum of the bool
        # flags is a buffered mixed-dtype reduction, 3x as long)
        n_tiles = encoded.n_blocks // 256
        self._lit_tile_start = np.zeros(n_tiles + 1, dtype=np.int64)
        counts = byteflags.view(np.uint8).reshape(n_tiles, 256)
        np.cumsum(
            counts.sum(axis=1, dtype=np.uint16),
            dtype=np.int64,
            out=self._lit_tile_start[1:],
        )
        # the decoded batch: tiles [t0, t1) as chunk-major codes
        self._batch = (0, -1, None)

    def codes(self, lo: int, hi: int) -> np.ndarray:
        """Codes ``[lo, hi)`` of the stream, as a view into the scratch.

        A range inside the last decoded batch is served from it; any other
        range decodes a new batch from its own first tile.  Writing to the
        view spoils those codes for a later range that covers them again.
        """
        t_lo = lo // TILE_CODES
        t_hi = -(-hi // TILE_CODES)
        t0, t1, cm32 = self._batch
        if not t0 <= t_lo <= t_hi <= t1:
            # decode a new batch of whole tiles from this range's first one
            t0 = t_lo
            t1 = max(t_hi, min(t_lo + TILE_BATCH_CODES // TILE_CODES,
                               self._lit_tile_start.size - 1))
            n_tiles = t1 - t0
            M = n_tiles * 32
            B = self._scratch.take("fzd.planes", (32, M), np.uint32)
            B.fill(0)
            # zero-block scatter straight into the bit-plane-major layout,
            # by the tiles' flag mask (a run of literal-free tiles skips it)
            l_lo, l_hi = self._lit_tile_start[t0], self._lit_tile_start[t1]
            if l_hi > l_lo:
                mask = self._byteflags[t0 * 256 : t1 * 256]
                _block_view(B, n_tiles)[mask.reshape(n_tiles, 32, 8)] = (
                    self._literals[l_lo:l_hi]
                )
            # the masked-swap network is an involution: one more pass
            # undoes the encoder's transpose
            _transpose_bitplanes(B, self._scratch)
            cm32 = self._scratch.take("fzd.cm32", (M, 32), np.uint32)
            np.copyto(cm32, B.T)
            self._batch = (t0, t1, cm32)
        base = t0 * TILE_CODES
        return cm32.reshape(-1).view(np.uint16)[lo - base : hi - base]


def _encode_slab_shape(
    padded: tuple[int, ...], chunk: tuple[int, ...]
) -> tuple[int, ...]:
    """Extent of one encoder slab on the padded grid.

    A slab is a chunk-aligned box whose chunk-major codes are one
    contiguous run of the stream: whole chunk-rows, or, when one chunk-row
    holds more than twice :data:`TARGET_SLAB_CODES` codes, one chunk-row
    cut along axis 1 into blocks of whole chunk-columns of about the
    target each (the last block along each axis may be clipped shorter by
    the grid).  Every block pays a fixed dispatch cost of ~80 NumPy calls,
    so a chunk-row of up to twice the target encodes faster whole (128x128
    and 128x96 planes of 8x8x8 chunks: 5-7% faster than as two blocks),
    while a 512K-code chunk-row of 256x256 planes encodes ~30% faster as
    64K-code blocks.
    """
    c0 = chunk[0]
    row_codes = c0 * math.prod(padded[1:])
    if len(padded) == 1 or row_codes <= 2 * TARGET_SLAB_CODES:
        rows = max(1, TARGET_SLAB_CODES // row_codes) * c0
        return (min(rows, padded[0]),) + padded[1:]
    col_codes = row_codes // (padded[1] // chunk[1])
    cols = max(1, TARGET_SLAB_CODES // col_codes) * chunk[1]
    return (c0, min(cols, padded[1])) + padded[2:]


def _fused_encode_codes(
    data: np.ndarray,
    eb_abs: float,
    chunk: tuple[int, ...],
    scratch: Scratch,
) -> tuple[EncodedBlocks, tuple[int, ...], QuantizerStats]:
    """The fused slab loop.  See the module docstring for the algorithm."""
    nd = data.ndim
    shape = data.shape
    padded = tuple(-(-s // c) * c for s, c in zip(shape, chunk))
    slab = _encode_slab_shape(padded, chunk)
    slab_n = math.prod(slab)
    inv = np.float64(2.0 * eb_abs)

    # every buffer is sized for a full slab; a clipped slab takes a
    # contiguous prefix, so a ragged last block allocates nothing.  Slabs
    # gather their chunk-major codes straight into the tile batch, behind
    # the fewer than TILE_BATCH_CODES codes carried over from the last
    # full batch
    fbuf = scratch.take("fz.f64", (slab_n,), np.float64)
    mbuf = scratch.take("fz.m16", (slab_n,), np.uint16)
    cap = min(TILE_BATCH_CODES + slab_n, math.prod(padded))
    batch = scratch.take("fz.batch", (cap + (-cap) % TILE_CODES,), np.uint16)
    n_pend = 0
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    n_sat = 0
    max_abs = 0

    # chunk-major gather: (g0, c0, g1, c1[, g2, c2]) ->
    #                     (g0, g1[, g2], c0, c1[, c2])
    perm = (
        (0,)
        + tuple(range(2, 2 * nd, 2))
        + (1,)
        + tuple(range(3, 2 * nd + 1, 2))
    )
    # one run of chunk[-1] uint16 codes, the gather's unit of copy
    run = np.dtype((np.void, 2 * chunk[-1]))
    # slabs in stream order: row-major over slab origins, so the blocks of
    # one chunk-row follow each other along axis 1
    for origin in itertools.product(
        *(range(0, p, s) for p, s in zip(padded, slab))
    ):
        dims = tuple(min(s, p - o) for s, p, o in zip(slab, padded, origin))
        # origins are chunk multiples below the padded extent, hence below
        # the field's: every slab holds at least one real element per axis
        real = tuple(min(d, s - o) for d, s, o in zip(dims, shape, origin))
        n = math.prod(dims)
        f = fbuf[:n].reshape(dims)
        # zero the chunk padding: the part of the slab past the field's
        # extent along axis k, within the real extent of axes < k
        for k in range(nd):
            if real[k] < dims[k]:
                pad = tuple(slice(0, r) for r in real[:k])
                f[pad + (slice(real[k], None),)] = 0.0
        np.divide(
            data[tuple(slice(o, o + r) for o, r in zip(origin, real))],
            inv,
            out=f[tuple(slice(0, r) for r in real)],
        )
        np.rint(f, out=f)
        # one reduction picks the narrowest exact width; NaN fails every
        # comparison and inf every bound, so a non-finite value always
        # reaches the last branch
        hi, lo = float(f.max()), float(f.min())
        if hi <= _Q32_LIMIT and -lo <= _Q32_LIMIT:
            width = np.int32
        elif hi < _EXACT_LIMIT and -lo < _EXACT_LIMIT:
            width = np.int64
        else:
            check_finite(data)
            raise _NeedsExactPath
        # both widths share the two arenas: a wide slab grows them once.
        # rint in place, then a plain cast, is ~1.5x faster than rint
        # with an integer out= (NumPy buffers that cast)
        src = scratch.take("fz.qa", (slab_n,), width)[:n].reshape(dims)
        dst = scratch.take("fz.qb", (slab_n,), width)[:n].reshape(dims)
        np.copyto(src, f, casting="unsafe")
        # per-chunk Lorenzo residuals: prepend-0 diff along every axis,
        # restarting at chunk boundaries (the strided writeback; slab
        # origins are chunk-aligned); diff axes commute, ping-ponging
        # between the two integer buffers.  Each diff runs over the flat
        # slab at axis k's stride, one long contiguous loop (along the
        # last axis ~2.5x faster than the n-D slices): it crosses a row
        # only where axis k's index is 0, a chunk start the writeback
        # overwrites
        stride = 1
        for k in range(nd - 1, -1, -1):
            s1, d1 = src.reshape(-1), dst.reshape(-1)
            np.subtract(s1[stride:], s1[:-stride], out=d1[stride:])
            starts = [slice(None)] * nd
            starts[k] = slice(None, None, chunk[k])
            dst[tuple(starts)] = src[tuple(starts)]
            src, dst = dst, src
            stride *= dims[k]
        delta = src
        slab_max = max(int(delta.max()), -int(delta.min()))
        max_abs = max(max_abs, slab_max)
        if slab_max > MAX_MAGNITUDE:
            # rare saturating slab: count, then clamp exactly as reference
            # clamps the magnitude
            np.absolute(delta, out=dst)
            mask = scratch.take("fz.mask", dims, bool)
            np.greater(dst, MAX_MAGNITUDE, out=mask)
            n_sat += int(np.count_nonzero(mask))
            np.clip(delta, -MAX_MAGNITUDE, MAX_MAGNITUDE, out=delta)
        # |delta| <= 0x7FFF now fits int16 exactly: cast and sign-magnitude
        # encode it in row-major order, then gather it into chunk-major
        # order moving each run of chunk[-1] codes as one void item (the
        # last axis lives inside the item, so perm drops it).  That takes
        # about half the time of an element-wise transposing cast, whose
        # inner loop is one run long
        rm = mbuf[:n]
        cm = batch[n_pend : n_pend + n]
        np.copyto(rm.view(np.int16).reshape(dims), delta, casting="unsafe")
        encode_sign_magnitude_int16(rm.view(np.int16), rm, cm)
        view_shape: tuple[int, ...] = ()
        for d, c in zip(dims, chunk):
            view_shape += (d // c, c)
        runs = rm.reshape(view_shape).view(run)[..., 0].transpose(perm[:-1])
        np.copyto(cm.view(run).reshape(runs.shape), runs)
        n_pend += n
        done = n_pend - n_pend % TILE_BATCH_CODES
        for lo in range(0, done, TILE_BATCH_CODES):
            parts.append(encode_tiles(batch[lo : lo + TILE_BATCH_CODES], scratch))
        if done:
            n_pend -= done
            batch[:n_pend] = batch[done : done + n_pend]

    if n_pend:
        # zero-pad the final partial tile, as reference does
        tail = n_pend + (-n_pend) % TILE_CODES
        batch[n_pend:tail] = 0
        parts.append(encode_tiles(batch[:tail], scratch))
    return join_tiles(parts), padded, QuantizerStats(n_sat, 0, max_abs)


def _fused_decode_codes(
    encoded: EncodedBlocks,
    padded_shape: tuple[int, ...],
    orig_shape: tuple[int, ...],
    eb_abs: float,
    chunk: tuple[int, ...] | None,
    scratch: Scratch,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The fused slab decode loop.  See the module docstring for the idea.

    Validation mirrors the staged decoders' ladder (same conditions, same
    messages, same order), so crafted streams fail identically whichever
    backend decodes them.  Each slab is dequantized straight into its rows
    of ``out`` (a fresh array when ``None``).
    """
    # -- validation ladder (decode_zero_blocks / bitunshuffle / dequantize) --
    padded = tuple(int(p) for p in padded_shape)
    nd = len(padded)
    tiles = TileDecoder(encoded, math.prod(padded), scratch)
    chunk = chunk_shape_for(nd, chunk)
    if any(p % c for p, c in zip(padded, chunk)):
        raise DecompressionError(
            f"padded shape {padded} is not aligned to chunk {chunk}"
        )
    chunk_elems = math.prod(chunk)
    may_overflow = MAX_MAGNITUDE * chunk_elems >= _I32_LIMIT

    orig_shape = tuple(orig_shape)
    inner = orig_shape[1:]
    inner_p = padded[1:]
    inner_n = math.prod(inner_p)
    c0 = chunk[0]
    slab_rows = max(1, TARGET_SLAB_CODES // (c0 * inner_n)) * c0
    slab_rows = min(slab_rows, padded[0])
    inv = np.float64(2.0 * eb_abs)

    # chunk-major -> row-major scatter: the encoder's gather permutation,
    # applied through a transposed destination view whose items are runs of
    # chunk[-1] codes (the last axis lives inside the item, so perm drops it)
    grid = tuple(p // c for p, c in zip(inner_p, chunk[1:]))
    perm = (
        (0,)
        + tuple(range(2, 2 * nd, 2))
        + (1,)
        + tuple(range(3, 2 * nd - 1, 2))
    )
    run = np.dtype((np.void, 2 * chunk[-1]))

    if out is None:
        out = np.empty(orig_shape, dtype=np.float32)
    for a in range(0, padded[0], slab_rows):
        b = min(a + slab_rows, padded[0])
        rows = b - a
        real = min(orig_shape[0], b) - a
        if real <= 0:
            continue  # rows of pure chunk padding never reach the output
        # the slab's chunk-major codes span these positions of the stream
        # (slab boundaries are chunk-row boundaries, so spans are exact)
        sl = tiles.codes(a * inner_n, b * inner_n)
        # un-gather chunk-major -> row-major (1-D is already row-major)
        g_rows = rows // c0
        view_shape = (g_rows, c0)
        for n_blk, c_blk in zip(grid, chunk[1:]):
            view_shape += (n_blk, c_blk)
        if nd == 1:
            cr = sl
        else:
            cr = scratch.take("fzd.c16", (rows * inner_n,), np.uint16)
            runs = cr.reshape(view_shape).view(run)[..., 0].transpose(perm)
            np.copyto(runs, sl.view(run).reshape(runs.shape))
        # branch-free sign-magnitude decode into int32: magnitudes are
        # masked to 15 bits, and every prefix sum — intermediate cumsum
        # passes included — is a sub-box sum of one chunk's deltas, so
        # max|mag| * prod(chunk) bounds them all.  Default chunks can never
        # trip it (0x7FFF * 512 << 2**31); for oversized custom chunks a
        # max-reduction checks the slab, and a slab that might overflow
        # takes the int64 reference path instead.  The decode runs in place
        # over cr, this decoder's own scratch in every dimension
        f = scratch.take("fzd.i32a", view_shape, np.int32)
        sign = scratch.take("fzd.s16", view_shape, np.int16)
        decode_sign_magnitude_into(cr.reshape(view_shape), f, sign)
        if may_overflow and (
            max(int(f.max()), -int(f.min())) * chunk_elems >= _I32_LIMIT
        ):
            raise _NeedsExactPath
        # in-place inverse Lorenzo: per-chunk prefix sums along every chunk
        # axis.  np.cumsum runs a scalar carry loop, so when the slices
        # perpendicular to the axis are wide, an explicit add ladder over
        # the (short) chunk edge vectorizes much better; the long-thin case
        # (1-D's 512-wide chunk edge) keeps the cumsum kernel
        n_slab = f.size
        for k in range(nd):
            ax = 2 * k + 1
            length = view_shape[ax]
            if n_slab >= length * 1024:
                mov = np.moveaxis(f, ax, 0)
                for i in range(1, length):
                    np.add(mov[i - 1], mov[i], out=mov[i])
            else:
                np.cumsum(f, axis=ax, out=f)
        src = f
        # dequantize straight into the output: int32 * float64 runs the
        # float64 ufunc loop and casts once to float32 — bit-identical to
        # the staged decoders' multiply-then-astype
        crop = (slice(0, real),) + tuple(slice(0, s) for s in inner)
        np.multiply(
            src.reshape((rows,) + inner_p)[crop],
            inv,
            out=out[a : a + real],
            casting="unsafe",
        )
    return out


class FusedBackend(KernelBackend):
    """Cache-blocked single-pass encode and decode."""

    name = "fused"
    rejects_non_finite = True

    def encode(
        self,
        data: np.ndarray,
        eb_abs: float,
        chunk: tuple[int, ...],
        scratch: Scratch | None = None,
    ) -> EncodeOutcome:
        scratch = self._own_scratch(scratch)
        try:
            with telemetry.span("stage.fused_encode"):
                encoded, padded_shape, stats = _fused_encode_codes(
                    data, eb_abs, chunk, scratch
                )
        except _NeedsExactPath:
            # data/eb ratio beyond float64-exact Lorenzo territory: the
            # reference kernels do int64 arithmetic
            return _EXACT.encode(data, eb_abs, chunk)
        codes_bytes, shuffled_bytes = padded_stage_sizes(padded_shape)
        return EncodeOutcome(
            encoded=encoded,
            padded_shape=padded_shape,
            stats=stats,
            codes_bytes=codes_bytes,
            shuffled_bytes=shuffled_bytes,
        )

    def decode(
        self,
        encoded: EncodedBlocks,
        padded_shape: tuple[int, ...],
        orig_shape: tuple[int, ...],
        eb_abs: float,
        chunk: tuple[int, ...] | None,
        scratch: Scratch | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        scratch = self._own_scratch(scratch)
        try:
            with telemetry.span("stage.fused_decode"):
                return _fused_decode_codes(
                    encoded, padded_shape, orig_shape, eb_abs, chunk, scratch,
                    out,
                )
        except _NeedsExactPath:
            # a per-chunk prefix sum might overflow int32 (oversized custom
            # chunks holding saturated residuals): the reference kernels run
            # the inverse Lorenzo in int64, over any rows already written
            return _EXACT.decode(
                encoded, padded_shape, orig_shape, eb_abs, chunk, out=out
            )
