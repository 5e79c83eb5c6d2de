"""Vectorized bit-level primitives.

These helpers are the NumPy equivalents of the CUDA intrinsics the paper's
kernels rely on (``__ballot_sync``, ``__popc``, bit-plane gathers).  They are
written as whole-array operations so the hot paths stay inside compiled NumPy
loops rather than the Python interpreter, per the project's HPC coding guide.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_bitflags",
    "unpack_bitflags",
    "popcount32",
    "bit_transpose_32x32",
]

# Bit weights reused by the 32x32 transpose; allocating them once avoids a
# per-call arange in the hot loop.
_BIT_WEIGHTS_U32 = (np.uint32(1) << np.arange(32, dtype=np.uint32)).astype(np.uint32)

# Column-pair masks for the fused backend's masked-swap transpose
# (Hacker's Delight §7-3), one per swap distance j = 16, 8, 4, 2, 1: each
# mask selects the bit positions whose j-bit is 0.
_SWAP_DISTANCES = (16, 8, 4, 2, 1)
_SWAP_MASKS = tuple(
    np.uint32(m) for m in (0x0000FFFF, 0x00FF00FF, 0x0F0F0F0F, 0x33333333, 0x55555555)
)


def pack_bitflags(flags: np.ndarray) -> np.ndarray:
    """Pack a boolean/0-1 array into a little-bit-order byte array.

    Bit ``i`` of byte ``j`` holds flag ``8*j + i``, matching how the fused
    bitshuffle+mark kernel emits its bit-flag array via ``__ballot_sync`` (lane
    ``i`` sets bit ``i``).

    Parameters
    ----------
    flags:
        1-D array of booleans or 0/1 integers.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of length ``ceil(len(flags) / 8)``.
    """
    flags = np.asarray(flags)
    if flags.ndim != 1:
        raise ValueError("pack_bitflags expects a 1-D array")
    return np.packbits(flags.astype(np.uint8, copy=False), bitorder="little")


def unpack_bitflags(packed: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bitflags`; returns the first ``count`` flags.

    Parameters
    ----------
    packed:
        ``uint8`` array produced by :func:`pack_bitflags`.
    count:
        Number of valid flags (the packed array may carry tail padding bits).
    """
    packed = np.asarray(packed, dtype=np.uint8)
    bits = np.unpackbits(packed, bitorder="little")
    if count > bits.size:
        raise ValueError(f"requested {count} flags but only {bits.size} packed bits")
    return bits[:count].astype(bool)


def popcount32(words: np.ndarray) -> np.ndarray:
    """Per-element population count of a ``uint32`` array (CUDA ``__popc``)."""
    words = np.ascontiguousarray(words, dtype=np.uint32)
    as_bytes = words.view(np.uint8)
    return (
        np.unpackbits(as_bytes.reshape(words.size, 4), axis=1)
        .sum(axis=1)
        .reshape(words.shape)
    )


def bit_transpose_32x32(tiles: np.ndarray) -> np.ndarray:
    """Transpose the 32x32 bit matrix held in each row of 32 ``uint32`` words.

    ``tiles`` has shape ``(..., 32)``; element ``w`` of a row contributes its
    bit ``b`` to bit ``w`` of output word ``b``.  This is exactly what the
    paper's warp-level loop computes: iteration ``b`` issues
    ``__ballot_sync(cur & (1 << b))`` across the 32 lanes of a warp, producing
    one output word whose lane-``w`` bit is bit ``b`` of lane ``w``'s word.

    The operation is an involution: applying it twice restores the input.

    Parameters
    ----------
    tiles:
        ``uint32`` array whose last axis has length 32.

    Returns
    -------
    numpy.ndarray
        Same shape and dtype, bit-transposed along the last axis.
    """
    tiles = np.asarray(tiles)
    if tiles.dtype != np.uint32:
        raise ValueError("bit_transpose_32x32 requires uint32 input")
    if tiles.shape[-1] != 32:
        raise ValueError("last axis must have length 32")

    # Expand to individual bits: bits[..., w, b] = bit b of word w.
    expanded = (tiles[..., :, None] >> np.arange(32, dtype=np.uint32)) & np.uint32(1)
    # Output word b collects bit b of every word w into its bit w:
    # out[..., b] = sum_w bits[..., w, b] << w.  Swapping the last two axes of
    # the expansion turns the gather into a weighted sum along the final axis.
    swapped = expanded.swapaxes(-1, -2)
    out = (swapped * _BIT_WEIGHTS_U32).sum(axis=-1, dtype=np.uint64)
    return out.astype(np.uint32)
