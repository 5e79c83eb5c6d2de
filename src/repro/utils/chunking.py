"""Chunked (blocked) views of n-dimensional arrays.

The dual-quantization stage processes the input in small independent chunks so
that every chunk maps to one CUDA thread block and chunks never exchange data
(the paper's "fine-grained parallelization").  These helpers pad an array to a
multiple of the chunk shape and expose a ``(blocks..., in-block...)`` view so
per-chunk operators can be written as plain vectorized expressions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

__all__ = ["pad_to_multiple", "block_view", "unblock_view", "chunk_shape_for"]

#: Default chunk edge per dimensionality, mirroring cuSZ's launch geometry:
#: 256-element chunks in 1-D, 16x16 in 2-D, 8x8x8 in 3-D.
DEFAULT_CHUNKS: dict[int, tuple[int, ...]] = {
    1: (256,),
    2: (16, 16),
    3: (8, 8, 8),
}

#: Largest chunk edge: stream headers store each edge as a u16.
MAX_CHUNK_EDGE = 0xFFFF


def chunk_shape_for(ndim: int, chunk: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Return the chunk shape for ``ndim`` dimensions, validating overrides.

    Parameters
    ----------
    ndim:
        Dimensionality of the data (1, 2 or 3).
    chunk:
        Optional explicit chunk shape: ``ndim`` edges in
        ``[1, MAX_CHUNK_EDGE]``, else :class:`~repro.errors.ConfigError`.
    """
    if ndim not in DEFAULT_CHUNKS:
        raise ValueError(f"only 1-3 dimensional data is supported, got ndim={ndim}")
    if chunk is None:
        return DEFAULT_CHUNKS[ndim]
    chunk = tuple(int(c) for c in chunk)
    if len(chunk) != ndim or not all(1 <= c <= MAX_CHUNK_EDGE for c in chunk):
        raise ConfigError(
            f"chunk shape {chunk} invalid for ndim={ndim}: need {ndim} "
            f"edge(s) in [1, {MAX_CHUNK_EDGE}]"
        )
    return chunk


def pad_to_multiple(data: np.ndarray, multiple: tuple[int, ...]) -> np.ndarray:
    """Zero-pad ``data`` so each axis length is a multiple of ``multiple``.

    Returns the input unchanged (no copy) when it is already aligned.
    """
    if data.ndim != len(multiple):
        raise ValueError("multiple must match data dimensionality")
    pads = [(0, (-s) % m) for s, m in zip(data.shape, multiple)]
    if all(hi == 0 for _, hi in pads):
        return data
    return np.pad(data, pads, mode="constant")


def block_view(data: np.ndarray, chunk: tuple[int, ...]) -> np.ndarray:
    """Reshape an aligned array into ``(nb_0..nb_{d-1}, c_0..c_{d-1})`` blocks.

    ``data`` must already be padded so every axis is a multiple of the chunk
    edge (see :func:`pad_to_multiple`).  The result is a copy-free reshape +
    transpose when possible; NumPy may copy for non-contiguous layouts.
    """
    if data.ndim != len(chunk):
        raise ValueError("chunk must match data dimensionality")
    if any(s % c for s, c in zip(data.shape, chunk)):
        raise ValueError("data shape must be a multiple of the chunk shape")
    nd = data.ndim
    split_shape: list[int] = []
    for s, c in zip(data.shape, chunk):
        split_shape += [s // c, c]
    reshaped = data.reshape(split_shape)
    # Interleave (nb0, c0, nb1, c1, ...) -> (nb0, nb1, ..., c0, c1, ...)
    order = list(range(0, 2 * nd, 2)) + list(range(1, 2 * nd, 2))
    return reshaped.transpose(order)


def unblock_view(blocks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Invert :func:`block_view`, producing an array of the padded ``shape``."""
    nd = len(shape)
    if blocks.ndim != 2 * nd:
        raise ValueError("blocks must have 2*ndim axes")
    order: list[int] = []
    for i in range(nd):
        order += [i, nd + i]
    interleaved = blocks.transpose(order)
    return interleaved.reshape(shape)


def n_chunks(shape: tuple[int, ...], chunk: tuple[int, ...]) -> int:
    """Number of chunks covering ``shape`` (counting partial edge chunks)."""
    return math.prod(math.ceil(s / c) for s, c in zip(shape, chunk))
