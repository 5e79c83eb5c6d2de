"""Fast sparsification-style lossless encoder (§3.4).

Phase 1 partitions the bitshuffled stream into fixed 16-byte data blocks (4
``uint32`` words) and records one flag bit per block: 0 = all-zero block,
1 = literal block.  Phase 2 computes each literal block's output offset with an
exclusive prefix sum over the byte-flag array and gathers the literal blocks
contiguously.

With 16-byte blocks each flag bit stands for 16 bytes of codes — 32 bytes of
original float data — so this stage alone caps the end-to-end compression
ratio at 128x (the figure the paper quotes against Huffman's cap of 32x).

Decoding scatters literal blocks back to the positions whose flag is set and
zero-fills the rest; it is exact (the stage is lossless).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.prefix_sum import exclusive_sum
from repro.errors import DecompressionError
from repro.utils.bits import pack_bitflags, unpack_bitflags

__all__ = ["BLOCK_BYTES", "BLOCK_WORDS", "EncodedBlocks", "encode_zero_blocks", "decode_zero_blocks"]

#: Bytes per encoder data block (ByteFlagArr granularity: 4 KiB tile / 256 flags).
BLOCK_BYTES = 16
#: uint32 words per data block.
BLOCK_WORDS = BLOCK_BYTES // 4


@dataclass(frozen=True)
class EncodedBlocks:
    """Output of the zero-block encoder.

    Attributes
    ----------
    bitflags:
        Packed flag bits (little bit order), one per data block.
    literals:
        Concatenated non-zero blocks as a flat ``uint32`` array
        (``n_nonzero * BLOCK_WORDS`` words).
    n_blocks:
        Total number of data blocks (flag bits).
    n_nonzero:
        Number of literal (non-zero) blocks.
    """

    bitflags: np.ndarray
    literals: np.ndarray
    n_blocks: int
    n_nonzero: int

    @property
    def nbytes(self) -> int:
        """Encoded payload size in bytes (flags + literal blocks)."""
        return int(self.bitflags.nbytes + self.literals.nbytes)

    @property
    def zero_fraction(self) -> float:
        """Fraction of blocks that were all-zero."""
        return 1.0 - self.n_nonzero / self.n_blocks if self.n_blocks else 0.0


def encode_zero_blocks(words: np.ndarray, block_words: int = BLOCK_WORDS) -> EncodedBlocks:
    """Encode a tile-aligned ``uint32`` stream by eliding all-zero blocks.

    Parameters
    ----------
    words:
        Flat ``uint32`` array whose length is a multiple of ``block_words``
        (bitshuffle output always is, for the default block size).
    block_words:
        Data-block granularity in 4-byte words (default 4 = 16 bytes, the
        paper's choice; exposed for the block-size ablation bench).

    Returns
    -------
    EncodedBlocks
    """
    words = np.ascontiguousarray(words, dtype=np.uint32)
    if block_words <= 0:
        raise ValueError("block_words must be positive")
    if words.size % block_words:
        raise ValueError("word count must be a multiple of block_words")
    blocks = words.reshape(-1, block_words)
    byteflags = (blocks != 0).any(axis=1)
    n_blocks = blocks.shape[0]
    n_nonzero = int(np.count_nonzero(byteflags))
    # The offsets from the exclusive scan are implicit in the order NumPy's
    # boolean gather preserves; the GPU kernel needs them explicitly (phase 2).
    literals = blocks[byteflags].reshape(-1)
    return EncodedBlocks(
        bitflags=pack_bitflags(byteflags),
        literals=literals,
        n_blocks=n_blocks,
        n_nonzero=n_nonzero,
    )


def check_blocks(
    encoded: EncodedBlocks, block_words: int = BLOCK_WORDS
) -> tuple[np.ndarray, np.ndarray]:
    """Validate an encoded block stream; return its byte flags and literals.

    This is the decode validation ladder every zero-block decoder runs.
    Inconsistent inputs (flag/literal count mismatches — i.e. corrupted
    streams) raise :class:`~repro.errors.DecompressionError` so API
    boundaries catching :class:`~repro.errors.ReproError` see them.
    Count and length sanity runs up front — a negative block count, a
    non-zero count outside ``[0, n_blocks]`` or a mis-sized flag array is
    rejected before any NumPy reshape can turn it into a ``ValueError``.
    """
    n_blocks = int(encoded.n_blocks)
    if n_blocks < 0:
        raise DecompressionError(f"negative block count {n_blocks} in stream")
    n_nonzero = int(encoded.n_nonzero)
    if not 0 <= n_nonzero <= n_blocks:
        raise DecompressionError(
            f"stream claims {n_nonzero} non-zero blocks of {n_blocks}"
        )
    if int(encoded.bitflags.size) != (n_blocks + 7) // 8:
        raise DecompressionError(
            f"flag array is {int(encoded.bitflags.size)} bytes, "
            f"{n_blocks} blocks need {(n_blocks + 7) // 8}"
        )
    try:
        byteflags = unpack_bitflags(encoded.bitflags, encoded.n_blocks)
    except ValueError as exc:  # flag array shorter than the declared block count
        raise DecompressionError(str(exc)) from exc
    n_set = int(np.count_nonzero(byteflags))
    if n_set != encoded.n_nonzero:
        raise DecompressionError(
            f"flag array has {n_set} set bits but stream claims {encoded.n_nonzero}"
        )
    literals = np.ascontiguousarray(encoded.literals, dtype=np.uint32)
    if literals.size != encoded.n_nonzero * block_words:
        raise DecompressionError(
            "literal payload length does not match non-zero block count"
        )
    return byteflags, literals


def decode_zero_blocks(encoded: EncodedBlocks, block_words: int = BLOCK_WORDS) -> np.ndarray:
    """Invert :func:`encode_zero_blocks`, returning the full ``uint32`` stream.

    Malformed streams fail :func:`check_blocks` with
    :class:`~repro.errors.DecompressionError`.
    """
    byteflags, literals = check_blocks(encoded, block_words)
    out = np.zeros((encoded.n_blocks, block_words), dtype=np.uint32)
    out[byteflags] = literals.reshape(-1, block_words)
    return out.reshape(-1)


def block_offsets(byteflags: np.ndarray) -> np.ndarray:
    """Explicit phase-2 offsets: exclusive prefix sum of the byte-flag array.

    ``offsets[i]`` is the literal-block slot where block ``i`` is written when
    its flag is set; the GPU kernel tests ``offsets[i+1] != offsets[i]`` to
    decide whether to copy (the paper's "valid offset" test).
    """
    return exclusive_sum(np.asarray(byteflags, dtype=np.int64))
