"""Compressed stream container format for FZ-GPU.

Layout (little-endian)::

    offset  size  field
    0       4     magic  b"FZGP"
    4       1     version (1 or 2)
    5       1     ndim (1..3)
    6       2     reserved
    8       24    original dims, 3 x u64 (unused dims = 1)
    32      24    padded code-grid dims, 3 x u64
    56      8     absolute error bound, f64
    64      6     chunk shape, 3 x u16 (unused dims = 1)
    70      2     reserved
    72      8     n_blocks, u64
    80      8     n_nonzero, u64
    88      8     n_saturated, u64
    96      --    payload: packed bit-flag array, then literal blocks
    --      4     v2 only: CRC32 over header + payload (little-endian u32)

The bit-flag array occupies ``ceil(n_blocks / 8)`` bytes; literal blocks
follow immediately, ``n_nonzero * 16`` bytes.  Version 2 (the current
writer default) appends a CRC32 trailer computed over everything before it,
mirroring the footer :mod:`repro.io` uses for stream files; version 1
streams (no trailer) still decode.

Header fields are cross-validated before any payload-sized allocation:
``padded_shape`` must be the chunk-aligned padding of ``shape``, its element
count must stay under :data:`MAX_ELEMENTS`, and ``n_blocks`` must equal the
block count the padded grid implies — so a crafted ``n_blocks = 2**48``
header is rejected with :class:`FormatError` instead of driving a huge
``np.zeros``.  Streams whose length differs from the declared size *in
either direction* are refused (trailing garbage is an error, not slack).
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.bitshuffle import TILE_WORDS
from repro.core.encoder import BLOCK_BYTES, BLOCK_WORDS, EncodedBlocks
from repro.errors import FormatError
from repro.utils.safeio import BoundedReader

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_BYTES",
    "MAX_ELEMENTS",
    "StreamHeader",
    "pack_stream",
    "unpack_stream",
]

MAGIC = b"FZGP"
#: Current writer version.  v2 adds the CRC32 trailer; v1 is still readable.
VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)
_HEADER_FMT = "<4sBBH3Q3Qd3HHQQQ"
HEADER_BYTES = struct.calcsize(_HEADER_FMT)
assert HEADER_BYTES == 96, HEADER_BYTES

_CRC_FMT = "<I"
_CRC_BYTES = struct.calcsize(_CRC_FMT)

#: Sanity cap on the padded element count a header may declare (2^40 codes =
#: 2 TiB of uint16 — far beyond any single stream this library produces, but
#: small enough to reject absurd headers before allocation).
MAX_ELEMENTS = 1 << 40

#: Quantization codes per 4 KiB bitshuffle tile (uint16 codes, 2 per word).
_CODES_PER_TILE = 2 * TILE_WORDS
#: Encoder data blocks per bitshuffle tile.
_BLOCKS_PER_TILE = (TILE_WORDS * 4) // BLOCK_BYTES


def _pad3(dims: tuple[int, ...], fill: int = 1) -> tuple[int, int, int]:
    dims = tuple(int(d) for d in dims)
    return tuple(list(dims) + [fill] * (3 - len(dims)))  # type: ignore[return-value]


def implied_block_count(n_codes: int) -> int:
    """Number of encoder blocks a padded code grid of ``n_codes`` produces.

    Bitshuffle zero-pads the codes to whole 4 KiB tiles, and the zero-block
    encoder cuts each tile into 16-byte blocks, so the block count is fully
    determined by the element count — which is what lets ``unpack_stream``
    reject any header whose ``n_blocks`` disagrees with ``padded_shape``.
    """
    tiles = -(-n_codes // _CODES_PER_TILE)  # ceil division
    return tiles * _BLOCKS_PER_TILE


@dataclass(frozen=True)
class StreamHeader:
    """Decoded FZ-GPU stream header (see module docstring for the layout)."""

    ndim: int
    shape: tuple[int, ...]
    padded_shape: tuple[int, ...]
    eb: float
    chunk: tuple[int, ...]
    n_blocks: int
    n_nonzero: int
    n_saturated: int
    version: int = field(default=VERSION, compare=False)

    def pack(self) -> bytes:
        """Serialize to the fixed 96-byte header."""
        return struct.pack(
            _HEADER_FMT,
            MAGIC,
            self.version,
            self.ndim,
            0,
            *_pad3(self.shape),
            *_pad3(self.padded_shape),
            float(self.eb),
            *_pad3(self.chunk),
            0,
            self.n_blocks,
            self.n_nonzero,
            self.n_saturated,
        )

    @classmethod
    def unpack(cls, buf: bytes) -> "StreamHeader":
        """Parse and validate the fixed header from ``buf``."""
        reader = BoundedReader(buf, name="FZ-GPU stream")
        (
            magic,
            version,
            ndim,
            _r0,
            d0,
            d1,
            d2,
            p0,
            p1,
            p2,
            eb,
            c0,
            c1,
            c2,
            _r1,
            n_blocks,
            n_nonzero,
            n_saturated,
        ) = reader.read_struct(_HEADER_FMT, "header")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version not in _SUPPORTED_VERSIONS:
            raise FormatError(f"unsupported stream version {version}")
        if not 1 <= ndim <= 3:
            raise FormatError(f"bad ndim {ndim}")
        dims = (d0, d1, d2)[:ndim]
        padded = (p0, p1, p2)[:ndim]
        chunk = (c0, c1, c2)[:ndim]
        if not (eb > 0 and math.isfinite(eb)):
            raise FormatError(f"bad error bound {eb}")
        return cls(
            ndim, dims, padded, eb, chunk, n_blocks, n_nonzero, n_saturated,
            version=version,
        )

    def validate_geometry(self) -> None:
        """Cross-check the header's size fields against each other.

        Raises :class:`FormatError` when the fields cannot describe a real
        compressed stream.  This runs before any payload-sized allocation,
        so a header lying about ``n_blocks`` or ``padded_shape`` cannot be
        used as a memory bomb.
        """
        if any(c <= 0 for c in self.chunk):
            raise FormatError(f"non-positive chunk shape {self.chunk}")
        if any(d <= 0 for d in self.shape):
            raise FormatError(f"non-positive dimension in shape {self.shape}")
        expected_padded = tuple(
            -(-d // c) * c for d, c in zip(self.shape, self.chunk)
        )
        if tuple(self.padded_shape) != expected_padded:
            raise FormatError(
                f"padded shape {self.padded_shape} is not the chunk-aligned "
                f"padding of {self.shape} by {self.chunk} "
                f"(expected {expected_padded})"
            )
        n_codes = math.prod(self.padded_shape)
        if n_codes > MAX_ELEMENTS:
            raise FormatError(
                f"padded element count {n_codes} exceeds the cap {MAX_ELEMENTS}"
            )
        implied = implied_block_count(n_codes)
        if self.n_blocks != implied:
            raise FormatError(
                f"n_blocks {self.n_blocks} does not match the {implied} blocks "
                f"implied by padded shape {self.padded_shape}"
            )
        if self.n_nonzero > self.n_blocks:
            raise FormatError(
                f"n_nonzero {self.n_nonzero} exceeds n_blocks {self.n_blocks}"
            )
        if self.n_saturated > n_codes:
            raise FormatError(
                f"n_saturated {self.n_saturated} exceeds element count {n_codes}"
            )


def pack_stream(header: StreamHeader, encoded: EncodedBlocks) -> bytes:
    """Assemble a complete compressed stream: header + flags + literals.

    Version 2 headers (the default) get a CRC32 trailer over everything
    before it; packing a ``version=1`` header reproduces the legacy layout.
    """
    body = header.pack() + encoded.bitflags.tobytes() + encoded.literals.tobytes()
    if header.version < 2:
        return body
    return body + struct.pack(_CRC_FMT, zlib.crc32(body) & 0xFFFFFFFF)


def unpack_stream(stream: bytes | bytearray | memoryview) -> tuple[StreamHeader, EncodedBlocks]:
    """Split a stream back into header and encoded payload, validating sizes.

    The full validation ladder, in order: header field checks, geometry
    cross-validation (before any allocation), exact stream-length check
    (both truncation *and* trailing bytes are :class:`FormatError`), and —
    for v2 streams — CRC32 verification.
    """
    buf = bytes(stream)
    header = StreamHeader.unpack(buf)
    header.validate_geometry()
    flag_bytes = (header.n_blocks + 7) // 8
    lit_bytes = header.n_nonzero * BLOCK_BYTES
    trailer = _CRC_BYTES if header.version >= 2 else 0
    expected = HEADER_BYTES + flag_bytes + lit_bytes + trailer
    if len(buf) != expected:
        raise FormatError(
            f"stream size mismatch: have {len(buf)} bytes, header implies {expected}"
        )
    if trailer:
        (stored,) = struct.unpack_from(_CRC_FMT, buf, expected - _CRC_BYTES)
        actual = zlib.crc32(memoryview(buf)[: expected - _CRC_BYTES]) & 0xFFFFFFFF
        if stored != actual:
            raise FormatError(
                f"stream CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )
    reader = BoundedReader(buf, name="FZ-GPU stream")
    reader.skip(HEADER_BYTES, "header")
    flags = reader.read_array(np.uint8, flag_bytes, "bit-flag array")
    literals = reader.read_array(
        np.uint32, header.n_nonzero * BLOCK_WORDS, "literal blocks"
    )
    encoded = EncodedBlocks(
        bitflags=flags,
        literals=literals,
        n_blocks=header.n_blocks,
        n_nonzero=header.n_nonzero,
    )
    return header, encoded
