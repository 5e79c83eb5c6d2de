"""Constant-block shortcut (the ``constant`` plan, ``FZCN``).

A chunk whose entire value range fits inside ``2 * eb_abs`` is exactly
representable — within the bound — by a single fill value, so the stream
stores only the header: shape, bound, and the float64 midpoint
``(min + max) / 2``.  This is the cuSZx-style shortcut: near-constant
chunks (halo regions, padding, quiescent fields) compress at whatever
ratio the chunk size implies (kilobytes to ~48 bytes) and decompress as a
single ``np.full``.

Eligibility is the *caller's* responsibility — :func:`constant_compress`
re-checks and raises :class:`~repro.errors.ConfigError` for chunks that do
not qualify rather than silently violating the bound; the planner's
``decide()`` degrades such chunks to ``fast`` instead.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro.core.pipeline import CompressionResult
from repro.core.quantize import QuantizerStats
from repro.errors import ConfigError, FormatError
from repro.utils.safeio import BoundedReader
from repro.utils.validation import (
    check_out,
    ensure_float32,
    ensure_ndim,
    ensure_positive,
)

__all__ = [
    "CONSTANT_MAGIC",
    "CONSTANT_VERSION",
    "constant_qualifies",
    "constant_compress",
    "constant_decompress",
    "constant_info",
    "constant_peek_shape",
]

CONSTANT_MAGIC = b"FZCN"
CONSTANT_VERSION = 1

# magic, version, ndim, reserved, 3x dim, eb_abs, fill value
_HEADER_FMT = "<4sBBH3Qdd"
_HEADER_BYTES = struct.calcsize(_HEADER_FMT)
_CRC_FMT = "<I"
_CRC_BYTES = struct.calcsize(_CRC_FMT)

#: total FZCN stream size, shape-independent
STREAM_BYTES = _HEADER_BYTES + _CRC_BYTES


def constant_qualifies(lo: float, hi: float, eb_abs: float) -> bool:
    """True when ``[lo, hi]`` is representable by its midpoint within the bound."""
    return math.isfinite(lo) and math.isfinite(hi) and hi - lo <= 2.0 * eb_abs


def constant_compress(data: np.ndarray, eb_abs: float) -> CompressionResult:
    """Compress a qualifying chunk to a fill-value-only ``FZCN`` stream."""
    data = ensure_ndim(ensure_float32(data))
    eb_abs = ensure_positive(eb_abs, "eb_abs")
    flat = data.reshape(-1)
    if flat.size == 0:
        raise ConfigError("cannot constant-encode an empty chunk")
    lo = float(flat.min())
    hi = float(flat.max())
    if not constant_qualifies(lo, hi, eb_abs):
        raise ConfigError(
            f"chunk range [{lo}, {hi}] exceeds 2*eb_abs={2.0 * eb_abs}; "
            "constant plan would violate the error bound"
        )
    fill = (lo + hi) * 0.5
    dims = tuple(int(d) for d in data.shape) + (1,) * (3 - data.ndim)
    body = struct.pack(
        _HEADER_FMT,
        CONSTANT_MAGIC,
        CONSTANT_VERSION,
        data.ndim,
        0,
        *dims,
        float(eb_abs),
        fill,
    )
    stream = body + struct.pack(_CRC_FMT, zlib.crc32(body) & 0xFFFFFFFF)
    return CompressionResult(
        stream=stream,
        original_bytes=int(data.nbytes),
        compressed_bytes=len(stream),
        eb_abs=eb_abs,
        quantizer=QuantizerStats(0, 0, 0),
        n_blocks=0,
        n_nonzero_blocks=0,
        stage_sizes={"header_bytes": _HEADER_BYTES},
        plan="constant",
    )


def constant_decompress(
    stream: bytes | bytearray | memoryview, out: np.ndarray | None = None
) -> np.ndarray:
    """Reconstruct a constant chunk from an ``FZCN`` stream (float32),
    filling ``out`` (validated by :func:`check_out`) when given."""
    buf = bytes(stream)
    if len(buf) != STREAM_BYTES:
        raise FormatError(
            f"FZCN stream must be exactly {STREAM_BYTES} bytes, got {len(buf)}"
        )
    (stored,) = struct.unpack_from(_CRC_FMT, buf, _HEADER_BYTES)
    actual = zlib.crc32(buf[:_HEADER_BYTES]) & 0xFFFFFFFF
    if stored != actual:
        raise FormatError(
            f"stream CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )
    reader = BoundedReader(buf, name="FZCN stream")
    magic, version, ndim, _r, d0, d1, d2, eb_abs, fill = reader.read_struct(
        _HEADER_FMT, "header"
    )
    if magic != CONSTANT_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != CONSTANT_VERSION:
        raise FormatError(f"unsupported FZCN stream version {version}")
    if not 1 <= ndim <= 3:
        raise FormatError(f"bad ndim {ndim}")
    shape = (d0, d1, d2)[:ndim]
    if any(d <= 0 for d in shape):
        raise FormatError(f"non-positive dimension in shape {shape}")
    if not (eb_abs > 0 and math.isfinite(eb_abs)):
        raise FormatError(f"bad error bound {eb_abs}")
    if not math.isfinite(fill):
        raise FormatError(f"non-finite fill value {fill}")
    from repro.core.format import MAX_ELEMENTS

    if math.prod(shape) > MAX_ELEMENTS:
        raise FormatError(
            f"element count {math.prod(shape)} exceeds the cap {MAX_ELEMENTS}"
        )
    if out is None:
        return np.full(shape, np.float64(fill), dtype=np.float32)
    check_out(out, shape).fill(np.float64(fill))
    return out


def constant_info(stream: bytes | bytearray | memoryview) -> dict:
    """Validated header facts of an ``FZCN`` stream (framing + CRC checked).

    Runs the same validation ladder as :func:`constant_decompress` but does
    not materialize the (possibly huge) reconstructed field.
    """
    buf = bytes(stream)
    if len(buf) != STREAM_BYTES:
        raise FormatError(
            f"FZCN stream must be exactly {STREAM_BYTES} bytes, got {len(buf)}"
        )
    (stored,) = struct.unpack_from(_CRC_FMT, buf, _HEADER_BYTES)
    actual = zlib.crc32(buf[:_HEADER_BYTES]) & 0xFFFFFFFF
    if stored != actual:
        raise FormatError(
            f"stream CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )
    magic, version, ndim, _r, d0, d1, d2, eb_abs, fill = struct.unpack_from(
        _HEADER_FMT, buf
    )
    if magic != CONSTANT_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != CONSTANT_VERSION:
        raise FormatError(f"unsupported FZCN stream version {version}")
    if not 1 <= ndim <= 3:
        raise FormatError(f"bad ndim {ndim}")
    shape = (d0, d1, d2)[:ndim]
    if any(d <= 0 for d in shape):
        raise FormatError(f"non-positive dimension in shape {shape}")
    if not (eb_abs > 0 and math.isfinite(eb_abs)):
        raise FormatError(f"bad error bound {eb_abs}")
    if not math.isfinite(fill):
        raise FormatError(f"non-finite fill value {fill}")
    return {
        "shape": shape,
        "eb_abs": eb_abs,
        "fill": fill,
        "stream_bytes": STREAM_BYTES,
    }


def constant_peek_shape(stream: bytes | bytearray | memoryview) -> tuple[int, ...]:
    """Shape declared by an ``FZCN`` stream (full validation — streams are tiny)."""
    return tuple(int(d) for d in constant_info(stream)["shape"])
