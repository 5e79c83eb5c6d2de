"""Field and stream file I/O.

SDRBench distributes fields as raw little-endian float32 (``.f32``/``.dat``)
files with the dimensions documented out of band; this module reads/writes
that convention plus ``.npy`` and wraps compressed streams in files with a
CRC32 footer so corruption is caught before decompression.
"""

from __future__ import annotations

import pathlib
import struct
import zlib

import numpy as np

from repro.errors import FormatError
from repro.utils.safeio import BoundedReader

__all__ = ["load_field", "save_field", "save_stream", "load_stream"]

_STREAM_MAGIC = b"FZFSTRM1"
_FOOTER = "<I"


def load_field(
    path: str | pathlib.Path, shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Load a float32 field from ``.npy`` or raw ``.f32``/``.dat``.

    Parameters
    ----------
    path:
        Input file.  ``.npy`` files carry their own shape; raw files need
        ``shape``.
    shape:
        Grid dimensions for raw files (row-major, like SDRBench).
    """
    path = pathlib.Path(path)
    if path.suffix == ".npy":
        data = np.load(path)
        if data.dtype != np.float32:
            data = data.astype(np.float32)
        return data
    raw = np.fromfile(path, dtype="<f4")
    if shape is None:
        return raw
    expected = int(np.prod(shape))
    if raw.size != expected:
        raise FormatError(
            f"{path.name}: {raw.size} floats on disk, shape {shape} needs {expected}"
        )
    return raw.reshape(shape)


def save_field(path: str | pathlib.Path, data: np.ndarray) -> None:
    """Save a field as ``.npy`` (with shape) or raw ``.f32`` (flat)."""
    path = pathlib.Path(path)
    data = np.ascontiguousarray(data, dtype=np.float32)
    if path.suffix == ".npy":
        np.save(path, data)
    else:
        data.astype("<f4", copy=False).tofile(path)


def save_stream(path: str | pathlib.Path, stream: bytes) -> None:
    """Write a compressed stream file: magic + payload + CRC32 footer."""
    crc = zlib.crc32(stream) & 0xFFFFFFFF
    pathlib.Path(path).write_bytes(
        _STREAM_MAGIC + stream + struct.pack(_FOOTER, crc)
    )


def load_stream(path: str | pathlib.Path) -> bytes:
    """Read a compressed stream file, verifying magic and checksum."""
    blob = pathlib.Path(path).read_bytes()
    reader = BoundedReader(blob, name=f"stream file {pathlib.Path(path).name}")
    reader.expect_magic(_STREAM_MAGIC, "stream-file magic")
    payload = reader.read_bytes(max(reader.remaining - 4, 0), "stream payload")
    (crc,) = reader.read_struct(_FOOTER, "CRC32 footer")
    reader.expect_exhausted("stream file")
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise FormatError(f"{path}: checksum mismatch (file corrupted)")
    return payload
