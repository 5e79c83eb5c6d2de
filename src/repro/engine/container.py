"""Segmented multi-chunk ``.fz`` container (format ``FZMC``, v3 + legacy v2).

The single-shot pipeline emits one monolithic stream per field; the batch
engine needs a container that can be **written incrementally** (one segment
per chunk, flushed as soon as the worker finishes), **read incrementally**
(each segment is self-framing and CRC-protected), **sought into** (a
trailing index maps chunk -> byte extent without scanning the payload) and
**concatenated** (``cat a.fz b.fz`` is a valid container file holding both
fields).  The layout borrows the end-anchored trailer idea from ZIP/Parquet
and the per-record CRC framing of the cuSZ family's multi-field archives.

Layout (little-endian)::

    container   := magic segments index footer
    magic       := b"FZMC0003"                                  (8 bytes)
    segments    := segment*
    segment     := b"FZSG" u32 ordinal  u64 payload_len         (16 bytes)
                   payload                                      (payload_len)
                   u32 crc32(segment header + payload)          (4 bytes)
    index       := b"FZIX" u32 n_segments
                   u8 ndim  u8 split_axis  u16 reserved
                   3 x u64 field shape (unused dims = 1)
                   f64 absolute error bound
                   u64 container_bytes (total, incl. footer)
                   n_segments x { u64 offset  u64 seg_bytes  u64 extent
                                  u64 plan }
    footer      := u64 index_bytes  u32 crc32(index)  b"FZMCEND3"  (20 bytes)

Every ``payload`` is a complete core stream, CRC-trailed, holding the
chunk's rows along ``split_axis``: an FZ-GPU ``FZGP`` stream for the fast
plan, or a planner stream (``FZIN`` interpolation / ``FZCN`` constant,
:mod:`repro.planner`) as recorded by the entry's ``plan`` id — readers
dispatch per segment from the index without re-probing.  ``offset`` is
relative to the container start so concatenated containers stay
self-describing, and ``container_bytes`` lets a reader walk *backwards*
from the end of a file through every concatenated container.

**v2 compatibility**: containers written before the planner existed
(magic ``FZMC0002`` / end magic ``FZMCEND2``, 24-byte index entries with
no ``plan`` field) still parse — their entries read back with
``plan = 0`` (fast), which is exactly what every v2 payload is.  The
writer always emits v3.

Readers validate with the same ladder as the core format: framing first
(magics, lengths, caps) as :class:`~repro.errors.FormatError`, then CRCs,
then cross-field consistency (extents must tile the declared shape) as
:class:`~repro.errors.FormatError`/:class:`~repro.errors.DecompressionError`
before any payload-sized work.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterator

from repro import faults, telemetry
from repro.errors import FormatError
from repro.utils.safeio import BoundedReader, checked_count

__all__ = [
    "CONTAINER_MAGIC",
    "CONTAINER_MAGIC_V2",
    "ContainerIndex",
    "SegmentEntry",
    "SegmentHit",
    "SegmentOutcome",
    "SalvageReport",
    "ContainerWriter",
    "read_containers",
    "iter_segments",
    "resync_segments",
    "looks_like_container",
]

#: current (v3) container start magic — what the writer emits
CONTAINER_MAGIC = b"FZMC0003"
END_MAGIC = b"FZMCEND3"
#: legacy (v2, pre-planner) magics — still accepted by every reader
CONTAINER_MAGIC_V2 = b"FZMC0002"
END_MAGIC_V2 = b"FZMCEND2"
_SEG_MAGIC = b"FZSG"
_INDEX_MAGIC = b"FZIX"

#: start/end magic -> container format version
_START_VERSIONS = {CONTAINER_MAGIC_V2: 2, CONTAINER_MAGIC: 3}
_END_VERSIONS = {END_MAGIC_V2: 2, END_MAGIC: 3}

_SEG_HDR_FMT = "<4sIQ"
_SEG_HDR_BYTES = struct.calcsize(_SEG_HDR_FMT)
_CRC_FMT = "<I"
_CRC_BYTES = struct.calcsize(_CRC_FMT)
_INDEX_META_FMT = "<4sIBBH3QdQ"
_INDEX_META_BYTES = struct.calcsize(_INDEX_META_FMT)
#: index entry layouts by container version (v3 appends the plan id)
_INDEX_ENTRY_FMTS = {2: "<QQQ", 3: "<QQQQ"}
_INDEX_ENTRY_FMT = _INDEX_ENTRY_FMTS[3]
_INDEX_ENTRY_BYTES = struct.calcsize(_INDEX_ENTRY_FMT)
_FOOTER_FMT = "<QI8s"
FOOTER_BYTES = struct.calcsize(_FOOTER_FMT)

#: highest segment-plan id a v3 index entry may carry (repro.planner owns
#: the taxonomy: 0 fast, 1 interp, 2 constant)
_MAX_PLAN_ID = 2

#: Cap on segments a single container may declare (a 2^20-chunk field would
#: be >4 TiB at the minimum chunk size — far beyond anything we write, small
#: enough to reject a crafted index before allocating entry lists).
MAX_SEGMENTS = 1 << 20


@dataclass(frozen=True)
class SegmentEntry:
    """One chunk's location inside a container."""

    offset: int  #: byte offset of the segment header, container-relative
    seg_bytes: int  #: total segment size (header + payload + CRC)
    extent: int  #: rows this chunk covers along the split axis
    plan: int = 0  #: segment plan id (0 fast, 1 interp, 2 constant; v2 -> 0)


@dataclass(frozen=True)
class SegmentHit:
    """One CRC-valid segment found by the forward re-sync scan."""

    offset: int  #: absolute byte offset of the segment header in the file
    ordinal: int  #: ordinal stored in the segment header
    payload: bytes  #: the CRC-validated core stream


@dataclass(frozen=True)
class SegmentOutcome:
    """Salvage verdict for one container segment slot."""

    ordinal: int  #: segment ordinal (global across concatenated containers)
    extent: int  #: rows covered along the split axis (0 when unknown)
    nbytes: int  #: uncompressed bytes this slot accounts for
    status: str  #: ``"recovered"`` or ``"lost"``
    detail: str = ""  #: human-readable reason when lost

    @property
    def recovered(self) -> bool:
        return self.status == "recovered"


@dataclass(frozen=True)
class SalvageReport:
    """Accounting of a salvage decode: every byte is recovered or lost.

    ``recovered_bytes + lost_bytes == total_bytes`` always holds; when the
    index survived, ``total_bytes`` equals the full declared field size.
    ``resynced`` is True when the end-anchored index was unusable and the
    segments were found by forward magic re-sync instead (extents then come
    from the decoded payloads, not a declared shape).
    """

    shape: tuple[int, ...] | None
    resynced: bool
    total_bytes: int
    recovered_bytes: int
    lost_bytes: int
    segments: tuple[SegmentOutcome, ...]

    def __post_init__(self) -> None:
        if self.recovered_bytes + self.lost_bytes != self.total_bytes:
            raise ValueError(
                f"salvage accounting broken: {self.recovered_bytes} recovered "
                f"+ {self.lost_bytes} lost != {self.total_bytes} total"
            )

    @property
    def recovered_segments(self) -> int:
        return sum(1 for s in self.segments if s.recovered)

    @property
    def lost_segments(self) -> int:
        return len(self.segments) - self.recovered_segments

    @property
    def complete(self) -> bool:
        """True when nothing was lost (and the index itself survived)."""
        return self.lost_bytes == 0 and not self.resynced

    def summary(self) -> str:
        head = (
            f"salvage: {self.recovered_segments}/{len(self.segments)} segments, "
            f"{self.recovered_bytes}/{self.total_bytes} bytes recovered"
            + (" (index lost, forward re-sync)" if self.resynced else "")
        )
        lines = [head] + [
            f"  segment {s.ordinal}: {s.extent} rows, {s.nbytes} bytes LOST"
            + (f" ({s.detail})" if s.detail else "")
            for s in self.segments
            if not s.recovered
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class ContainerIndex:
    """Decoded index trailer of one container."""

    shape: tuple[int, ...]
    split_axis: int
    eb_abs: float
    container_bytes: int
    segments: tuple[SegmentEntry, ...]
    version: int = 3  #: container format version the index was read from

    def validate(self) -> None:
        """Cross-check the index against itself (before touching payloads)."""
        if self.split_axis >= len(self.shape):
            raise FormatError(
                f"split axis {self.split_axis} out of range for shape {self.shape}"
            )
        if any(d <= 0 for d in self.shape):
            raise FormatError(f"non-positive dimension in shape {self.shape}")
        covered = sum(s.extent for s in self.segments)
        if covered != self.shape[self.split_axis]:
            raise FormatError(
                f"segment extents sum to {covered}, shape needs "
                f"{self.shape[self.split_axis]} along axis {self.split_axis}"
            )
        pos = len(CONTAINER_MAGIC)
        for i, seg in enumerate(self.segments):
            if seg.offset != pos:
                raise FormatError(
                    f"segment {i} offset {seg.offset} does not follow the "
                    f"previous segment (expected {pos})"
                )
            if seg.seg_bytes <= _SEG_HDR_BYTES + _CRC_BYTES:
                raise FormatError(f"segment {i} size {seg.seg_bytes} too small")
            if not 0 <= seg.plan <= _MAX_PLAN_ID:
                raise FormatError(f"segment {i} has unknown plan id {seg.plan}")
            pos += seg.seg_bytes


class ContainerWriter:
    """Incremental writer: stream segments out as chunks finish.

    Usage::

        with open(path, "wb") as f:
            w = ContainerWriter(f, shape=data.shape, eb_abs=eb_abs)
            for chunk_stream, rows in compressed_chunks:
                w.add_segment(chunk_stream, rows)
            w.finish()

    Only the (small) index entries are buffered; payloads go straight to the
    file, so writing a terabyte field holds one chunk in memory at a time.
    """

    def __init__(
        self,
        fileobj: BinaryIO,
        shape: tuple[int, ...],
        eb_abs: float,
        split_axis: int = 0,
    ) -> None:
        if not 1 <= len(shape) <= 3:
            raise FormatError(f"container supports 1-3 dims, got shape {shape}")
        self._f = fileobj
        self._shape = tuple(int(s) for s in shape)
        self._axis = int(split_axis)
        self._eb_abs = float(eb_abs)
        self._entries: list[SegmentEntry] = []
        self._pos = 0
        self._finished = False
        self._write(CONTAINER_MAGIC)

    def _write(self, data: bytes) -> None:
        self._f.write(data)
        self._pos += len(data)

    def add_segment(self, payload: bytes, extent: int, plan: int = 0) -> None:
        """Append one CRC-framed segment holding ``payload`` (a core stream).

        ``plan`` is the segment-plan id recorded in the index entry (0 fast,
        1 interp, 2 constant) so readers can dispatch without sniffing.
        """
        if self._finished:
            raise FormatError("container already finished")
        if not 0 <= int(plan) <= _MAX_PLAN_ID:
            raise FormatError(f"unknown segment plan id {plan}")
        ordinal = len(self._entries)
        header = struct.pack(_SEG_HDR_FMT, _SEG_MAGIC, ordinal, len(payload))
        crc = zlib.crc32(payload, zlib.crc32(header)) & 0xFFFFFFFF
        # fault-injection point: an active `segment_corrupt` plan flips one
        # payload byte *after* the CRC was computed — simulated bit rot that
        # the segment checksum catches on read (salvage testing)
        payload = faults.corrupt_segment(payload, ordinal)
        offset = self._pos
        self._write(header)
        self._write(payload)
        self._write(struct.pack(_CRC_FMT, crc))
        self._entries.append(
            SegmentEntry(offset, self._pos - offset, int(extent), int(plan))
        )
        if telemetry.enabled():
            telemetry.counter("container.segments_written")
            telemetry.counter("container.payload_bytes_written", len(payload))

    def finish(self) -> ContainerIndex:
        """Write the index trailer + footer and return the decoded index."""
        if self._finished:
            raise FormatError("container already finished")
        self._finished = True
        n = len(self._entries)
        index_bytes = _INDEX_META_BYTES + n * _INDEX_ENTRY_BYTES
        container_bytes = self._pos + index_bytes + FOOTER_BYTES
        dims = list(self._shape) + [1] * (3 - len(self._shape))
        index = struct.pack(
            _INDEX_META_FMT,
            _INDEX_MAGIC,
            n,
            len(self._shape),
            self._axis,
            0,
            *dims,
            self._eb_abs,
            container_bytes,
        ) + b"".join(
            struct.pack(_INDEX_ENTRY_FMT, e.offset, e.seg_bytes, e.extent, e.plan)
            for e in self._entries
        )
        self._write(index)
        self._write(
            struct.pack(_FOOTER_FMT, index_bytes, zlib.crc32(index) & 0xFFFFFFFF, END_MAGIC)
        )
        idx = ContainerIndex(
            self._shape, self._axis, self._eb_abs, container_bytes, tuple(self._entries)
        )
        idx.validate()
        return idx


def _parse_index(blob: bytes, version: int = 3) -> ContainerIndex:
    """Decode and validate an index trailer body (without the footer).

    ``version`` selects the entry layout: v2 entries have no plan field and
    read back as plan 0 (fast) — the only payload kind v2 writers produced.
    """
    entry_fmt = _INDEX_ENTRY_FMTS.get(version)
    if entry_fmt is None:
        raise FormatError(f"unsupported container version {version}")
    reader = BoundedReader(blob, name="FZMC index")
    (
        magic, n_segments, ndim, axis, _r, d0, d1, d2, eb_abs, container_bytes,
    ) = reader.read_struct(_INDEX_META_FMT, "index metadata")
    if magic != _INDEX_MAGIC:
        raise FormatError(f"bad index magic {magic!r}")
    if not 1 <= ndim <= 3:
        raise FormatError(f"bad ndim {ndim} in container index")
    n_segments = checked_count(n_segments, MAX_SEGMENTS, "segment count")
    entries = []
    for _ in range(n_segments):
        fields = reader.read_struct(entry_fmt, "index entry")
        if version >= 3:
            off, seg_bytes, extent, plan = fields
        else:
            (off, seg_bytes, extent), plan = fields, 0
        entries.append(SegmentEntry(off, seg_bytes, extent, plan))
    reader.expect_exhausted("container index")
    idx = ContainerIndex(
        (d0, d1, d2)[:ndim], axis, eb_abs, container_bytes, tuple(entries),
        version=version,
    )
    idx.validate()
    return idx


def _parse_segment(blob: bytes, expected_ordinal: int, name: str) -> bytes:
    """Validate one segment's framing + CRC, returning its payload."""
    reader = BoundedReader(blob, name=name)
    magic, ordinal, payload_len = reader.read_struct(_SEG_HDR_FMT, "segment header")
    if magic != _SEG_MAGIC:
        raise FormatError(f"bad segment magic {magic!r} in {name}")
    if ordinal != expected_ordinal:
        raise FormatError(
            f"segment ordinal {ordinal} out of order (expected {expected_ordinal})"
        )
    payload = reader.read_bytes(payload_len, "segment payload")
    (crc,) = reader.read_struct(_CRC_FMT, "segment CRC")
    reader.expect_exhausted("segment")
    actual = zlib.crc32(memoryview(blob)[: _SEG_HDR_BYTES + payload_len]) & 0xFFFFFFFF
    if crc != actual:
        raise FormatError(
            f"segment {ordinal} CRC mismatch: stored {crc:#010x}, computed {actual:#010x}"
        )
    return payload


def looks_like_container(path_or_bytes) -> bool:
    """Cheap sniff: does this file/buffer start with an FZMC magic (v2/v3)?"""
    if isinstance(path_or_bytes, (bytes, bytearray, memoryview)):
        head = bytes(path_or_bytes[: len(CONTAINER_MAGIC)])
    else:
        with open(path_or_bytes, "rb") as f:
            head = f.read(len(CONTAINER_MAGIC))
    return head in _START_VERSIONS


def read_containers(fileobj: BinaryIO) -> list[ContainerIndex]:
    """Read the index of every concatenated container, back to front.

    Seeks to the end, parses the footer/index of the last container, then
    steps back ``container_bytes`` and repeats until the file start is
    reached.  Returns indexes in **file order**.  Any framing inconsistency
    (sizes that do not tile the file, bad magics, CRC mismatches) raises
    :class:`FormatError`.
    """
    fileobj.seek(0, 2)
    file_end = fileobj.tell()
    containers: list[tuple[int, ContainerIndex]] = []
    end = file_end
    while end > 0:
        if end < len(CONTAINER_MAGIC) + _INDEX_META_BYTES + FOOTER_BYTES:
            raise FormatError(f"container file truncated ({end} bytes before offset 0)")
        fileobj.seek(end - FOOTER_BYTES)
        index_bytes, index_crc, end_magic = struct.unpack(
            _FOOTER_FMT, _read_exact(fileobj, FOOTER_BYTES, "container footer")
        )
        version = _END_VERSIONS.get(end_magic)
        if version is None:
            raise FormatError(f"bad container end magic {end_magic!r}")
        if index_bytes > end - FOOTER_BYTES:
            raise FormatError(
                f"container index size {index_bytes} exceeds the {end - FOOTER_BYTES} "
                f"bytes before the footer"
            )
        fileobj.seek(end - FOOTER_BYTES - index_bytes)
        index_blob = _read_exact(fileobj, index_bytes, "container index")
        if (zlib.crc32(index_blob) & 0xFFFFFFFF) != index_crc:
            raise FormatError("container index CRC mismatch")
        idx = _parse_index(index_blob, version)
        start = end - idx.container_bytes
        if start < 0:
            raise FormatError(
                f"container declares {idx.container_bytes} bytes but only "
                f"{end} precede its footer"
            )
        fileobj.seek(start)
        start_magic = _read_exact(fileobj, len(CONTAINER_MAGIC), "container magic")
        if _START_VERSIONS.get(start_magic) != version:
            raise FormatError("container start magic missing where the index points")
        containers.append((start, idx))
        end = start
    containers.reverse()
    return [idx for _, idx in containers]


def read_segment_payload(
    fileobj: BinaryIO, container_start: int, entry: SegmentEntry, ordinal: int
) -> bytes:
    """Seek to one indexed segment, validate its framing + CRC, return payload."""
    fileobj.seek(container_start + entry.offset)
    blob = _read_exact(fileobj, entry.seg_bytes, f"segment {ordinal}")
    payload = _parse_segment(blob, ordinal, f"segment {ordinal}")
    if telemetry.enabled():
        telemetry.counter("container.segments_read")
        telemetry.counter("container.payload_bytes_read", len(payload))
    return payload


def iter_segments(fileobj: BinaryIO) -> Iterator[tuple[ContainerIndex, int, bytes]]:
    """Stream every ``(index, ordinal, payload)`` triple, front to back.

    Forward, seek-free companion to :func:`read_containers` for pipe-style
    consumers: walks segments sequentially (each is self-framing), collects
    the index when it arrives, validates it against what was actually read,
    then yields the buffered triples.  Memory is bounded by one container's
    segment payloads.
    """
    containers = 0
    while True:
        magic = fileobj.read(len(CONTAINER_MAGIC))
        if not magic:
            break
        version = _START_VERSIONS.get(magic)
        if version is None:
            raise FormatError(f"bad container magic {magic!r}")
        entry_bytes = struct.calcsize(_INDEX_ENTRY_FMTS[version])
        containers += 1
        pending: list[bytes] = []
        seg_sizes: list[int] = []
        while True:
            head = _read_exact(fileobj, _SEG_HDR_BYTES, "segment/index header")
            if head[:4] == _SEG_MAGIC:
                _, _, payload_len = struct.unpack(_SEG_HDR_FMT, head)
                body = _read_exact(
                    fileobj, payload_len + _CRC_BYTES, "segment payload"
                )
                pending.append(
                    _parse_segment(head + body, len(pending), f"segment {len(pending)}")
                )
                seg_sizes.append(_SEG_HDR_BYTES + payload_len + _CRC_BYTES)
            elif head[:4] == _INDEX_MAGIC:
                (n_segments,) = struct.unpack_from("<I", head, 4)
                n_segments = checked_count(n_segments, MAX_SEGMENTS, "segment count")
                rest = _read_exact(
                    fileobj,
                    _INDEX_META_BYTES - _SEG_HDR_BYTES + n_segments * entry_bytes,
                    "container index",
                )
                index_blob = head + rest
                footer = _read_exact(fileobj, FOOTER_BYTES, "container footer")
                index_bytes, index_crc, end_magic = struct.unpack(_FOOTER_FMT, footer)
                if _END_VERSIONS.get(end_magic) != version:
                    raise FormatError(f"bad container end magic {end_magic!r}")
                if index_bytes != len(index_blob):
                    raise FormatError(
                        f"footer declares {index_bytes} index bytes, read {len(index_blob)}"
                    )
                if (zlib.crc32(index_blob) & 0xFFFFFFFF) != index_crc:
                    raise FormatError("container index CRC mismatch")
                idx = _parse_index(index_blob, version)
                if len(idx.segments) != len(pending):
                    raise FormatError(
                        f"index lists {len(idx.segments)} segments, stream held "
                        f"{len(pending)}"
                    )
                for i, (entry, size) in enumerate(zip(idx.segments, seg_sizes)):
                    if entry.seg_bytes != size:
                        raise FormatError(
                            f"index entry {i} size {entry.seg_bytes} does not match "
                            f"the {size}-byte segment read from the stream"
                        )
                for ordinal, payload in enumerate(pending):
                    yield idx, ordinal, payload
                break
            else:
                raise FormatError(
                    f"expected segment or index magic at segment boundary, got "
                    f"{head[:4]!r}"
                )
    if containers == 0:
        raise FormatError("empty container file")


def resync_segments(blob: bytes) -> list[SegmentHit]:
    """Find every CRC-valid segment in ``blob`` by forward magic re-sync.

    Scans for the ``FZSG`` magic; each candidate is accepted only if its
    declared payload fits the remaining bytes *and* its CRC verifies, so a
    magic-shaped bit pattern inside corrupted data cannot produce a false
    positive beyond a 2^-32 CRC collision.  After a hit the scan resumes
    past the whole segment; after a miss it advances one byte — which is
    what lets salvage step over a corrupted or truncated region and pick up
    the next intact segment.
    """
    hits: list[SegmentHit] = []
    n = len(blob)
    pos = 0
    while True:
        i = blob.find(_SEG_MAGIC, pos)
        if i < 0 or i + _SEG_HDR_BYTES > n:
            break
        _, ordinal, payload_len = struct.unpack_from(_SEG_HDR_FMT, blob, i)
        end = i + _SEG_HDR_BYTES + payload_len + _CRC_BYTES
        if payload_len <= n and end <= n:
            (stored,) = struct.unpack_from(_CRC_FMT, blob, end - _CRC_BYTES)
            actual = zlib.crc32(memoryview(blob)[i : end - _CRC_BYTES]) & 0xFFFFFFFF
            if stored == actual:
                hits.append(
                    SegmentHit(i, ordinal, blob[i + _SEG_HDR_BYTES : end - _CRC_BYTES])
                )
                pos = end
                continue
        pos = i + 1
    return hits


def _read_exact(fileobj: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`FormatError` (truncation)."""
    blob = fileobj.read(n)
    if len(blob) != n:
        raise FormatError(
            f"container truncated: {what} needs {n} bytes, got {len(blob)}"
        )
    return blob
