"""ROI / progressive decode over the container index: the slicing oracle.

The headline proof of ``repro.roi``: for any container and any hyperslab,

    ``Engine.decompress_roi(container, slab)``
        ==  ``Engine.decompress_chunked(container)[slab]``   (byte-identical)

while touching **only** the segments whose axis-0 span intersects the slab
(proved through ``roi.chunks_skipped`` / ``container.segments_read``
telemetry, not trusted).  The oracle runs as a shrinking hypothesis
property over random shapes, plans, chunk splits and slabs, plus fixed
legs across pools, transports and the HTTP surface.  Crafted-index
fuzzing (forged extents, forged plan ids, over-range slabs) must fail as
*typed* :class:`~repro.errors.ReproError` subclasses, never as silent
garbage.  Salvage x ROI: rot in a segment the slab never touches is
invisible; rot inside the slab NaN-fills exactly the intersecting rows.
Every source kind ``Engine.decompress`` takes (bytes, ``BytesIO``, an open
file, a ``str`` path, a ``pathlib.Path``) decodes byte for byte like the
old per-source names that delegate to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, telemetry
from repro.core.pipeline import FZGPU
from repro.engine import Engine, iter_segments, plan_chunks, read_containers
from repro.engine import container as fzmc
from repro.errors import (
    ConfigError,
    DecompressionError,
    FormatError,
    ReproError,
)
from repro.roi import Slab, parse_slab, plan_roi, resolve_slab

from tests.golden_support import GOLDEN_CHUNK_BYTES, GOLDEN_EB, golden_mixed_field
from tests.serve_support import live_server, request

EB = 1e-2
FAST = {"backoff": 0.001}


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    walk = rng.standard_normal(shape).astype(np.float32)
    return np.cumsum(walk, axis=0).astype(np.float32)


@pytest.fixture(scope="module")
def eng():
    with Engine(jobs=2, pool="thread") as engine:
        yield engine


@pytest.fixture(scope="module")
def src_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roi_sources")


SOURCES = ("bytes", "bytesio", "file", "str", "path")

#: The per-source names (full decode, slab decode) that delegate to
#: ``Engine.decompress``.
_OLD_NAMES = {
    "bytes": ("decompress_chunked", "decompress_roi"),
    "bytesio": ("decompress_chunked_from", "decompress_roi_from"),
    "file": ("decompress_chunked_from", "decompress_roi_from"),
    "str": ("decompress_file", "decompress_roi_file"),
    "path": ("decompress_file", "decompress_roi_file"),
}


@contextlib.contextmanager
def _source(kind, blob, tmp_dir):
    """``blob`` as one of the source kinds ``Engine.decompress`` takes."""
    if kind == "bytes":
        yield blob
    elif kind == "bytesio":
        yield io.BytesIO(blob)
    else:
        path = tmp_dir / "container.fz"
        path.write_bytes(blob)
        if kind == "file":
            with open(path, "rb") as f:
                yield f
        else:
            yield str(path) if kind == "str" else path


def _both_entries(eng, kind, blob, tmp_dir, slab=None, salvage=False):
    """The same decode through ``decompress`` and through the old name."""
    full, roi = _OLD_NAMES[kind]
    with _source(kind, blob, tmp_dir) as src:
        new = eng.decompress(src, slab=slab, salvage=salvage)
    with _source(kind, blob, tmp_dir) as src:
        if slab is None:
            old = getattr(eng, full)(src, salvage=salvage)
        else:
            old = getattr(eng, roi)(src, slab, salvage=salvage)
    return new, old


def _assert_same_decode(new, old):
    if isinstance(old, tuple):
        (new, new_report), (old, old_report) = new, old
        assert new_report == old_report
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


# ---------------------------------------------------------------------------
# slab resolution semantics (unit layer)
# ---------------------------------------------------------------------------


def test_parse_slab_accepts_open_and_negative_bounds():
    assert parse_slab("1:5") == ((1, 5),)
    assert parse_slab(":, 2:") == ((None, None), (2, None))
    assert parse_slab("-8:-2") == ((-8, -2),)


@pytest.mark.parametrize(
    "text", ["", "1", "1:2:3", "a:b", "1:2,", "0x2:4"]
)
def test_parse_slab_rejects_malformed_specs(text):
    with pytest.raises(ConfigError):
        parse_slab(text)


def test_resolve_slab_pads_defaults_and_counts_from_end():
    slab = resolve_slab("4:-4", (32, 16))
    assert slab == resolve_slab([(4, 28)], (32, 16))
    assert slab.start == (4, 0) and slab.stop == (28, 16)
    assert slab.shape == (24, 16) and slab.text() == "4:28,0:16"
    assert resolve_slab((slice(1, 3), slice(2, 5)), (8, 8)).shape == (2, 3)


@pytest.mark.parametrize(
    "spec", ["10:5", "5:5", "0:100", "-100:2", "0:2,0:2,0:2"]
)
def test_resolve_slab_rejects_empty_and_out_of_range(spec):
    with pytest.raises(ConfigError):
        resolve_slab(spec, (32, 16))


# ---------------------------------------------------------------------------
# the differential slicing oracle (property layer)
# ---------------------------------------------------------------------------


@st.composite
def _roi_case(draw):
    ndim = draw(st.integers(1, 3))
    caps = {1: 96, 2: 40, 3: 14}[ndim]
    shape = tuple(draw(st.integers(1, caps)) for _ in range(ndim))
    bounds = []
    for dim in shape:
        a = draw(st.integers(0, dim - 1))
        b = draw(st.integers(a + 1, dim))
        bounds.append((a, b))
    spec = ",".join(
        ":" if (a, b) == (0, dim) and draw(st.booleans()) else f"{a}:{b}"
        for (a, b), dim in zip(bounds, shape)
    )
    return {
        "shape": shape,
        "slices": tuple(slice(a, b) for a, b in bounds),
        "spec": spec,
        "chunk_bytes": draw(st.sampled_from([256, 1024, 4096])),
        "plan": draw(st.sampled_from(["fast", "auto"])),
        "seed": draw(st.integers(0, 2**16)),
        "salvage": draw(st.booleans()),
        "source": draw(st.sampled_from(SOURCES)),
    }


@settings(max_examples=40, deadline=None)
@given(case=_roi_case())
def test_roi_equals_sliced_full_decode(case, eng, src_dir):
    data = _field(case["shape"], seed=case["seed"])
    blob = eng.compress_chunked(
        data, EB, chunk_bytes=case["chunk_bytes"], plan=case["plan"]
    )
    full = eng.decompress_chunked(blob)
    got = eng.decompress_roi(blob, case["spec"], salvage=case["salvage"])
    if case["salvage"]:
        got, report = got
        assert report.complete and report.lost_bytes == 0
    expect = np.ascontiguousarray(full[case["slices"]])
    assert got.dtype == np.float32 and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()
    # every source kind decodes the oracle's bytes, and equals the old name
    # of its kind, in the full, slab, RoiPlan and salvage modes
    plan = plan_roi(read_containers(io.BytesIO(blob)), case["spec"])
    for slab in (None, case["spec"], plan):
        for salvage in (False, True):
            new, old = _both_entries(
                eng, case["source"], blob, src_dir, slab, salvage
            )
            _assert_same_decode(new, old)
            arr = new[0] if salvage else new
            assert arr.tobytes() == (full if slab is None else expect).tobytes()


@settings(max_examples=25, deadline=None)
@given(case=_roi_case())
def test_progressive_final_tiles_reassemble_the_roi(case, eng, src_dir):
    data = _field(case["shape"], seed=case["seed"])
    blob = eng.compress_chunked(
        data, EB, chunk_bytes=case["chunk_bytes"], plan=case["plan"]
    )
    expect = eng.decompress_roi(blob, case["spec"])
    tiles = list(eng.iter_roi_tiles(blob, case["spec"]))
    finals = [t for t in tiles if t.final]
    # final tiles tile the ROI in row order, no gaps, no overlap
    row = 0
    for t in finals:
        assert t.row0 == row
        assert t.data.shape[1:] == expect.shape[1:]
        row += t.data.shape[0]
    assert row == expect.shape[0]
    assert b"".join(t.data.tobytes() for t in finals) == expect.tobytes()
    # previews (if any) are coarse, non-final, and shaped like their tile
    for t in tiles:
        if not t.final:
            assert t.level == 0 and np.isfinite(t.data).all()
    # every source kind yields the same tiles; reads are eager, so the
    # source may be closed before the first tile is taken
    with _source(case["source"], blob, src_dir) as src:
        from_source = eng.iter_roi_tiles(src, case["spec"])
    assert [(t.level, t.final, t.row0, t.data.tobytes()) for t in from_source] == [
        (t.level, t.final, t.row0, t.data.tobytes()) for t in tiles
    ]


# ---------------------------------------------------------------------------
# fixed legs: pools, concatenated containers
# ---------------------------------------------------------------------------

_POOL_LEGS = [
    pytest.param("thread", id="thread"),
    pytest.param("process", id="process", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("pool", _POOL_LEGS)
def test_roi_matches_across_pools_and_transports(pool, rotten_pair):
    data = _field((96, 48), seed=3)
    with Engine(jobs=2, pool=pool, **FAST) as engine:
        blob = engine.compress_chunked(data, EB, chunk_bytes=4096)
        full = engine.decompress_chunked(blob)
        for spec in ("0:16,0:48", "17:49,5:37", "80:96,47:48", "95:96"):
            got = engine.decompress_roi(blob, spec)
            expect = np.ascontiguousarray(full[resolve_slab(spec, full.shape).slices()])
            assert got.tobytes() == expect.tobytes()
        # salvage, streams and tiles ride the same staging site: every
        # leg matches an inline engine byte for byte
        _, rotten = rotten_pair
        payloads = [p for _, _, p in iter_segments(io.BytesIO(blob))]
        with Engine(jobs=1) as inline:
            for salvage in (
                lambda e: e.decompress_chunked(rotten, salvage=True),
                lambda e: e.decompress_roi(rotten, "16:80,3:29", salvage=True),
            ):
                (got, report), (expect, expect_report) = salvage(engine), salvage(inline)
                assert got.tobytes() == expect.tobytes()
                assert report.summary() == expect_report.summary()
                assert report.lost_segments == 1
            streamed = list(engine.decompress_stream(iter(payloads)))
            expect_streamed = list(inline.decompress_stream(iter(payloads)))
            assert [a.tobytes() for a in streamed] == [
                a.tobytes() for a in expect_streamed
            ]
            finals = [
                (t.row0, t.data.tobytes())
                for t in engine.iter_roi_tiles(blob, "10:90,2:40")
                if t.final
            ]
            assert finals == [
                (t.row0, t.data.tobytes())
                for t in inline.iter_roi_tiles(blob, "10:90,2:40")
                if t.final
            ]


def test_roi_over_concatenated_containers(eng):
    """Appended containers stitch along axis 0; ROI spans the seam."""
    a, b = _field((32, 16), seed=1), _field((48, 16), seed=2)
    blob = eng.compress_chunked(a, EB, chunk_bytes=1024) + eng.compress_chunked(
        b, EB, chunk_bytes=1024
    )
    full = eng.decompress_chunked(blob)
    assert full.shape == (80, 16)
    got = eng.decompress_roi(blob, "24:56,3:11")
    assert got.tobytes() == full[24:56, 3:11].tobytes()


def test_roi_mixed_plan_container(eng):
    """Const/interp/fast bands: FZCN fills, FZIN/FZGP decode, all sliced."""
    mixed = golden_mixed_field()
    blob = eng.compress_chunked(
        mixed, GOLDEN_EB, "abs", chunk_bytes=GOLDEN_CHUNK_BYTES, plan="auto"
    )
    (index,) = read_containers(io.BytesIO(blob))
    assert [e.plan for e in index.segments] == [2, 1, 0]
    full = eng.decompress_chunked(blob)
    got = eng.decompress_roi(blob, "10:42,6:34")
    assert got.tobytes() == full[10:42, 6:34].tobytes()


def test_progressive_tiles_coarse_to_fine_on_mixed_plans(eng):
    mixed = golden_mixed_field()
    blob = eng.compress_chunked(
        mixed, GOLDEN_EB, "abs", chunk_bytes=GOLDEN_CHUNK_BYTES, plan="auto"
    )
    tiles = list(eng.iter_roi_tiles(blob, "8:40,4:36"))
    # constant band: a single exact tile, no decode pass needed
    assert (tiles[0].level, tiles[0].final, tiles[0].row0) == (0, True, 0)
    # interp band: anchor-grid preview first, then the exact reconstruction
    assert (tiles[1].level, tiles[1].final) == (0, False)
    assert (tiles[2].level, tiles[2].final) == (1, True)
    assert tiles[1].row0 == tiles[2].row0 == 8
    assert tiles[1].data.shape == tiles[2].data.shape == (16, 32)
    # the preview approximates the band within the anchor-grid error
    assert np.isfinite(tiles[1].data).all()
    # fast band: straight to exact
    assert (tiles[3].level, tiles[3].final, tiles[3].row0) == (1, True, 24)
    assert len(tiles) == 4


# ---------------------------------------------------------------------------
# skip-proof: non-intersecting segments are never read, never decoded
# ---------------------------------------------------------------------------


def _counter(snap, name, labels=None):
    return sum(
        c[-1]
        for c in snap["metrics"]["counters"]
        if c[0] == name and (labels is None or dict(c[1]) == labels)
    )


def test_roi_skips_non_intersecting_segments_proven_by_telemetry(eng):
    data = _field((128, 32), seed=5)
    blob = eng.compress_chunked(data, EB, chunk_bytes=4096)  # 4 segments
    (index,) = read_containers(io.BytesIO(blob))
    assert len(index.segments) == 4
    rec = telemetry.get_recorder()
    telemetry.enable()
    rec.clear()
    try:
        got = eng.decompress_roi(blob, "64:96,0:32")  # exactly segment 2
        snap = rec.snapshot()
    finally:
        telemetry.disable()
        rec.clear()
    assert got.shape == (32, 32)
    assert _counter(snap, "roi.requests") == 1
    assert _counter(snap, "roi.chunks_skipped") == 3
    assert _counter(snap, "roi.chunks_decoded") == 1
    # the proof: only one segment's bytes ever left the file
    assert _counter(snap, "container.segments_read") == 1
    assert _counter(snap, "roi.bytes_out") == got.nbytes
    spans = [e.get("name") for e in snap["events"]]
    assert "engine.decompress_roi" in spans and "roi.plan" in spans
    # a full decode runs the same decode core but is not an ROI request
    telemetry.enable()
    try:
        eng.decompress_chunked(blob)
        snap = rec.snapshot()
    finally:
        telemetry.disable()
        rec.clear()
    assert _counter(snap, "roi.requests") == 0
    assert _counter(snap, "roi.chunks_skipped") == 0
    assert _counter(snap, "container.segments_read") == 4
    # each decode mode's span, attributes and counters, call by call
    seg_bytes = sum(e.seg_bytes for e in index.segments)
    roi_names = ("roi.requests", "roi.chunks_skipped", "roi.chunks_decoded",
                 "roi.bytes_out")

    def recorded(decode):
        telemetry.enable()
        rec.clear()
        try:
            decode()
            snap = rec.snapshot()
        finally:
            telemetry.disable()
            rec.clear()
        spans = {}
        for e in snap["events"]:
            if e.get("type") == "span":
                spans.setdefault(e["name"], []).append(e["attrs"])
        return spans, snap

    spans, snap = recorded(lambda: eng.decompress_roi(blob, "64:96,0:32"))
    assert spans["engine.decompress_roi"] == [
        {"n_segments": 4, "n_intersecting": 1, "bytes_out": 32 * 32 * 4}
    ]
    assert spans["roi.plan"] == [{"n_segments": 4, "n_intersecting": 1}]
    assert "engine.decompress_file" not in spans and "engine.salvage" not in spans
    assert [_counter(snap, n) for n in roi_names] == [1, 3, 1, 32 * 32 * 4]

    spans, snap = recorded(lambda: eng.decompress_chunked(blob))
    assert spans["engine.decompress_file"] == [
        {"n_chunks": 4, "bytes_in": seg_bytes, "bytes_out": data.nbytes}
    ]
    assert "engine.decompress_roi" not in spans and "roi.plan" not in spans
    assert "engine.salvage" not in spans
    assert [_counter(snap, n) for n in roi_names] == [0, 0, 0, 0]
    assert _counter(snap, "engine.salvage") == 0

    spans, snap = recorded(lambda: eng.decompress_chunked(blob, salvage=True))
    assert spans["engine.salvage"] == [
        {"resynced": False, "recovered_bytes": data.nbytes, "lost_bytes": 0}
    ]
    assert "engine.decompress_file" not in spans and "roi.plan" not in spans
    assert [_counter(snap, n) for n in roi_names] == [0, 0, 0, 0]
    assert _counter(snap, "engine.salvage") == 1
    assert _counter(snap, "engine.salvage_segments", {"status": "recovered"}) == 4
    assert _counter(
        snap, "engine.salvage_bytes", {"status": "recovered"}
    ) == data.nbytes

    # an unreadable index trailer re-syncs, and the span says why
    spans, snap = recorded(lambda: eng.decompress_chunked(blob[:-1], salvage=True))
    (attrs,) = spans["engine.salvage"]
    assert attrs["resynced"] is True and attrs["index_error"]
    assert attrs["recovered_bytes"] == data.nbytes and attrs["lost_bytes"] == 0
    assert _counter(snap, "engine.salvage") == 1

    spans, snap = recorded(
        lambda: eng.decompress_roi(blob, "64:96,0:32", salvage=True)
    )
    assert spans["engine.decompress_roi"] == [
        {"n_segments": 4, "n_intersecting": 1, "bytes_out": 32 * 32 * 4}
    ]
    assert "engine.salvage" not in spans
    assert [_counter(snap, n) for n in roi_names] == [1, 3, 1, 32 * 32 * 4]
    assert _counter(snap, "engine.salvage") == 0


def test_progressive_tiles_emit_leveled_counters(eng):
    mixed = golden_mixed_field()
    blob = eng.compress_chunked(
        mixed, GOLDEN_EB, "abs", chunk_bytes=GOLDEN_CHUNK_BYTES, plan="auto"
    )
    rec = telemetry.get_recorder()
    telemetry.enable()
    rec.clear()
    try:
        tiles = list(eng.iter_roi_tiles(blob, ":"))
        snap = rec.snapshot()
    finally:
        telemetry.disable()
        rec.clear()
    assert len(tiles) == 4
    finals = _counter(snap, "roi.tiles", {"final": "true", "level": "0"}) + _counter(
        snap, "roi.tiles", {"final": "true", "level": "1"}
    )
    previews = _counter(snap, "roi.tiles", {"final": "false", "level": "0"})
    assert finals == 3 and previews == 1


@pytest.mark.parametrize("slab", [":", "5:37,3:31"])
def test_progressive_tiles_count_roi_bytes_out(eng, slab):
    """Consumed tiles count the same ``roi.bytes_out`` as ``decompress_roi``.

    Only final tiles count: the interp segment's preview is not output.
    """
    mixed = golden_mixed_field()
    blob = eng.compress_chunked(
        mixed, GOLDEN_EB, "abs", chunk_bytes=GOLDEN_CHUNK_BYTES, plan="auto"
    )
    rec = telemetry.get_recorder()
    counted = []
    for read in (
        lambda: eng.decompress_roi(blob, slab).nbytes,
        lambda: sum(t.data.nbytes for t in eng.iter_roi_tiles(blob, slab) if t.final),
    ):
        telemetry.enable()
        rec.clear()
        try:
            nbytes = read()
            counted.append((_counter(rec.snapshot(), "roi.bytes_out"), nbytes))
        finally:
            telemetry.disable()
            rec.clear()
    (roi_count, roi_bytes), (tile_count, tile_bytes) = counted
    assert roi_count == roi_bytes == tile_bytes == tile_count > 0


# ---------------------------------------------------------------------------
# crafted-index fuzzing: forged indexes fail typed, never garble
# ---------------------------------------------------------------------------

_FOOTER = struct.Struct(fzmc._FOOTER_FMT)
_ENTRY = struct.Struct(fzmc._INDEX_ENTRY_FMT)


def _reforge_index(blob: bytes, mutate) -> bytes:
    """Mutate the index trailer, then *re-sign* the CRC and footer.

    This models an adversarial (or buggy) writer, not bit rot: the framing
    stays self-consistent so only the semantic validators can object.
    """
    index_bytes, _crc, end_magic = _FOOTER.unpack(blob[-_FOOTER.size :])
    body = bytearray(blob[-_FOOTER.size - index_bytes : -_FOOTER.size])
    mutate(body)
    return (
        blob[: -_FOOTER.size - index_bytes]
        + bytes(body)
        + _FOOTER.pack(
            index_bytes, zlib.crc32(bytes(body)) & 0xFFFFFFFF, end_magic
        )
    )


def _entry_off(i: int, field: int) -> int:
    # entry fields: 0 offset, 1 seg_bytes, 2 extent, 3 plan
    return fzmc._INDEX_META_BYTES + _ENTRY.size * i + 8 * field


def _poke_u64(body: bytearray, off: int, value: int) -> None:
    body[off : off + 8] = struct.pack("<Q", value)


def _peek_u64(body: bytes, off: int) -> int:
    return struct.unpack_from("<Q", body, off)[0]


@pytest.fixture(scope="module")
def two_segment_blob(eng):
    data = _field((40, 8), seed=9)
    blob = eng.compress_chunked(data, EB, chunk_bytes=1024)  # extents [32, 8]
    (index,) = read_containers(io.BytesIO(blob))
    assert [e.extent for e in index.segments] == [32, 8]
    return blob


def test_forged_extent_sum_is_a_format_error(eng, two_segment_blob):
    forged = _reforge_index(
        two_segment_blob,
        lambda b: _poke_u64(b, _entry_off(0, 2), 33),
    )
    with pytest.raises(FormatError, match="extents sum"):
        eng.decompress_roi(forged, "0:8")


def test_swapped_extents_fail_shape_check_not_garbage(eng, two_segment_blob):
    """Extent sum preserved -> the index validates; decode must still balk."""

    def swap(b):
        e0, e1 = _peek_u64(b, _entry_off(0, 2)), _peek_u64(b, _entry_off(1, 2))
        _poke_u64(b, _entry_off(0, 2), e1)
        _poke_u64(b, _entry_off(1, 2), e0)

    forged = _reforge_index(two_segment_blob, swap)
    with pytest.raises(DecompressionError):
        eng.decompress_roi(forged, "0:4")


def test_forged_plan_id_is_a_format_error(eng, two_segment_blob):
    forged = _reforge_index(
        two_segment_blob,
        lambda b: _poke_u64(b, _entry_off(0, 3), 7),
    )
    with pytest.raises(FormatError, match="plan"):
        eng.decompress_roi(forged, "0:8")


def test_forged_offset_is_a_format_error(eng, two_segment_blob):
    forged = _reforge_index(
        two_segment_blob,
        lambda b: _poke_u64(b, _entry_off(1, 0), 12345),
    )
    with pytest.raises(FormatError, match="offset"):
        eng.decompress_roi(forged, "32:40")


def test_every_roi_failure_is_a_typed_repro_error(eng, two_segment_blob):
    """No bare ValueError/struct.error ever escapes the ROI surface."""
    bad_inputs = [
        (two_segment_blob, "40:50"),  # out of range
        (two_segment_blob, "0:2,0:2,0:2"),  # too many axes
        (two_segment_blob, "junk"),  # unparseable
        (two_segment_blob[:100], "0:8"),  # truncated container
        (b"FZMC0003" + two_segment_blob[8:][::-1], "0:8"),  # scrambled
    ]
    for blob, spec in bad_inputs:
        with pytest.raises(ReproError):
            eng.decompress_roi(blob, spec)


def test_axis1_split_container_is_a_typed_error_on_every_decode(eng):
    """No engine call writes split_axis=1; every decode must refuse it typed."""
    data = _field((32, 16), seed=21)
    buf = io.BytesIO()
    writer = fzmc.ContainerWriter(buf, data.shape, EB, split_axis=1)
    for a in (0, 8):
        writer.add_segment(FZGPU().compress(data[:, a : a + 8], EB, "abs").stream, 8)
    writer.finish()
    blob = buf.getvalue()
    for decode in (
        lambda: eng.decompress_chunked(blob),
        lambda: eng.decompress_chunked(blob, salvage=True),
        lambda: eng.decompress_roi(blob, "0:8"),
    ):
        with pytest.raises(ReproError):
            decode()


# ---------------------------------------------------------------------------
# satellite: 1-element trailing chunks and 1-D containers
# ---------------------------------------------------------------------------


def test_plan_chunks_one_element_trailing_chunk():
    assert plan_chunks((17,), 16, 64) == [(0, 16), (16, 17)]
    assert plan_chunks((33, 4), 16, 256) == [(0, 16), (16, 32), (32, 33)]


def test_roi_on_one_element_trailing_chunk(eng):
    """1-D Lorenzo alignment is 256 rows: 513 leaves a 1-element tail chunk."""
    data = _field((513,), seed=11)
    blob = eng.compress_chunked(data, EB, chunk_bytes=64)
    (index,) = read_containers(io.BytesIO(blob))
    assert [e.extent for e in index.segments] == [256, 256, 1]
    full = eng.decompress_chunked(blob)
    for spec in ("512:513", "511:513", "255:257", "0:513"):
        got = eng.decompress_roi(blob, spec)
        assert got.tobytes() == full[resolve_slab(spec, (513,)).slices()].tobytes()


def test_roi_on_single_element_container(eng):
    blob = eng.compress_chunked(np.asarray([4.25], np.float32), EB)
    got = eng.decompress_roi(blob, "0:1")
    assert got.shape == (1,) and got.tobytes() == eng.decompress_chunked(blob).tobytes()


def test_index_bounds_survive_1d_roundtrip_through_plan(eng):
    data = _field((100,), seed=13)
    blob = eng.compress_chunked(data, EB, chunk_bytes=128)
    (index,) = read_containers(io.BytesIO(blob))
    plan = plan_roi([index], "97:100")
    assert plan.n_segments == len(index.segments)
    assert sum(t.rows for t in plan.tasks) == 3
    assert plan.n_skipped == plan.n_segments - len(plan.tasks)


# ---------------------------------------------------------------------------
# satellite: salvage x ROI
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rotten_pair(eng):
    """(clean container, same container with bit rot in segment 1, field)."""
    data = _field((96, 32), seed=7)
    clean = eng.compress_chunked(data, EB, chunk_bytes=4096)  # 3 x 32 rows
    with faults.installed(faults.FaultPlan.parse("segment_corrupt:at=1,seed=5")):
        rotten = eng.compress_chunked(data, EB, chunk_bytes=4096)
    assert clean != rotten and len(clean) == len(rotten)
    return clean, rotten


def test_rot_outside_the_slab_is_invisible(eng, rotten_pair):
    clean, rotten = rotten_pair
    full = eng.decompress_chunked(clean)
    # strict decode of the rotten container succeeds when the slab misses
    # the rotten segment entirely -- and is byte-identical to the clean read
    got = eng.decompress_roi(rotten, "0:32,4:28")
    assert got.tobytes() == full[0:32, 4:28].tobytes()
    got = eng.decompress_roi(rotten, "64:96")
    assert got.tobytes() == full[64:96].tobytes()


def test_rot_inside_the_slab_raises_typed_then_salvages(eng, rotten_pair, src_dir):
    clean, rotten = rotten_pair
    full = eng.decompress_chunked(clean)
    with pytest.raises(FormatError, match="CRC"):
        eng.decompress_roi(rotten, "16:48,0:32")
    out, report = eng.decompress_roi(rotten, "16:48,0:32", salvage=True)
    # rows from the intact segment are exact; rotten rows are NaN, exactly
    assert out.shape == (32, 32)
    assert out[:16].tobytes() == full[16:32, 0:32].tobytes()
    assert np.isnan(out[16:]).all()
    # the report accounts for every ROI byte
    assert report.total_bytes == out.nbytes
    assert report.recovered_bytes + report.lost_bytes == report.total_bytes
    assert report.lost_bytes == 16 * 32 * 4
    lost = [s for s in report.segments if s.status != "recovered"]
    assert [s.ordinal for s in lost] == [1]
    assert not report.complete
    # every source kind: strict raises typed, slab and full salvage match
    # the old names byte for byte
    for kind in SOURCES:
        for slab in ("16:48,0:32", None):
            with _source(kind, rotten, src_dir) as src:
                with pytest.raises(FormatError, match="CRC"):
                    eng.decompress(src, slab=slab)
            new, old = _both_entries(eng, kind, rotten, src_dir, slab, True)
            _assert_same_decode(new, old)
        new, _ = _both_entries(eng, kind, rotten, src_dir, "16:48,0:32", True)
        assert new[0].tobytes() == out.tobytes() and new[1] == report


def test_salvage_roi_on_clean_data_is_complete(eng, rotten_pair):
    clean, _ = rotten_pair
    full = eng.decompress_chunked(clean)
    out, report = eng.decompress_roi(clean, "30:70,1:31", salvage=True)
    assert report.complete and report.lost_bytes == 0
    assert out.tobytes() == full[30:70, 1:31].tobytes()


# ---------------------------------------------------------------------------
# the HTTP surface: /v1/decompress?slab=...
# ---------------------------------------------------------------------------


def test_http_slab_decode_is_byte_identical(eng):
    data = _field((64, 40), seed=17)
    blob = eng.compress_chunked(data, EB, chunk_bytes=2048)
    full = eng.decompress_chunked(blob)
    with live_server(jobs=2, pool="thread", **FAST) as (srv, app, engine):
        status, headers, body = request(
            srv.address, "POST", "/v1/decompress?slab=10:50,4:28", blob
        )
    assert status == 200
    assert headers["x-repro-shape"] == "40,24"
    assert headers["x-repro-slab"] == "10:50,4:28"
    assert body == full[10:50, 4:28].tobytes()


@pytest.mark.parametrize(
    "slab", ["10:5", "0:100", "0:2,0:2,0:2", "nope"]
)
def test_http_bad_slab_is_a_typed_400(eng, slab):
    data = _field((64, 40), seed=17)
    blob = eng.compress_chunked(data, EB, chunk_bytes=2048)
    with live_server(jobs=2, pool="thread", **FAST) as (srv, app, engine):
        status, _, body = request(
            srv.address, "POST", f"/v1/decompress?slab={slab}", blob
        )
    assert status == 400
    assert json.loads(body)["error"] == "ConfigError"


def test_http_slab_streams_progressively(eng):
    """Tiles flush per segment: the reply is chunked, not one buffer."""
    mixed = golden_mixed_field()
    blob = eng.compress_chunked(
        mixed, GOLDEN_EB, "abs", chunk_bytes=GOLDEN_CHUNK_BYTES, plan="auto"
    )
    full = eng.decompress_chunked(blob)
    with live_server(jobs=2, pool="thread", **FAST) as (srv, app, engine):
        status, headers, body = request(
            srv.address, "POST", "/v1/decompress?slab=:,0:40", blob
        )
    assert status == 200
    assert headers.get("transfer-encoding") == "chunked"
    assert body == full.tobytes()


@pytest.mark.slow
def test_http_slab_over_process_pool_shm(eng):
    from repro.utils.pool import shm_available

    if not shm_available():
        pytest.skip("POSIX shared memory unavailable")
    data = _field((96, 32), seed=19)
    blob = eng.compress_chunked(data, EB, chunk_bytes=4096)
    full = eng.decompress_chunked(blob)
    with live_server(jobs=2, pool="process", **FAST) as (srv, app, engine):
        status, _, body = request(
            srv.address, "POST", "/v1/decompress?slab=40:72,8:24", blob
        )
    assert status == 200
    assert body == full[40:72, 8:24].tobytes()
