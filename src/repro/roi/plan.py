"""Segment-intersection planning for region-of-interest container decode.

The ``FZMC`` container splits a field into segments along axis 0 on
Lorenzo-aligned boundaries and records each segment's row extent in the
end-anchored index.  An ROI request therefore reduces to interval
intersection along axis 0: a segment whose ``[row, row + extent)`` span
misses the slab is **skipped** — never read from the file, never CRC'd,
never decoded — and an intersecting segment contributes exactly the rows
``[max(row, a), min(row + extent, b))``, sliced out of its decoded chunk
together with the slab's trailing-axis bounds.

Halo handling: the interpolation (``FZIN``) and Lorenzo (``FZGP``)
predictors both need the *whole* chunk reconstructed before any row of it
is exact — prediction contexts reach across rows inside a chunk — so the
unit of partial decode is the segment, and the slab is applied as a view
afterwards.  Chunk boundaries themselves need no halo exchange: segments
are compressed independently (that is what makes the container seekable),
so the reconstruction of chunk *k* never depends on chunk *k±1*.

The planner trusts nothing it has not checked: indexes are re-validated
(extent sums, axis-0 split, consistent trailing dims across concatenated
containers) before any slab math, and every inconsistency raises the typed
:class:`~repro.errors.FormatError` the crafted-index fuzz tests expect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError
from repro.roi.slab import Slab, resolve_slab

__all__ = ["RoiTask", "RoiPlan", "RoiTile", "plan_roi"]


@dataclass(frozen=True)
class RoiTask:
    """One intersecting segment and where its rows land in the ROI output."""

    ordinal: int  #: global segment ordinal across concatenated containers
    seg_ordinal: int  #: ordinal within its own container (segment header value)
    container_start: int  #: absolute byte offset of the owning container
    entry: object  #: the :class:`~repro.engine.container.SegmentEntry`
    chunk_shape: tuple[int, ...]  #: declared decoded shape ``(extent,) + tail``
    local: tuple[slice, ...]  #: hyperslab within the decoded chunk
    out_row0: int  #: first output row this task writes
    rows: int  #: intersecting rows along axis 0

    @property
    def tile_shape(self) -> tuple[int, ...]:
        """Shape of the output tile this task produces."""
        return (self.rows,) + tuple(
            s.stop - s.start for s in self.local[1:]
        )

    @property
    def tile_bytes(self) -> int:
        return 4 * int(math.prod(self.tile_shape))


@dataclass(frozen=True)
class RoiPlan:
    """Resolved ROI read: which segments to touch and where rows scatter."""

    shape: tuple[int, ...]  #: full stitched field shape
    slab: Slab  #: resolved request
    tasks: tuple[RoiTask, ...]  #: intersecting segments, file order
    n_segments: int  #: total segments across every container

    @property
    def out_shape(self) -> tuple[int, ...]:
        return self.slab.shape

    @property
    def n_skipped(self) -> int:
        return self.n_segments - len(self.tasks)


@dataclass(frozen=True)
class RoiTile:
    """One tile of a progressive ROI decode.

    Tiles arrive coarse-to-fine per segment: an interp segment first yields
    its ``level=0`` anchor-grid preview (``final=False``), then the exact
    ``level=1`` reconstruction.  Concatenating the *final* tiles in arrival
    order along axis 0 reproduces the slab ``decompress`` byte-identically.
    """

    level: int  #: 0 = coarse (anchor preview / constant fill), 1 = exact
    final: bool  #: True when this tile's bytes are the exact reconstruction
    row0: int  #: first ROI-output row this tile covers
    data: np.ndarray  #: float32 tile of shape ``(rows,) + slab tail dims``


def plan_roi(indexes, slab_spec) -> RoiPlan:
    """Intersect a slab request with the segment grid of ``indexes``.

    ``indexes`` is the :func:`~repro.engine.container.read_containers`
    result (concatenated containers stitch along axis 0, as in the full
    decode path); ``slab_spec`` is anything :func:`~repro.roi.resolve_slab`
    accepts.  Index inconsistencies raise
    :class:`~repro.errors.FormatError`; bad slabs raise
    :class:`~repro.errors.ConfigError`.
    """
    if not indexes:
        raise FormatError("no container indexes to plan an ROI read over")
    tail = tuple(indexes[0].shape[1:])
    for idx in indexes:
        if tuple(idx.shape[1:]) != tail:
            raise FormatError(
                f"concatenated containers disagree on trailing dims: "
                f"{tuple(idx.shape[1:])} vs {tail}"
            )
        if idx.split_axis != 0:
            raise FormatError(
                f"ROI planning requires axis-0 split containers, got "
                f"split_axis={idx.split_axis}"
            )
    total_rows = sum(idx.shape[0] for idx in indexes)
    shape = (total_rows,) + tail
    slab = resolve_slab(slab_spec, shape)
    a0, b0 = slab.start[0], slab.stop[0]
    tail_slices = slab.slices()[1:]
    tasks: list[RoiTask] = []
    n_segments = 0
    row = 0
    container_start = 0
    for idx in indexes:
        for seg_ordinal, entry in enumerate(idx.segments):
            lo = max(row, a0)
            hi = min(row + entry.extent, b0)
            if lo < hi:
                tasks.append(
                    RoiTask(
                        ordinal=n_segments,
                        seg_ordinal=seg_ordinal,
                        container_start=container_start,
                        entry=entry,
                        chunk_shape=(entry.extent,) + tail,
                        local=(slice(lo - row, hi - row),) + tail_slices,
                        out_row0=lo - a0,
                        rows=hi - lo,
                    )
                )
            n_segments += 1
            row += entry.extent
        container_start += idx.container_bytes
    return RoiPlan(
        shape=shape, slab=slab, tasks=tuple(tasks), n_segments=n_segments
    )
