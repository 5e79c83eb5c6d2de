"""Region-of-interest / progressive decode over the seekable container index.

The ``FZMC`` container's end-anchored index records every segment's byte
extent and row span, which makes partial reads an index walk instead of a
full-file decode: :func:`plan_roi` intersects a hyperslab request
(:class:`Slab`) with the recorded chunk grid, and the engine's
``decompress(source, slab=...)`` / ``iter_roi_tiles`` entry points then
read, CRC-check and decode **only the intersecting segments** —
non-intersecting segments are never touched (the ``roi.chunks_skipped``
counter and the container's ``container.segments_read`` counter prove it).

Consumption surfaces:

* :meth:`repro.engine.Engine.decompress` with ``slab=`` — one slab-shaped
  array, byte-identical to the same numpy slice of a full decode (the
  differential slicing oracle in ``tests/test_roi.py`` pins this across
  backends, pools, transports and HTTP).
* :meth:`repro.engine.Engine.iter_roi_tiles` — a progressive iterator
  yielding coarse-to-fine :class:`RoiTile` s: constant segments resolve
  instantly from their 52-byte header, interp segments yield an
  anchor-grid preview before the exact reconstruction, fast segments
  yield one exact tile.
* ``POST /v1/decompress?slab=...`` (:mod:`repro.serve`) and
  ``repro decompress --roi`` (CLI) expose the same planning path.
"""

from repro.roi.plan import RoiPlan, RoiTask, RoiTile, plan_roi
from repro.roi.slab import Slab, parse_slab, resolve_slab

__all__ = [
    "Slab",
    "parse_slab",
    "resolve_slab",
    "RoiPlan",
    "RoiTask",
    "RoiTile",
    "plan_roi",
]
