"""Batch/streaming execution engine (worker pools, buffer pooling, containers).

Public surface:

* :class:`~repro.engine.executor.Engine` — batch + streaming front-end to
  the FZ-GPU codec (``compress_batch``, ``decompress_batch``,
  ``compress_file``), with bounded-retry fault tolerance.  One container
  decode entry, ``decompress(source, *, slab=None, salvage=False)``, takes
  bytes, a file object or a path, and covers full, ROI and salvage decodes
  (see ``docs/RELIABILITY.md``).
* :mod:`repro.engine.container` — the segmented multi-chunk ``.fz``
  container format (``FZMC0002``) plus the salvage primitives
  (:func:`~repro.engine.container.resync_segments`,
  :class:`~repro.engine.container.SalvageReport`).
* ROI / progressive decode — ``Engine.decompress(source, slab=...)`` /
  ``Engine.iter_roi_tiles`` decode only the container segments whose row
  span intersects a requested hyperslab (see :mod:`repro.roi`, re-exported
  here as :class:`~repro.roi.Slab` / :func:`~repro.roi.plan_roi` /
  :class:`~repro.roi.RoiTile`).
"""

from repro.engine.container import (
    CONTAINER_MAGIC,
    ContainerIndex,
    ContainerWriter,
    SalvageReport,
    SegmentEntry,
    SegmentHit,
    SegmentOutcome,
    iter_segments,
    looks_like_container,
    read_containers,
    resync_segments,
)
from repro.engine.executor import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_RETRIES,
    MAX_BACKOFF_S,
    Engine,
    FileReport,
    TaskFailure,
    plan_chunks,
)
from repro.roi import RoiPlan, RoiTile, Slab, plan_roi, resolve_slab

__all__ = [
    "Engine",
    "FileReport",
    "TaskFailure",
    "plan_chunks",
    "RoiPlan",
    "RoiTile",
    "Slab",
    "plan_roi",
    "resolve_slab",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_RETRIES",
    "MAX_BACKOFF_S",
    "CONTAINER_MAGIC",
    "ContainerIndex",
    "ContainerWriter",
    "SalvageReport",
    "SegmentEntry",
    "SegmentHit",
    "SegmentOutcome",
    "iter_segments",
    "looks_like_container",
    "read_containers",
    "resync_segments",
]
