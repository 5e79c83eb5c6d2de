"""Plan-aware compression entry points.

:func:`compress_with_plan` is the planner's front door: it probes a chunk
(when the request plan calls for it), routes it through
:func:`repro.planner.plans.decide`, and dispatches to the fused fast path,
the interpolation predictor, or the constant shortcut.  A ``"fast"``
request bypasses the probe entirely and is *byte-identical* to calling
the codec directly — the legacy pipeline is untouched unless asked.

:func:`decompress_any` is the matching decoder: it sniffs the stream
magic (``FZGP`` / ``FZIN`` / ``FZCN``) and dispatches, so decompression
never re-probes and mixed-plan containers need no side channel beyond the
per-segment plan ids recorded in the v3 index.
"""

from __future__ import annotations

import numpy as np

import math

from repro import telemetry
from repro.core.format import HEADER_BYTES, MAX_ELEMENTS, StreamHeader
from repro.core.format import MAGIC as FAST_MAGIC
from repro.core.pipeline import FZGPU, CompressionResult, resolve_error_bound
from repro.errors import FormatError
from repro.planner.constant import (
    CONSTANT_MAGIC,
    constant_compress,
    constant_decompress,
    constant_peek_shape,
)
from repro.planner.interp import (
    INTERP_MAGIC,
    interp_compress,
    interp_decompress,
    interp_peek_shape,
)
from repro.planner.plans import (
    PLAN_CONST,
    PLAN_INTERP,
    PlanPolicy,
    normalize_plan,
    plan_name,
)
from repro.planner.plans import decide as _decide
from repro.planner.probe import probe_chunk

__all__ = ["compress_with_plan", "decompress_any", "peek_shape"]


def compress_with_plan(
    data: np.ndarray,
    eb: float,
    mode: str = "rel",
    *,
    plan: str | None = None,
    codec: FZGPU | None = None,
    scratch=None,
    policy: PlanPolicy | None = None,
) -> CompressionResult:
    """Compress one chunk under a request plan.

    ``plan`` is a request plan (:data:`repro.planner.plans.REQUEST_PLANS`;
    ``None`` means ``"fast"``).  The returned
    :class:`~repro.core.pipeline.CompressionResult` carries the segment
    plan actually chosen in ``.plan``.  ``codec`` (default ``FZGPU()``)
    and ``scratch`` configure the fused path exactly as
    :meth:`repro.core.pipeline.FZGPU.compress` does.
    """
    plan = normalize_plan(plan)
    codec = FZGPU() if codec is None else codec
    if plan == "fast":
        # The legacy path: no probe, no planner spans, byte-identical
        # output to a planner-unaware build.
        return codec.compress(data, eb, mode, scratch=scratch)
    with telemetry.span("planner.compress") as root:
        eb_abs = resolve_error_bound(np.asarray(data), eb, mode)
        with telemetry.span("planner.probe"):
            probe = probe_chunk(data, eb_abs)
        chosen = _decide(probe, plan, policy)
        if chosen == PLAN_CONST:
            result = constant_compress(data, eb_abs)
        elif chosen == PLAN_INTERP:
            result = interp_compress(data, eb_abs, scratch=scratch)
        else:
            result = codec.compress(data, eb_abs, "abs", scratch=scratch)
        root.set("plan", result.plan)
        root.set("request", plan)
        root.set("bytes_in", result.original_bytes)
        root.set("bytes_out", result.compressed_bytes)
    if telemetry.enabled():
        telemetry.counter("planner.compress_calls")
        telemetry.counter(f"planner.plan.{result.plan}")
    return result


def decompress_any(
    stream: bytes | bytearray | memoryview,
    *,
    codec: FZGPU | None = None,
    scratch=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reconstruct a field from any plan's stream by sniffing its magic.

    ``codec`` (default ``FZGPU()``) decodes ``FZGP`` streams.  ``out``, a
    writable C-contiguous float32 array of the stream's shape (else
    :class:`~repro.errors.ConfigError`), receives the field and is returned.
    """
    buf = bytes(stream)
    magic = buf[:4]
    if magic == FAST_MAGIC:
        return (FZGPU() if codec is None else codec).decompress(
            buf, scratch=scratch, out=out
        )
    if magic == INTERP_MAGIC:
        with telemetry.span("planner.decompress") as root:
            out = interp_decompress(buf, scratch=scratch, out=out)
            root.set("plan", plan_name(PLAN_INTERP))
            root.set("bytes_in", len(buf))
            root.set("bytes_out", int(out.nbytes))
        return out
    if magic == CONSTANT_MAGIC:
        with telemetry.span("planner.decompress") as root:
            out = constant_decompress(buf, out=out)
            root.set("plan", plan_name(PLAN_CONST))
            root.set("bytes_in", len(buf))
            root.set("bytes_out", int(out.nbytes))
        return out
    raise FormatError(
        f"unknown stream magic {magic!r}; expected one of "
        f"{FAST_MAGIC!r}/{INTERP_MAGIC!r}/{CONSTANT_MAGIC!r}"
    )


def peek_shape(stream: bytes | bytearray | memoryview) -> tuple[int, ...]:
    """Reconstruction shape declared by any plan's stream header.

    Header-only by design: ``FZGP``/``FZIN`` headers are cross-validated
    but their payload CRC is *not* checked (``FZCN`` streams are 52 bytes,
    so full validation is free).  The decode path still runs the complete
    hardening ladder — this exists so transports can pre-size output
    buffers without decoding.  Raises :class:`FormatError` when the header
    cannot be parsed or declares an impossible element count.
    """
    magic = bytes(stream[:4])
    if magic == FAST_MAGIC:
        header = StreamHeader.unpack(bytes(stream[:HEADER_BYTES]))
        shape = tuple(int(d) for d in header.shape)
        if any(d <= 0 for d in shape) or math.prod(shape) > MAX_ELEMENTS:
            raise FormatError(f"implausible shape {shape} in stream header")
        return shape
    if magic == INTERP_MAGIC:
        return interp_peek_shape(stream)
    if magic == CONSTANT_MAGIC:
        return constant_peek_shape(stream)
    raise FormatError(
        f"unknown stream magic {magic!r}; expected one of "
        f"{FAST_MAGIC!r}/{INTERP_MAGIC!r}/{CONSTANT_MAGIC!r}"
    )
