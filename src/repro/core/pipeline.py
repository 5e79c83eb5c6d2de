"""FZ-GPU compressor facade: dual-quantization -> bitshuffle -> zero-block encode.

This is the end-to-end pipeline of Fig. 1.  :class:`FZGPU` produces a real
compressed byte stream (see :mod:`repro.core.format`) and reconstructs data
within the requested error bound; :class:`CompressionResult` carries per-stage
statistics used by the tests, the benchmarks and the GPU performance model.

Example
-------
>>> import numpy as np
>>> from repro.core import FZGPU
>>> rng = np.random.default_rng(0)
>>> field = np.cumsum(rng.standard_normal((64, 64)).astype(np.float32), axis=0)
>>> codec = FZGPU()
>>> result = codec.compress(field, eb=1e-3, mode="rel")
>>> recon = codec.decompress(result.stream)
>>> bound = 1e-3 * (field.max() - field.min())
>>> bool(np.all(np.abs(recon - field) <= bound + 1e-6))
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro import telemetry
from repro.core.format import StreamHeader, pack_stream, unpack_stream
from repro.core.quantize import QuantizerStats
from repro.errors import ConfigError, DecompressionError, UnsupportedDataError
from repro.utils.chunking import chunk_shape_for
from repro.utils.validation import (
    check_finite,
    check_out,
    ensure_float32,
    ensure_ndim,
    ensure_positive,
)


def _resolve_backend(selected):
    # deferred: repro.backends pulls in the core kernel modules, which would
    # cycle with this module during ``repro.core`` package initialization
    from repro.backends import resolve_backend

    return resolve_backend(selected)

__all__ = [
    "FZGPU",
    "CompressionResult",
    "compress",
    "decompress",
    "resolve_error_bound",
    "resolve_error_bound_range",
]


def resolve_error_bound_range(lo: float, hi: float, eb: float, mode: str) -> float:
    """Convert a user error bound to an absolute bound, given the value range.

    The range-based variant of :func:`resolve_error_bound` for callers that
    already know ``min``/``max`` — the streaming engine computes them in a
    bounded-memory pass over a memory-mapped file and must resolve the
    *global* bound before compressing chunks independently, so every chunk
    header carries the same absolute bound the single-shot path would use.
    """
    eb = ensure_positive(eb, "eb")
    if mode == "abs":
        return eb
    if mode == "rel":
        if not (math.isfinite(lo) and math.isfinite(hi)):
            # NaN/inf extrema would propagate into the absolute bound and
            # quantize the whole field to garbage without any error
            raise UnsupportedDataError(
                f"rel mode needs finite data extrema, got [{lo}, {hi}]"
            )
        value_range = hi - lo
        if value_range == 0.0:
            value_range = abs(hi) if hi != 0 else 1.0
        return eb * value_range
    raise ConfigError(f"mode must be 'abs' or 'rel', got {mode!r}")


def resolve_error_bound(data: np.ndarray, eb: float, mode: str) -> float:
    """Convert a user error bound to an absolute bound.

    ``mode="abs"`` uses ``eb`` directly; ``mode="rel"`` scales by the field's
    value range (the paper's "range-based relative error bound").  A constant
    field has zero range; we fall back to ``|value|`` or 1 so compression still
    proceeds.  Non-finite extrema in rel mode raise
    :class:`~repro.errors.UnsupportedDataError` naming the count of NaN/Inf
    values, the same error the compressors' own finiteness checks raise.
    """
    eb = ensure_positive(eb, "eb")
    if mode == "abs":
        return eb
    lo, hi = float(np.min(data)), float(np.max(data))
    if mode == "rel" and not (math.isfinite(lo) and math.isfinite(hi)):
        check_finite(data)
    return resolve_error_bound_range(lo, hi, eb, mode)


@dataclass(frozen=True)
class CompressionResult:
    """Everything the compressor knows about one compression run.

    Attributes
    ----------
    stream:
        The complete compressed byte stream.
    original_bytes / compressed_bytes:
        Sizes used for the compression ratio.
    eb_abs:
        The absolute error bound actually applied.
    quantizer:
        Saturation / residual statistics from the lossy stage.
    n_blocks / n_nonzero_blocks:
        Zero-block encoder statistics (drive the GPU performance model).
    plan:
        Segment plan that produced ``stream`` (``"fast"`` for the fused
        pipeline; ``"interp"``/``"constant"`` from :mod:`repro.planner`).
    """

    stream: bytes
    original_bytes: int
    compressed_bytes: int
    eb_abs: float
    quantizer: QuantizerStats
    n_blocks: int
    n_nonzero_blocks: int
    stage_sizes: dict = dataclass_field(default_factory=dict)
    plan: str = "fast"

    @property
    def ratio(self) -> float:
        """Compression ratio (original / compressed; inf for an empty stream)."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes

    @property
    def bitrate(self) -> float:
        """Average bits per value after compression (32 / ratio for f32)."""
        return 32.0 / self.ratio

    @property
    def zero_block_fraction(self) -> float:
        """Fraction of 16-byte blocks elided by the encoder."""
        return 1.0 - self.n_nonzero_blocks / self.n_blocks if self.n_blocks else 0.0


class FZGPU:
    """The FZ-GPU error-bounded lossy compressor.

    Parameters
    ----------
    chunk:
        Optional chunk-shape override for the dual-quantization stage
        (defaults to cuSZ geometry: 256 / 16x16 / 8x8x8).
    backend:
        Kernel backend selection: a registered name (``"fused"``,
        ``"reference"``), a :class:`~repro.backends.KernelBackend`
        instance, or ``None``/``"auto"`` for ``fused``, the production
        codec.  All backends produce byte-identical streams; ``reference``
        is the oracle the others are tested against.
    """

    name = "FZ-GPU"

    def __init__(
        self,
        chunk: tuple[int, ...] | None = None,
        backend=None,
    ):
        self._chunk = chunk
        self._backend = backend

    def compress(
        self,
        data: np.ndarray,
        eb: float,
        mode: str = "rel",
        scratch=None,
    ) -> CompressionResult:
        """Compress ``data`` under error bound ``eb``.

        Parameters
        ----------
        data:
            1-3 dimensional float field.
        eb:
            Error bound; interpreted per ``mode``.
        mode:
            ``"rel"`` (range-based relative, the paper's default) or ``"abs"``.
        scratch:
            Optional :class:`repro.utils.pool.Scratch` arena lending the
            backend's working buffers (zero steady-state allocation — the
            batch engine hands each worker one).  Without it, ``fused``
            uses a private per-thread arena.  The stream is the same
            either way; a scratch must not be shared between concurrent
            calls.
        """
        backend = _resolve_backend(self._backend)
        # a backend whose encoder rejects NaN/Inf itself spares the
        # separate isfinite pass over the field
        data = ensure_ndim(
            ensure_float32(data, finite=not backend.rejects_non_finite)
        )
        chunk = chunk_shape_for(data.ndim, self._chunk)
        with telemetry.span("fz.compress") as root:
            eb_abs = resolve_error_bound(data, eb, mode)

            outcome = backend.encode(data, eb_abs, chunk, scratch)
            encoded = outcome.encoded
            qstats = outcome.stats

            header = StreamHeader(
                ndim=data.ndim,
                shape=data.shape,
                padded_shape=outcome.padded_shape,
                eb=eb_abs,
                chunk=chunk,
                n_blocks=encoded.n_blocks,
                n_nonzero=encoded.n_nonzero,
                n_saturated=qstats.n_saturated,
            )
            with telemetry.span("stage.pack"):
                stream = pack_stream(header, encoded)
            root.set("bytes_in", int(data.nbytes))
            root.set("bytes_out", len(stream))
            root.set("backend", backend.name)
        if telemetry.enabled():
            telemetry.counter("fz.compress_calls")
            telemetry.counter("fz.bytes_in", int(data.nbytes))
            telemetry.counter("fz.bytes_out", len(stream))
            telemetry.histogram(
                "fz.ratio",
                data.nbytes / len(stream),
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
            )
        return CompressionResult(
            stream=stream,
            original_bytes=data.nbytes,
            compressed_bytes=len(stream),
            eb_abs=eb_abs,
            quantizer=qstats,
            n_blocks=encoded.n_blocks,
            n_nonzero_blocks=encoded.n_nonzero,
            stage_sizes={
                "codes_bytes": outcome.codes_bytes,
                "shuffled_bytes": outcome.shuffled_bytes,
                "flags_bytes": int(encoded.bitflags.nbytes),
                "literals_bytes": int(encoded.literals.nbytes),
            },
        )

    def decompress(self, stream: bytes, scratch=None, out=None) -> np.ndarray:
        """Reconstruct the field from a compressed stream (float32).

        Malformed input fails with a :class:`~repro.errors.ReproError`
        subclass: :class:`~repro.errors.FormatError` for framing problems
        (truncation, trailing bytes, header inconsistencies, CRC mismatch)
        and :class:`~repro.errors.DecompressionError` for streams that parse
        but decode inconsistently.

        ``scratch`` mirrors :meth:`compress`: an optional arena that makes
        the decode temporaries allocation-free in the steady state.  With
        ``out`` (a writable, C-contiguous float32 array of the stream's
        shape, else :class:`~repro.errors.ConfigError`) the field is
        decoded into it and ``out`` is returned.
        """
        backend = _resolve_backend(self._backend)
        with telemetry.span("fz.decompress") as root:
            with telemetry.span("stage.unpack"):
                header, encoded = unpack_stream(stream)
            if out is not None:
                check_out(out, header.shape)
            try:
                out = backend.decode(
                    encoded, header.padded_shape, header.shape, header.eb,
                    header.chunk, scratch, out,
                )
            except ValueError as exc:
                # residual shape/size validation from NumPy on streams the
                # header checks could not rule out
                raise DecompressionError(f"inconsistent FZ-GPU stream: {exc}") from exc
            root.set("bytes_in", len(stream))
            root.set("bytes_out", int(out.nbytes))
            root.set("backend", backend.name)
        if telemetry.enabled():
            telemetry.counter("fz.decompress_calls")
            telemetry.counter("fz.decompress_bytes_in", len(stream))
            telemetry.counter("fz.decompress_bytes_out", int(out.nbytes))
        return out


_DEFAULT = FZGPU()


def compress(
    data: np.ndarray,
    eb: float,
    mode: str = "rel",
    *,
    chunk: tuple[int, ...] | None = None,
    backend=None,
    scratch=None,
) -> CompressionResult:
    """Module-level convenience wrapper over :meth:`FZGPU.compress`.

    ``chunk``/``backend``/``scratch`` are forwarded so library users are
    not pinned to the default codec configuration.
    """
    codec = _DEFAULT if chunk is None and backend is None else FZGPU(
        chunk=chunk, backend=backend
    )
    return codec.compress(data, eb, mode, scratch=scratch)


def decompress(
    stream: bytes,
    *,
    chunk: tuple[int, ...] | None = None,
    backend=None,
    scratch=None,
) -> np.ndarray:
    """Module-level convenience wrapper over :meth:`FZGPU.decompress`.

    ``chunk``/``backend``/``scratch`` are forwarded as in :func:`compress`.
    """
    codec = _DEFAULT if chunk is None and backend is None else FZGPU(
        chunk=chunk, backend=backend
    )
    return codec.decompress(stream, scratch=scratch)
