"""Dual-quantization: the (only) lossy stage of the FZ-GPU pipeline.

Two variants are implemented:

* **v2 (FZ-GPU, §3.2)** — the paper's optimized method: no radius shift, no
  separate outlier pass, residuals stored as *sign-magnitude* ``uint16`` (MSB
  is the sign, low 15 bits the magnitude).  Residuals whose magnitude exceeds
  ``2**15 - 1`` saturate and lose precision; the paper accepts this because an
  effective Lorenzo predictor leaves very few such points.
* **v1 (cuSZ)** — exposed here for the cuSZ baseline and the Fig. 10 ablation:
  residuals are shifted by a radius into ``[0, 2r)`` and out-of-range points
  are recorded exactly in a separate sparse outlier list.

Error-bound guarantee (both variants): with pre-quantization
``q = round(d / (2*eb))`` every non-saturated point reconstructs to
``q * 2*eb`` with ``|q*2eb - d| <= eb``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, DecompressionError
from repro.lorenzo import lorenzo_delta_chunked, lorenzo_reconstruct_chunked
from repro.utils.chunking import block_view, chunk_shape_for, unblock_view
from repro.utils.validation import ensure_float32, ensure_positive

__all__ = [
    "prequantize",
    "dequantize",
    "encode_sign_magnitude",
    "decode_sign_magnitude",
    "encode_sign_magnitude_int16",
    "decode_sign_magnitude_into",
    "encode_radius_shift",
    "decode_radius_shift",
    "dual_quantize",
    "dual_dequantize",
    "QuantizerStats",
    "SIGN_BIT",
    "MAX_MAGNITUDE",
]

#: MSB of a uint16 code marks a negative residual (§3.2, item 3).
SIGN_BIT = np.uint16(0x8000)
#: Largest representable residual magnitude in 15 bits.
MAX_MAGNITUDE = 0x7FFF


def encode_sign_magnitude_int16(
    x: np.ndarray, out: np.ndarray, mag: np.ndarray
) -> np.ndarray:
    """Branch-free sign-magnitude codes of clamped int16 residuals.

    ``x`` holds two's-complement residuals with ``|x| <= MAX_MAGNITUDE``.
    Bit 15 of such a value is set exactly when it is negative, so it *is*
    :data:`SIGN_BIT` and the code is ``|x| | (x & 0x8000)``: no compare and
    no masked store.  Writes the ``uint16`` codes into ``out``, which may
    share ``x``'s memory; ``mag`` is a ``uint16`` buffer of ``x``'s shape.
    Equal to :func:`encode_sign_magnitude` on every such input.
    """
    np.absolute(x, out=mag.view(np.int16))
    np.bitwise_and(x.view(np.uint16), SIGN_BIT, out=out)
    np.bitwise_or(out, mag, out=out)
    return out


def decode_sign_magnitude_into(
    codes: np.ndarray, out: np.ndarray, sign: np.ndarray | None = None
) -> np.ndarray:
    """Branch-free signed values of sign-magnitude ``codes``, into ``out``.

    Equal to ``where(codes & SIGN_BIT, -mag, mag)`` with
    ``mag = codes & MAX_MAGNITUDE``, bit for bit.  Given an ``int16``
    buffer ``sign``, it works in ``int16`` with same-type loops:
    ``s = int16(code) >> 15`` (0 or -1) goes into ``sign``,
    ``((code & 0x7FFF) ^ s) - s`` is computed **in place over** ``codes``,
    which are left holding these ``int16`` values, and is then widened once
    into ``out`` (integer or float); so pass codes the caller owns as
    scratch.  Integers have no ``-0``, so this path decodes code ``0x8000``
    to ``+0``.  Without ``sign`` (a float ``out`` only), ``codes`` stay
    unchanged and the value is ``copysign(mag, int16(code))``, so code
    ``0x8000`` decodes to ``-0.0`` as ``-mag`` does.
    """
    signed = codes.view(np.int16)
    if sign is None:
        np.bitwise_and(codes, np.uint16(MAX_MAGNITUDE), out=out)
        np.copysign(out, signed, out=out)
    else:
        np.right_shift(signed, 15, out=sign)
        np.bitwise_and(signed, np.int16(MAX_MAGNITUDE), out=signed)
        np.bitwise_xor(signed, sign, out=signed)
        np.subtract(signed, sign, out=signed)
        np.copyto(out, signed)
    return out


@dataclass(frozen=True)
class QuantizerStats:
    """Bookkeeping emitted by the quantization stage.

    Attributes
    ----------
    n_saturated:
        Number of residuals clamped to 15-bit magnitude (v2).  Saturated
        points may violate the error bound; the paper reports these are rare
        on predictable data.
    n_outliers:
        Number of out-of-radius residuals routed to the sparse outlier store
        (v1 only; always 0 for v2).
    max_abs_delta:
        Largest absolute Lorenzo residual observed (before clamping).
    """

    n_saturated: int
    n_outliers: int
    max_abs_delta: int


#: Exclusive bound on ``|round(d / (2*eb))|`` before the cast to int64: a
#: 3-D Lorenzo difference sums eight such terms, and ``8 * |q| < 2**63``
#: keeps every one of them exact.
QUANT_LIMIT = float(2**60)


def check_quantized(q: np.ndarray, eb: float) -> np.ndarray:
    """Return the rounded quotients ``q``, or raise :class:`ConfigError`
    when ``eb`` is too small for them to fit int64 arithmetic.

    Without this the float64 -> int64 cast overflows silently (NumPy only
    warns) and the stream decodes far outside the bound.
    """
    peak = max(float(q.max(initial=0.0)), -float(q.min(initial=0.0)))
    if not peak < QUANT_LIMIT:
        raise ConfigError(
            f"error bound {eb:g} is too small for this data: a value "
            f"quantizes to {peak:.3g} steps, over the 2**60 limit"
        )
    return q


def prequantize(data: np.ndarray, eb: float) -> np.ndarray:
    """Pre-quantization ``q = round(d / (2*eb))`` — the only lossy operation.

    Parameters
    ----------
    data:
        float32 field.
    eb:
        Absolute error bound.

    Returns
    -------
    numpy.ndarray
        ``int64`` quantized integers.
    """
    data = ensure_float32(data)
    eb = ensure_positive(eb, "eb")
    # float64 intermediate so the rounding grid is exact even for large |d|/eb.
    q = np.rint(data.astype(np.float64) / (2.0 * eb))
    return check_quantized(q, eb).astype(np.int64)


def dequantize(q: np.ndarray, eb: float) -> np.ndarray:
    """Invert :func:`prequantize`: ``d' = q * 2*eb`` (float32 result)."""
    eb = ensure_positive(eb, "eb")
    return (np.asarray(q, dtype=np.float64) * (2.0 * eb)).astype(np.float32)


def encode_sign_magnitude(delta: np.ndarray) -> tuple[np.ndarray, QuantizerStats]:
    """Encode int residuals as sign-magnitude ``uint16`` (FZ-GPU v2).

    A negative residual is stored as its absolute value with the MSB set —
    small negatives therefore stay *almost all zero bits*, unlike two's
    complement whose small negatives are almost all ones (§3.2).  Magnitudes
    are clamped to 15 bits.

    Returns the codes and a :class:`QuantizerStats` with the saturation count.
    """
    delta = np.asarray(delta, dtype=np.int64)
    mag = np.abs(delta)
    max_abs = int(mag.max(initial=0))
    saturated = mag > MAX_MAGNITUDE
    n_sat = int(np.count_nonzero(saturated))
    clamped = np.minimum(mag, MAX_MAGNITUDE).astype(np.uint16)
    codes = np.where(delta < 0, clamped | SIGN_BIT, clamped)
    return codes.astype(np.uint16), QuantizerStats(n_sat, 0, max_abs)


def decode_sign_magnitude(codes: np.ndarray) -> np.ndarray:
    """Invert :func:`encode_sign_magnitude` (saturated values stay clamped)."""
    codes = np.asarray(codes, dtype=np.uint16)
    mag = (codes & np.uint16(MAX_MAGNITUDE)).astype(np.int64)
    neg = (codes & SIGN_BIT) != 0
    return np.where(neg, -mag, mag)


def encode_radius_shift(
    delta: np.ndarray, radius: int = 512
) -> tuple[np.ndarray, np.ndarray, np.ndarray, QuantizerStats]:
    """Encode residuals cuSZ-style: shift by ``radius``, separate outliers (v1).

    In-range residuals ``-radius < delta < radius`` become codes
    ``delta + radius`` in ``(0, 2*radius)``; out-of-range points get code 0 and
    their exact residual is stored in a sparse list (index, value), mirroring
    cuSZ's CSR-like outlier store.

    Returns ``(codes_u16, outlier_idx, outlier_val, stats)``.
    """
    if not (0 < radius <= 0x7FFF):
        raise ValueError("radius must be in (0, 32767]")
    delta = np.asarray(delta, dtype=np.int64).ravel()
    in_range = np.abs(delta) < radius
    codes = np.where(in_range, delta + radius, 0).astype(np.uint16)
    outlier_idx = np.flatnonzero(~in_range).astype(np.uint32)
    outlier_val = delta[~in_range].astype(np.int64)
    stats = QuantizerStats(0, int(outlier_idx.size), int(np.abs(delta).max(initial=0)))
    return codes, outlier_idx, outlier_val, stats


def decode_radius_shift(
    codes: np.ndarray,
    outlier_idx: np.ndarray,
    outlier_val: np.ndarray,
    radius: int = 512,
) -> np.ndarray:
    """Invert :func:`encode_radius_shift` exactly (outliers are lossless)."""
    codes = np.asarray(codes, dtype=np.uint16).ravel()
    delta = codes.astype(np.int64) - radius
    # Code 0 marks an outlier slot; restore the exact values.
    delta[np.asarray(outlier_idx, dtype=np.int64)] = np.asarray(outlier_val, dtype=np.int64)
    # Non-outlier code 0 cannot occur: in-range codes lie in (0, 2r).
    return delta


def dual_quantize(
    data: np.ndarray,
    eb: float,
    chunk: tuple[int, ...] | None = None,
) -> tuple[np.ndarray, tuple[int, ...], QuantizerStats]:
    """Full optimized dual-quantization (v2): prequant + chunked Lorenzo + codes.

    Parameters
    ----------
    data:
        float32 field, 1-3 dimensional.
    eb:
        Absolute error bound.
    chunk:
        Optional chunk shape override.

    Returns
    -------
    (codes, padded_shape, stats)
        ``codes`` is a flat ``uint16`` array over the chunk-padded grid in
        *chunk-major* order — each chunk's codes are contiguous, exactly as
        the CUDA kernel's per-thread-block writes lay them out.  This keeps
        a spatially-zero chunk as one contiguous zero run for the encoder.
        ``padded_shape`` is needed to undo the padding.
    """
    q = prequantize(data, eb)
    delta = lorenzo_delta_chunked(q, chunk)
    chunk_resolved = chunk_shape_for(data.ndim, chunk)
    chunk_major = np.ascontiguousarray(block_view(delta, chunk_resolved))
    codes, stats = encode_sign_magnitude(chunk_major)
    return codes.ravel(), delta.shape, stats


def dual_dequantize(
    codes: np.ndarray,
    padded_shape: tuple[int, ...],
    orig_shape: tuple[int, ...],
    eb: float,
    chunk: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Invert :func:`dual_quantize`: decode codes, Lorenzo-reconstruct, dequantize.

    Inconsistent inputs — too few codes for the padded grid, or a padded
    shape that is not chunk-aligned — raise
    :class:`~repro.errors.DecompressionError` instead of a bare NumPy
    ``ValueError``, so stream-decoding boundaries catching
    :class:`~repro.errors.ReproError` see them.
    """
    n = int(np.prod(padded_shape))
    chunk_resolved = chunk_shape_for(len(padded_shape), chunk)
    if any(p % c for p, c in zip(padded_shape, chunk_resolved)):
        raise DecompressionError(
            f"padded shape {tuple(padded_shape)} is not aligned to chunk {chunk_resolved}"
        )
    decoded = decode_sign_magnitude(codes)
    if decoded.size < n:
        raise DecompressionError(
            f"code stream holds {decoded.size} codes, padded grid needs {n}"
        )
    blocked_shape = tuple(p // c for p, c in zip(padded_shape, chunk_resolved)) + tuple(
        chunk_resolved
    )
    chunk_major = decoded[:n].reshape(blocked_shape)
    delta = unblock_view(chunk_major, tuple(padded_shape))
    q = lorenzo_reconstruct_chunked(delta, chunk)
    crop = tuple(slice(0, s) for s in orig_shape)
    return dequantize(q[crop], eb)
