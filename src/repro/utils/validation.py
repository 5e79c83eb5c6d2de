"""Argument validation helpers shared by public API entry points."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, UnsupportedDataError

__all__ = [
    "check_finite",
    "ensure_float32",
    "ensure_positive",
    "ensure_ndim",
    "non_finite_error",
]


def check_finite(data: np.ndarray, name: str = "data") -> None:
    """Raise :class:`UnsupportedDataError` naming the count of NaN/Inf values.

    An error-*bounded* compressor cannot bound the error of a non-finite
    value, so passing one through silently would corrupt the guarantee.
    """
    if data.size and not np.isfinite(data).all():
        raise non_finite_error(int(np.count_nonzero(~np.isfinite(data))), name)


def non_finite_error(n_bad: int, name: str = "data") -> UnsupportedDataError:
    """The error :func:`check_finite` raises, for a caller that counted."""
    return UnsupportedDataError(
        f"{name} contains {n_bad} non-finite values (NaN/Inf); an "
        f"error-bounded compressor cannot represent them — mask or "
        f"replace them first"
    )


def ensure_float32(
    data: np.ndarray, name: str = "data", finite: bool = True
) -> np.ndarray:
    """Return ``data`` as a C-contiguous float32 array.

    Float64 inputs are downcast (scientific fields in SDRBench are
    single-precision; the paper's compressors all operate on f32).  Integer
    or complex inputs are rejected, and so, unless ``finite=False``, are
    NaN/Inf values (:func:`check_finite`).  ``finite=False`` is for callers
    whose own pass over the data already rejects them with the same error,
    such as the ``fused`` encoder's quantization guard.
    """
    data = np.asarray(data)
    if data.dtype == np.float32:
        # ascontiguousarray would silently promote a 0-d scalar to shape
        # (1,), defeating the dimensionality gate downstream — keep 0-d
        # as-is so ensure_ndim can reject it.
        out = data if data.ndim == 0 else np.ascontiguousarray(data)
    elif data.dtype == np.float64:
        if data.ndim == 0:
            out = data.astype(np.float32)
        else:
            out = np.ascontiguousarray(data, dtype=np.float32)
    else:
        raise UnsupportedDataError(
            f"{name} must be float32/float64, got dtype={data.dtype}"
        )
    if finite:
        check_finite(out, name)
    return out


def ensure_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite positive scalar."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ConfigError(f"{name} must be a finite positive number, got {value}")
    return value


def ensure_ndim(data: np.ndarray, low: int = 1, high: int = 3, name: str = "data") -> np.ndarray:
    """Validate dimensionality is within ``[low, high]``."""
    if not (low <= data.ndim <= high):
        raise UnsupportedDataError(
            f"{name} must have between {low} and {high} dimensions, got {data.ndim}"
        )
    if data.size == 0:
        raise UnsupportedDataError(f"{name} must be non-empty")
    return data
