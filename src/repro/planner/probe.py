"""Cheap per-chunk probe backing the ``auto``/``ratio`` plan decision.

The probe must stay a small fraction of a fused compression pass (the
bench gate holds auto-plan throughput within 1.3x of forced-fast on rough
fields), so it reads the chunk exactly once for the min/max and then
quantizes only a few contiguous sample windows:

* **value range** — exact min/max over the chunk (two streaming reductions)
  decides the constant-block shortcut: a chunk whose half-range fits the
  absolute bound is representable by its midpoint fill value.
* **sampled Lorenzo residual entropy** (``lorenzo_bits``) — entropy of the
  first differences of pre-quantized sample windows, a direct proxy for
  the bitplane cost of the fused path's Lorenzo residuals.
* **sampled interpolation residual entropy** (``interp_bits``) — entropy of
  the *half second differences* of the same windows.  A cubic midpoint
  predictor's finest-level residual is driven by local curvature, which
  the half second difference measures; smooth fields collapse it to ~0
  while random walks (where Lorenzo shines) inflate it above the first
  difference.
* **zero-block density** (``zero_fraction``) — fraction of zero sampled
  Lorenzo residuals, reported for telemetry/stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_positive

__all__ = ["ChunkProbe", "probe_chunk", "DEFAULT_SAMPLES"]

#: Default probe sample budget (values quantized, across all windows).
DEFAULT_SAMPLES = 4096
#: Contiguous values per sample window (differences need contiguity).
_WINDOW = 512
#: Residual codes are clipped to this magnitude before the histogram, so
#: a pathological window cannot make the histogram arbitrarily large.
_CLIP = 4096


@dataclass(frozen=True)
class ChunkProbe:
    """Everything :func:`repro.planner.plans.decide` needs about one chunk."""

    lo: float  #: exact minimum over the chunk
    hi: float  #: exact maximum over the chunk
    constant_ok: bool  #: midpoint fill stays within the absolute bound
    zero_fraction: float  #: sampled fraction of zero Lorenzo residuals
    lorenzo_bits: float  #: sampled first-difference entropy (bits/value)
    interp_bits: float  #: sampled half-second-difference entropy (bits/value)
    n_sampled: int  #: values the entropy estimates were computed from


def _entropy_bits(codes: np.ndarray) -> float:
    """Shannon entropy (bits/symbol) of a code sample clipped to ``_CLIP``.

    Counts with ``np.bincount`` in value order, which is the order
    ``np.unique`` sorts them in, so the sum adds the same terms in the same
    order.  A NaN code (from a quantization that overflowed) counts as one
    last symbol, as ``np.unique`` sorts NaNs.
    """
    if codes.size == 0:
        return 0.0
    nan = np.isnan(codes)
    n_nan = int(np.count_nonzero(nan))
    if n_nan:
        codes = codes[~nan]
    counts = np.bincount((codes + _CLIP).astype(np.intp))
    counts = counts[counts > 0]
    if n_nan:
        counts = np.append(counts, n_nan)
    p = counts / (codes.size + n_nan)
    return float(-(p * np.log2(p)).sum())


def probe_chunk(
    data: np.ndarray, eb_abs: float, max_samples: int = DEFAULT_SAMPLES
) -> ChunkProbe:
    """Probe one chunk under an absolute error bound (see module docstring)."""
    eb_abs = ensure_positive(eb_abs, "eb_abs")
    flat = np.asarray(data).reshape(-1)
    if flat.size == 0:
        return ChunkProbe(0.0, 0.0, True, 1.0, 0.0, 0.0, 0)
    lo = float(flat.min())
    hi = float(flat.max())
    constant_ok = (
        math.isfinite(lo) and math.isfinite(hi) and hi - lo <= 2.0 * eb_abs
    )
    if constant_ok:
        # the decision is already made; skip the entropy sampling entirely
        return ChunkProbe(lo, hi, True, 1.0, 0.0, 0.0, 0)
    window = min(_WINDOW, flat.size)
    n_windows = max(1, min(max_samples // window, flat.size // window))
    starts = np.linspace(
        0, flat.size - window, n_windows, dtype=np.int64
    )
    # the sample windows as one (n_windows, window) block, differenced
    # along axis 1
    idx = starts[:, None] + np.arange(window)
    q = np.rint(flat[idx].astype(np.float64) / (2.0 * eb_abs))
    d1 = np.clip(np.diff(q, axis=1), -_CLIP, _CLIP).reshape(-1)
    half_d2 = np.rint((q[:, 2:] - 2.0 * q[:, 1:-1] + q[:, :-2]) * 0.5)
    d2 = np.clip(half_d2, -_CLIP, _CLIP).reshape(-1)
    zero_fraction = (
        float(np.count_nonzero(d1 == 0)) / d1.size if d1.size else 1.0
    )
    return ChunkProbe(
        lo=lo,
        hi=hi,
        constant_ok=False,
        zero_fraction=zero_fraction,
        lorenzo_bits=_entropy_bits(d1),
        interp_bits=_entropy_bits(d2),
        n_sampled=q.size,
    )
