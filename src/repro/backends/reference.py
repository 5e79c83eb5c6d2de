"""The ``reference`` backend: the plain, unpooled ``core/*`` kernels.

This is the semantics-defining implementation — every other backend's
output is byte-compared against it.  Stage structure and telemetry span
names are exactly the historical scratch-less :class:`FZGPU` path.
"""

from __future__ import annotations

import math

import numpy as np

from repro import telemetry
from repro.backends.base import EncodeOutcome, KernelBackend
from repro.core.bitshuffle import TILE_WORDS, bitshuffle, bitunshuffle
from repro.core.encoder import EncodedBlocks, decode_zero_blocks, encode_zero_blocks
from repro.core.quantize import dual_dequantize, dual_quantize
from repro.utils.pool import Scratch

__all__ = ["ReferenceBackend", "padded_stage_sizes"]


def padded_stage_sizes(padded_shape: tuple[int, ...]) -> tuple[int, int]:
    """(codes_bytes, shuffled_bytes) implied by the padded geometry.

    The code plane is two bytes per padded grid point; the shuffle stage
    zero-pads codes to whole 4 KiB tiles, so its word array occupies the
    tile-rounded byte count.  These are reported identically by every
    backend (the fused one computes them here instead of materializing the
    arrays).
    """
    n_codes = math.prod(padded_shape)
    tile_codes = 2 * TILE_WORDS
    n_padded = n_codes + (-n_codes) % tile_codes
    return 2 * n_codes, 2 * n_padded


class ReferenceBackend(KernelBackend):
    """Unpooled reference kernels (allocating, simplest possible code)."""

    name = "reference"

    def encode(
        self,
        data: np.ndarray,
        eb_abs: float,
        chunk: tuple[int, ...],
        scratch: Scratch | None = None,
    ) -> EncodeOutcome:
        with telemetry.span("stage.quantize"):
            codes, padded_shape, stats = dual_quantize(data, eb_abs, chunk)
        with telemetry.span("stage.bitshuffle"):
            shuffled = bitshuffle(codes)
        with telemetry.span("stage.encode"):
            encoded = encode_zero_blocks(shuffled)
        return EncodeOutcome(
            encoded=encoded,
            padded_shape=padded_shape,
            stats=stats,
            codes_bytes=int(codes.nbytes),
            shuffled_bytes=int(shuffled.nbytes),
        )

    def decode(
        self,
        encoded: EncodedBlocks,
        padded_shape: tuple[int, ...],
        orig_shape: tuple[int, ...],
        eb_abs: float,
        chunk: tuple[int, ...] | None,
        scratch: Scratch | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        n_codes = int(np.prod(padded_shape))
        with telemetry.span("stage.decode"):
            words = decode_zero_blocks(encoded)
        with telemetry.span("stage.bitunshuffle"):
            codes = bitunshuffle(words, n_codes)
        with telemetry.span("stage.dequantize"):
            res = dual_dequantize(codes, padded_shape, orig_shape, eb_abs, chunk)
        if out is None:
            return res
        np.copyto(out, res)
        return out
