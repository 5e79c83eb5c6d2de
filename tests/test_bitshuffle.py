"""Tests for the bitshuffle stage: invertibility and zero-plane creation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bitshuffle import TILE_BYTES, TILE_WORDS, bitshuffle, bitunshuffle
from repro.backends.fused import TileDecoder
from repro.core.encoder import encode_zero_blocks
from repro.errors import DecompressionError
from repro.utils.pool import Scratch


class TestRoundtrip:
    def test_exact_tile(self, rng):
        codes = rng.integers(0, 2**16, size=2 * TILE_WORDS, dtype=np.uint16)
        words = bitshuffle(codes)
        assert words.size == TILE_WORDS
        np.testing.assert_array_equal(bitunshuffle(words, codes.size), codes)

    def test_unaligned_padded(self, rng):
        codes = rng.integers(0, 2**16, size=777, dtype=np.uint16)
        words = bitshuffle(codes)
        assert words.size % TILE_WORDS == 0
        np.testing.assert_array_equal(bitunshuffle(words, 777), codes)

    def test_multiple_tiles(self, rng):
        codes = rng.integers(0, 2**16, size=5 * 2 * TILE_WORDS + 13, dtype=np.uint16)
        np.testing.assert_array_equal(
            bitunshuffle(bitshuffle(codes), codes.size), codes
        )

    def test_requesting_too_many_codes_raises(self):
        words = bitshuffle(np.zeros(10, dtype=np.uint16))
        with pytest.raises(DecompressionError):
            bitunshuffle(words, 10**9)

    @pytest.mark.parametrize("bad", [-1, -(2**40), 2 * TILE_WORDS + 1, 10**9])
    def test_out_of_range_code_count_raises_repro_error(self, bad):
        """``n_codes`` comes from an untrusted header; out-of-range values
        (including negative, which would silently mis-slice) must raise the
        library's error type, in the staged and the fused tile decoder alike."""
        words = bitshuffle(np.arange(100, dtype=np.uint16))
        with pytest.raises(DecompressionError):
            bitunshuffle(words, bad)
        with pytest.raises(DecompressionError):
            TileDecoder(encode_zero_blocks(words), bad, Scratch())

    def test_boundary_code_counts_accepted(self):
        words = bitshuffle(np.arange(100, dtype=np.uint16))
        assert bitunshuffle(words, 0).size == 0
        assert bitunshuffle(words, 2 * TILE_WORDS).size == 2 * TILE_WORDS
        tiles = TileDecoder(encode_zero_blocks(words), 2 * TILE_WORDS, Scratch())
        assert tiles.codes(0, 0).size == 0
        assert tiles.codes(0, 2 * TILE_WORDS).size == 2 * TILE_WORDS

    @given(
        hnp.arrays(np.uint16, st.integers(1, 3000)),
    )
    def test_roundtrip_property(self, codes):
        np.testing.assert_array_equal(
            bitunshuffle(bitshuffle(codes), codes.size), codes
        )


class TestZeroPlaneStructure:
    """The whole point of bitshuffle: small codes -> long zero runs."""

    def test_all_zero_stays_zero(self):
        words = bitshuffle(np.zeros(4096, dtype=np.uint16))
        assert not words.any()

    def test_small_codes_concentrate_zeros(self, rng):
        # codes < 2^4: bit-planes 4..15 of both 16-bit lanes must vanish
        codes = rng.integers(0, 16, size=2 * TILE_WORDS, dtype=np.uint16)
        words = bitshuffle(codes).reshape(32, 32)
        # row b of the shuffled tile is bit-plane b (b<16 even lane, else odd)
        for b in range(32):
            plane_bit = b % 16
            if plane_bit >= 4:
                assert not words[b].any(), f"plane {b} should be zero"

    def test_zero_block_count_improves_with_shuffle(self, rng):
        """Bitshuffled small codes produce far more zero blocks than raw codes."""
        codes = rng.integers(0, 8, size=8 * 2 * TILE_WORDS, dtype=np.uint16)
        raw_words = np.ascontiguousarray(codes).view(np.uint32)
        shuffled = bitshuffle(codes)
        raw_zero = encode_zero_blocks(raw_words).zero_fraction
        shuf_zero = encode_zero_blocks(shuffled).zero_fraction
        assert shuf_zero > 0.75
        assert shuf_zero > raw_zero + 0.5

    def test_sign_magnitude_beats_twos_complement_after_shuffle(self, rng):
        """Reproduces the §3.2 argument for sign-magnitude codes."""
        delta = rng.integers(-8, 9, size=8 * 2 * TILE_WORDS).astype(np.int64)
        mag = np.abs(delta).astype(np.uint16)
        signmag = np.where(delta < 0, mag | np.uint16(0x8000), mag).astype(np.uint16)
        twos = delta.astype(np.int16).view(np.uint16)
        frac_sm = encode_zero_blocks(bitshuffle(signmag)).zero_fraction
        frac_tc = encode_zero_blocks(bitshuffle(twos)).zero_fraction
        assert frac_sm > frac_tc

    def test_tile_constants(self):
        assert TILE_WORDS == 1024
        assert TILE_BYTES == 4096
