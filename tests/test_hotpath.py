"""Crafted-stream hardening tests for the decode kernels.

:func:`~repro.core.encoder.decode_zero_blocks` (and the fused decoder's
mirrored ladder) must reject inconsistent block counts and flag-array lengths *up front*
with :class:`~repro.errors.DecompressionError` — never by letting a
downstream NumPy ``ValueError`` escape from a negative reshape or a
mis-sized scatter.  The shared bit-plane tile codec of the fused backend
(also the FZIN plan's) must equal the staged bitshuffle + zero-block stages
it replaces, ladder included.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro.backends import fused, get_backend
from repro.backends.fused import TILE_CODES, TileDecoder, encode_tiles, join_tiles
from repro.core.bitshuffle import bitshuffle, bitunshuffle
from repro.core.encoder import EncodedBlocks, decode_zero_blocks, encode_zero_blocks
from repro.errors import DecompressionError
from repro.utils.pool import Scratch


def _valid_encoded(n_tiles: int = 2) -> EncodedBlocks:
    """A well-formed zero-block encoding covering set and clear flags."""
    rng = np.random.default_rng(41)
    words = rng.integers(0, 2**32, size=n_tiles * 1024, dtype=np.uint32)
    words.reshape(-1, 4)[::3] = 0  # a mix of zero and literal blocks
    return encode_zero_blocks(words)


def _decode(encoded: EncodedBlocks) -> np.ndarray:
    return decode_zero_blocks(encoded)


class TestDecodeZeroBlocksHardening:
    def test_roundtrip_still_exact(self):
        encoded = _valid_encoded()
        rng = np.random.default_rng(41)
        words = rng.integers(0, 2**32, size=2 * 1024, dtype=np.uint32)
        words.reshape(-1, 4)[::3] = 0
        np.testing.assert_array_equal(_decode(encoded), words)

    def test_negative_block_count(self):
        bad = dataclasses.replace(_valid_encoded(), n_blocks=-1)
        with pytest.raises(DecompressionError, match="negative block count"):
            _decode(bad)

    def test_huge_negative_block_count(self):
        bad = dataclasses.replace(_valid_encoded(), n_blocks=-(2**40))
        with pytest.raises(DecompressionError, match="negative block count"):
            _decode(bad)

    def test_negative_nonzero_count(self):
        bad = dataclasses.replace(_valid_encoded(), n_nonzero=-5)
        with pytest.raises(DecompressionError, match="non-zero blocks"):
            _decode(bad)

    def test_nonzero_count_beyond_blocks(self):
        encoded = _valid_encoded()
        bad = dataclasses.replace(encoded, n_nonzero=encoded.n_blocks + 1)
        with pytest.raises(DecompressionError, match="non-zero blocks"):
            _decode(bad)

    def test_flag_array_too_long(self):
        encoded = _valid_encoded()
        padded = np.concatenate(
            [encoded.bitflags, np.zeros(3, dtype=encoded.bitflags.dtype)]
        )
        bad = dataclasses.replace(encoded, bitflags=padded)
        with pytest.raises(DecompressionError, match="flag array is"):
            _decode(bad)

    def test_flag_array_too_short(self):
        encoded = _valid_encoded()
        bad = dataclasses.replace(encoded, bitflags=encoded.bitflags[:-1])
        with pytest.raises(DecompressionError):
            _decode(bad)

    def test_flag_popcount_mismatch(self):
        encoded = _valid_encoded()
        flipped = encoded.bitflags.copy()
        flipped[0] ^= 0xFF
        bad = dataclasses.replace(encoded, bitflags=flipped)
        with pytest.raises(DecompressionError, match="set bits"):
            _decode(bad)

    def test_literal_payload_mismatch(self):
        encoded = _valid_encoded()
        bad = dataclasses.replace(encoded, literals=encoded.literals[:-4])
        with pytest.raises(DecompressionError, match="literal payload"):
            _decode(bad)


@pytest.mark.parametrize("backend", ["reference", "fused"])
class TestBackendDecodeHardening:
    """Every backend's decode rejects the same crafted-count streams."""

    def _encode(self, backend):
        b = get_backend(backend)
        data = np.linspace(-1, 1, 64 * 64, dtype=np.float32).reshape(64, 64)
        return b, b.encode(data, 1e-3, (16, 16))

    def test_negative_block_count(self, backend):
        b, out = self._encode(backend)
        bad = dataclasses.replace(out.encoded, n_blocks=-1)
        with pytest.raises(DecompressionError):
            b.decode(bad, out.padded_shape, (64, 64), 1e-3, (16, 16))

    def test_oversized_flag_array(self, backend):
        b, out = self._encode(backend)
        padded = np.concatenate(
            [out.encoded.bitflags, np.zeros(8, dtype=out.encoded.bitflags.dtype)]
        )
        bad = dataclasses.replace(out.encoded, bitflags=padded)
        with pytest.raises(DecompressionError):
            b.decode(bad, out.padded_shape, (64, 64), 1e-3, (16, 16))

    def test_nonzero_count_lies(self, backend):
        b, out = self._encode(backend)
        bad = dataclasses.replace(out.encoded, n_nonzero=out.encoded.n_nonzero + 1)
        with pytest.raises(DecompressionError):
            b.decode(bad, out.padded_shape, (64, 64), 1e-3, (16, 16))


# code counts around the 2048-code tile edge, plus several tiles and a tail
TILE_COUNTS = [1, 2047, 2048, 2049, 5 * 2048, 5 * 2048 + 1000]


def _tile_codes(n: int, kind: str) -> np.ndarray:
    if kind == "zero":
        return np.zeros(n, np.uint16)
    rng = np.random.default_rng(n)
    return rng.integers(1, 2**16, size=n, dtype=np.uint16)  # all non-zero


@pytest.mark.parametrize("kind", ["zero", "nonzero"])
@pytest.mark.parametrize("n", TILE_COUNTS)
class TestTileCodecOracle:
    """The shared bit-plane tile codec equals the staged bitshuffle stages."""

    def test_encode_matches_staged(self, n, kind):
        codes = _tile_codes(n, kind)
        want = encode_zero_blocks(bitshuffle(codes))
        padded = np.zeros(-(-n // TILE_CODES) * TILE_CODES, np.uint16)
        padded[:n] = codes
        whole = join_tiles([encode_tiles(padded, Scratch())])
        scratch = Scratch()  # one tile at a time, as the fused slab loop does
        per_tile = join_tiles([
            encode_tiles(padded[lo : lo + TILE_CODES], scratch)
            for lo in range(0, padded.size, TILE_CODES)
        ])
        for got in (whole, per_tile):
            assert got.n_blocks == want.n_blocks
            assert got.n_nonzero == want.n_nonzero
            assert np.array_equal(got.bitflags, want.bitflags)
            assert np.array_equal(got.literals, want.literals)

    def test_decode_matches_staged(self, n, kind):
        encoded = encode_zero_blocks(bitshuffle(_tile_codes(n, kind)))
        want = bitunshuffle(decode_zero_blocks(encoded), n)
        tiles = TileDecoder(encoded, n, Scratch())
        assert np.array_equal(tiles.codes(0, n), want)
        for lo, hi in ((n // 3, n), (0, (n + 1) // 2), (n - 1, n)):
            assert np.array_equal(tiles.codes(lo, hi), want[lo:hi])

    def test_decode_ladder_matches_staged(self, n, kind):
        encoded = encode_zero_blocks(bitshuffle(_tile_codes(n, kind)))
        forged = [
            dataclasses.replace(encoded, n_blocks=-1),
            dataclasses.replace(encoded, n_nonzero=encoded.n_nonzero + 1),
            dataclasses.replace(encoded, bitflags=encoded.bitflags[:-1]),
        ]
        for bad in forged:
            with pytest.raises(DecompressionError) as staged:
                decode_zero_blocks(bad)
            with pytest.raises(DecompressionError, match=re.escape(str(staged.value))):
                TileDecoder(bad, n, Scratch())
        with pytest.raises(DecompressionError, match="codes"):
            TileDecoder(encoded, 2 * encoded.n_blocks * 4 + 1, Scratch())


#: Tiles [1, 3) of every mixed-flag stream are all zero: a literal-free run.
ZERO_TILES = (1, 3)


def _mixed_codes(n: int) -> np.ndarray:
    """Small-magnitude signed codes: a tile's bit planes mix zero and
    literal blocks, unlike the all-zero / all-nonzero oracle codes, so a
    gather or scatter that walks the blocks out of stream order shows."""
    rng = np.random.default_rng(n + 7)
    codes = rng.integers(0, 6, size=n, dtype=np.uint16)
    codes[rng.random(n) < 0.3] |= 0x8000  # some negative residuals
    codes[rng.random(n) < 0.5] = 0
    codes[ZERO_TILES[0] * TILE_CODES : ZERO_TILES[1] * TILE_CODES] = 0
    codes[0] = 5  # a literal even in a one-code stream
    return codes


@pytest.mark.parametrize("n", TILE_COUNTS)
class TestTileCodecMixedFlags:
    """The tile codec's mask gather and scatter, on tiles whose blocks mix
    zero and literal flags, and across a run of literal-free tiles."""

    def test_encode_matches_staged(self, n):
        codes = _mixed_codes(n)
        want = encode_zero_blocks(bitshuffle(codes))
        flags = np.unpackbits(want.bitflags, bitorder="little")[:256]
        assert 0 < flags.sum() < 256  # the first tile mixes its flags
        padded = np.zeros(-(-n // TILE_CODES) * TILE_CODES, np.uint16)
        padded[:n] = codes
        whole = join_tiles([encode_tiles(padded, Scratch())])
        scratch = Scratch()
        per_tile = join_tiles([
            encode_tiles(padded[lo : lo + TILE_CODES], scratch)
            for lo in range(0, padded.size, TILE_CODES)
        ])
        for got in (whole, per_tile):
            assert got.n_blocks == want.n_blocks
            assert got.n_nonzero == want.n_nonzero
            assert np.array_equal(got.bitflags, want.bitflags)
            assert np.array_equal(got.literals, want.literals)

    def test_decode_matches_staged(self, n):
        encoded = encode_zero_blocks(bitshuffle(_mixed_codes(n)))
        want = bitunshuffle(decode_zero_blocks(encoded), n)
        tiles = TileDecoder(encoded, n, Scratch())
        edge = TILE_CODES
        ranges = [(0, n), (edge - 5, edge + 7), (n // 3, n), (1, n - 1),
                  (n - 1, n), (2 * edge - 1, 4 * edge + 1)]
        if n > ZERO_TILES[1] * TILE_CODES:
            # tiles [1, 3) hold no literal, so their scatter is skipped
            lo, hi = (t * TILE_CODES for t in ZERO_TILES)
            flags = np.unpackbits(encoded.bitflags, bitorder="little")
            assert not flags[lo // 8 : hi // 8].any()
            ranges += [(lo, hi), (lo + 3, hi - 5)]
        for lo, hi in ranges:
            lo, hi = max(0, min(lo, n)), max(0, min(hi, n))
            if lo < hi:
                assert np.array_equal(tiles.codes(lo, hi), want[lo:hi]), (lo, hi)


def _batch_ranges(n: int, batch: int) -> list[tuple[int, int]]:
    """Code ranges that walk a stream the ways its decoders do."""
    return [
        (0, 100), (batch - 5, batch + 7),  # a range straddling the batch
        (batch + 7, batch + 9),  # ...then one inside the new batch
        (100, 2 * batch + 50),  # longer than a batch
        (2 * batch, n), (batch, 2 * batch), (0, batch),  # backwards
        (n - 3, n), (n // 2 - 1, n // 2 + 1), (1, 2),  # backwards, small
    ]


@pytest.mark.parametrize("batch_tiles", [None, 3])
def test_tile_decoder_batches(batch_tiles, monkeypatch):
    """Ranges inside the decoded batch are served from it; any other range
    decodes a new batch from its own first tile.  Either way every range
    reads the encoded codes."""
    if batch_tiles is not None:
        monkeypatch.setattr(fused, "TILE_BATCH_CODES", batch_tiles * TILE_CODES)
    batch = fused.TILE_BATCH_CODES
    n = 2 * batch + 3 * TILE_CODES + 100
    codes = _mixed_codes(n)
    encoded = encode_zero_blocks(bitshuffle(codes))
    tiles = TileDecoder(encoded, n, Scratch())
    for lo, hi in _batch_ranges(n, batch):
        assert np.array_equal(tiles.codes(lo, hi), codes[lo:hi]), (lo, hi)
    # a forward walk in quarter batches transposes each batch once
    transposes = []
    transpose = fused._transpose_bitplanes
    monkeypatch.setattr(
        fused, "_transpose_bitplanes",
        lambda B, scratch: transposes.append(B.shape[1]) or transpose(B, scratch),
    )
    tiles = TileDecoder(encoded, n, Scratch())
    step = batch // 4
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        assert np.array_equal(tiles.codes(lo, hi), codes[lo:hi]), (lo, hi)
    assert len(transposes) == -(-n // batch)
