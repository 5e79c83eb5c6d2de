"""Tests for repro.utils.chunking: padding and blocked views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.utils.chunking import (
    DEFAULT_CHUNKS,
    block_view,
    chunk_shape_for,
    n_chunks,
    pad_to_multiple,
    unblock_view,
)


class TestChunkShape:
    @pytest.mark.parametrize("ndim,expected", [(1, (256,)), (2, (16, 16)), (3, (8, 8, 8))])
    def test_defaults_match_cusz_geometry(self, ndim, expected):
        assert chunk_shape_for(ndim) == expected

    def test_override(self):
        assert chunk_shape_for(2, (4, 8)) == (4, 8)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            chunk_shape_for(4)

    def test_rejects_mismatched_override(self):
        with pytest.raises(ConfigError):
            chunk_shape_for(2, (4,))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            chunk_shape_for(1, (0,))

    def test_rejects_edges_beyond_u16_header_field(self):
        assert chunk_shape_for(1, (65535,)) == (65535,)
        with pytest.raises(ConfigError):
            chunk_shape_for(1, (65536,))


class TestPadding:
    def test_no_copy_when_aligned(self):
        data = np.zeros((16, 32))
        assert pad_to_multiple(data, (16, 16)) is data

    def test_pads_with_zeros(self):
        data = np.ones((5,))
        padded = pad_to_multiple(data, (8,))
        assert padded.shape == (8,)
        np.testing.assert_array_equal(padded[5:], 0)

    def test_3d(self):
        padded = pad_to_multiple(np.ones((9, 10, 11)), (8, 8, 8))
        assert padded.shape == (16, 16, 16)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            pad_to_multiple(np.ones((4, 4)), (4,))


class TestBlockView:
    def test_roundtrip_2d(self, rng):
        data = rng.integers(0, 100, size=(32, 48))
        blocks = block_view(data, (16, 16))
        assert blocks.shape == (2, 3, 16, 16)
        np.testing.assert_array_equal(unblock_view(blocks, data.shape), data)

    def test_blocks_are_spatial_tiles(self):
        data = np.arange(16).reshape(4, 4)
        blocks = block_view(data, (2, 2))
        np.testing.assert_array_equal(blocks[0, 0], [[0, 1], [4, 5]])
        np.testing.assert_array_equal(blocks[1, 1], [[10, 11], [14, 15]])

    def test_roundtrip_3d(self, rng):
        data = rng.integers(0, 100, size=(8, 16, 24))
        blocks = block_view(data, (8, 8, 8))
        assert blocks.shape == (1, 2, 3, 8, 8, 8)
        np.testing.assert_array_equal(unblock_view(blocks, data.shape), data)

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            block_view(np.zeros((10, 10)), (16, 16))

    def test_n_chunks_counts_partials(self):
        assert n_chunks((100,), (256,)) == 1
        assert n_chunks((300,), (256,)) == 2
        assert n_chunks((17, 33), (16, 16)) == 2 * 3
