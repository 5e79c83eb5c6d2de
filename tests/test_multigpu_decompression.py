"""Tests for the decompression performance model."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FZGPU
from repro.datasets import generate
from repro.gpu import A100
from repro.gpu.cost import pipeline_time
from repro.perf import measure_throughput
from repro.perf.decompression import (
    cusz_decompression_profiles,
    fzgpu_decompression_profiles,
)


class TestDecompressionModel:
    @pytest.fixture(scope="class")
    def setup(self):
        data = generate("hurricane", shape=(24, 64, 64)).data
        result = FZGPU().compress(data, 1e-3, "rel")
        return data, result

    def test_fz_decompression_nearly_symmetric(self, setup):
        """§4.4: decompression throughput ~ compression throughput."""
        data, result = setup
        n = data.size
        comp = measure_throughput("fz-gpu", data, A100, eb=1e-3)
        dec_times = pipeline_time(fzgpu_decompression_profiles(n, result), A100)
        dec_gbps = 4.0 * n / dec_times["total"] / 1e9
        assert 0.5 < dec_gbps / comp.throughput_gbps < 1.5

    def test_cusz_decode_slower_than_fz_decode(self, setup):
        data, result = setup
        n = data.size
        from repro.baselines import CuSZ

        extras = CuSZ().compress(data, eb=1e-3, mode="rel").extras
        fz_t = pipeline_time(fzgpu_decompression_profiles(n, result), A100)["total"]
        cz_t = pipeline_time(cusz_decompression_profiles(n, extras), A100)["total"]
        assert cz_t > fz_t

    def test_decompression_kernels_named(self, setup):
        data, result = setup
        profiles = fzgpu_decompression_profiles(data.size, result)
        names = [p.name for p in profiles]
        assert names == ["decode-scatter", "bit-unshuffle", "lorenzo-reconstruct"]


class TestDirectionParameter:
    @pytest.fixture(scope="class")
    def data(self):
        return generate("hurricane", shape=(24, 64, 64)).data

    def test_decompress_direction(self, data):
        fz_c = measure_throughput("fz-gpu", data, A100, eb=1e-3)
        fz_d = measure_throughput(
            "fz-gpu", data, A100, eb=1e-3, direction="decompress"
        )
        assert "decode-scatter" in fz_d.kernel_times
        assert 0.5 < fz_d.throughput_gbps / fz_c.throughput_gbps < 1.5

    def test_cusz_decompress_direction(self, data):
        rep = measure_throughput(
            "cusz", data, A100, eb=1e-3, direction="decompress"
        )
        assert "huffman-decode" in rep.kernel_times

    def test_invalid_direction(self, data):
        with pytest.raises(ValueError):
            measure_throughput("fz-gpu", data, A100, direction="sideways")

    def test_unsupported_codec_direction(self, data):
        with pytest.raises(ValueError):
            measure_throughput("cuszx", data, A100, direction="decompress")
