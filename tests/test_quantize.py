"""Tests for dual-quantization: error bounds, sign-magnitude codes, outliers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.quantize import (
    MAX_MAGNITUDE,
    SIGN_BIT,
    decode_radius_shift,
    decode_sign_magnitude,
    dequantize,
    dual_dequantize,
    dual_quantize,
    encode_radius_shift,
    encode_sign_magnitude,
    prequantize,
)
from repro.errors import ConfigError, UnsupportedDataError

finite_f32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


class TestPrequantize:
    def test_error_bound_invariant(self, rng):
        data = rng.uniform(-100, 100, size=5000).astype(np.float32)
        for eb in [1.0, 0.1, 1e-3]:
            q = prequantize(data, eb)
            recon = dequantize(q, eb)
            assert np.abs(recon - data).max() <= eb * (1 + 1e-6)

    def test_rounds_to_nearest(self):
        # d=0.9, eb=0.5 -> grid 1.0 -> q = round(0.9) = 1
        assert prequantize(np.float32([0.9]), 0.5)[0] == 1
        assert prequantize(np.float32([-0.9]), 0.5)[0] == -1
        assert prequantize(np.float32([0.4]), 0.5)[0] == 0

    def test_rejects_nonpositive_eb(self):
        with pytest.raises(ConfigError):
            prequantize(np.float32([1.0]), 0.0)
        with pytest.raises(ConfigError):
            prequantize(np.float32([1.0]), -1.0)

    def test_rejects_integer_input(self):
        with pytest.raises(UnsupportedDataError):
            prequantize(np.array([1, 2, 3]), 0.5)

    def test_float64_downcast_accepted(self):
        q = prequantize(np.array([1.0, 2.0]), 0.5)
        assert q.dtype == np.int64

    @given(hnp.arrays(np.float32, st.integers(1, 100), elements=finite_f32))
    def test_error_bound_property(self, data):
        eb = 0.01 * max(1.0, float(np.abs(data).max()))
        recon = dequantize(prequantize(data, eb), eb)
        assert np.abs(recon - data).max() <= eb * (1 + 1e-5)


class TestSignMagnitude:
    def test_positive_small(self):
        codes, stats = encode_sign_magnitude(np.array([0, 1, 5, 100]))
        np.testing.assert_array_equal(codes, [0, 1, 5, 100])
        assert stats.n_saturated == 0

    def test_negative_sets_msb_only(self):
        codes, _ = encode_sign_magnitude(np.array([-1]))
        assert codes[0] == (1 | int(SIGN_BIT))
        # crucial §3.2 property: -1 has exactly 2 set bits, not 16
        assert int(codes[0]).bit_count() == 2

    def test_twos_complement_would_be_dense(self):
        """Documents why sign-magnitude matters: -1 as i16 is all ones."""
        assert int(np.int16(-1).view(np.uint16)).bit_count() == 16

    def test_roundtrip(self, rng):
        delta = rng.integers(-MAX_MAGNITUDE, MAX_MAGNITUDE + 1, size=1000)
        codes, stats = encode_sign_magnitude(delta)
        assert stats.n_saturated == 0
        np.testing.assert_array_equal(decode_sign_magnitude(codes), delta)

    def test_saturation_counted_and_clamped(self):
        delta = np.array([MAX_MAGNITUDE, MAX_MAGNITUDE + 1, -(MAX_MAGNITUDE + 500)])
        codes, stats = encode_sign_magnitude(delta)
        assert stats.n_saturated == 2
        assert stats.max_abs_delta == MAX_MAGNITUDE + 500
        decoded = decode_sign_magnitude(codes)
        np.testing.assert_array_equal(decoded, [MAX_MAGNITUDE, MAX_MAGNITUDE, -MAX_MAGNITUDE])

    def test_negative_zero_is_zero(self):
        codes, _ = encode_sign_magnitude(np.array([0]))
        assert codes[0] == 0

    @given(hnp.arrays(np.int64, st.integers(1, 200), elements=st.integers(-32767, 32767)))
    def test_roundtrip_property(self, delta):
        codes, stats = encode_sign_magnitude(delta)
        assert codes.dtype == np.uint16
        np.testing.assert_array_equal(decode_sign_magnitude(codes), delta)


class TestRadiusShift:
    def test_in_range_shifted(self):
        codes, oi, ov, stats = encode_radius_shift(np.array([-5, 0, 5]), radius=512)
        np.testing.assert_array_equal(codes, [507, 512, 517])
        assert oi.size == 0 and stats.n_outliers == 0

    def test_outliers_exact(self):
        delta = np.array([0, 600, -9999, 3])
        codes, oi, ov, stats = encode_radius_shift(delta, radius=512)
        assert stats.n_outliers == 2
        np.testing.assert_array_equal(oi, [1, 2])
        np.testing.assert_array_equal(ov, [600, -9999])
        np.testing.assert_array_equal(decode_radius_shift(codes, oi, ov, 512), delta)

    def test_boundary_is_outlier(self):
        # |delta| == radius is out of range (paper: -r < q < r)
        _, oi, _, _ = encode_radius_shift(np.array([512, -512, 511, -511]), radius=512)
        np.testing.assert_array_equal(oi, [0, 1])

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            encode_radius_shift(np.array([0]), radius=0)
        with pytest.raises(ValueError):
            encode_radius_shift(np.array([0]), radius=40000)

    @given(hnp.arrays(np.int64, st.integers(1, 100), elements=st.integers(-100000, 100000)))
    def test_roundtrip_property(self, delta):
        codes, oi, ov, _ = encode_radius_shift(delta, radius=512)
        np.testing.assert_array_equal(decode_radius_shift(codes, oi, ov, 512), delta)


class TestDualQuantize:
    @pytest.mark.parametrize("shape", [(777,), (33, 41), (9, 10, 11)])
    def test_roundtrip_error_bound(self, rng, shape):
        data = np.cumsum(
            rng.standard_normal(np.prod(shape)).astype(np.float32)
        ).reshape(shape)
        eb = 1e-3 * float(data.max() - data.min())
        codes, padded, stats = dual_quantize(data, eb)
        recon = dual_dequantize(codes, padded, shape, eb)
        assert recon.shape == shape
        if stats.n_saturated == 0:
            assert np.abs(recon - data).max() <= eb * (1 + 1e-5)

    def test_codes_are_flat_uint16(self, smooth_2d):
        codes, padded, _ = dual_quantize(smooth_2d, 1e-3)
        assert codes.dtype == np.uint16 and codes.ndim == 1
        assert codes.size == int(np.prod(padded))

    def test_smooth_data_mostly_small_codes(self, smooth_2d):
        codes, _, stats = dual_quantize(smooth_2d, 1e-3)
        assert stats.n_saturated == 0
        mags = codes & 0x7FFF
        assert np.percentile(mags, 95) < 64


class TestBoundTooSmallToQuantize:
    """A bound so small that ``d / 2eb`` leaves int64 is a typed error, not
    a silent overflow that decodes far outside the bound."""

    FIELD = np.linspace(1, 2, 64, dtype=np.float32)

    @staticmethod
    def _compressors():
        from repro.core.pipeline import FZGPU
        from repro.engine import Engine
        from repro.planner import compress_with_plan

        out = {
            f"FZGPU[{b}]": lambda x, eb, b=b: FZGPU(backend=b).compress(x, eb, "abs")
            for b in ("fused", "reference")
        }
        for plan in ("fast", "interp", "auto"):
            out[f"compress_with_plan[{plan}]"] = (
                lambda x, eb, p=plan: compress_with_plan(x, eb, "abs", plan=p)
            )
            out[f"compress_chunked[{plan}]"] = (
                lambda x, eb, p=plan: Engine().compress_chunked(x, eb, "abs", plan=p)
            )
        return out

    @pytest.mark.parametrize("eb", [1e-300, 1e-30])
    def test_tiny_bound_is_a_typed_error(self, eb):
        import warnings

        from repro.errors import ReproError

        for name, compress in self._compressors().items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ReproError, match="too small"):
                    compress(self.FIELD, eb)

    def test_saturating_bound_still_returns(self):
        from repro.planner import compress_with_plan, decompress_any

        for plan in ("fast", "interp", "auto"):
            res = compress_with_plan(self.FIELD, 1e-18, "abs", plan=plan)
            assert decompress_any(res.stream).shape == self.FIELD.shape
            if res.plan == "fast":
                assert res.quantizer.n_saturated > 0

    def test_prequantize_limit(self):
        from repro.core.quantize import QUANT_LIMIT

        assert prequantize(np.float32([1.0]), 1.0 / QUANT_LIMIT)[0] == 2**59
        with pytest.raises(ConfigError):
            prequantize(np.float32([2.0]), 1.0 / QUANT_LIMIT)
