"""Adaptive per-chunk planner: probe, routing, predictors, and integration.

Covers the ``repro.planner`` subsystem end to end:

* probe + ``decide()`` routing units (constant shortcut, entropy margins);
* the cubic interpolation predictor — reference vs vectorized pass
  byte-identity, error bounds across shapes and Table-1-style field kinds,
  FZIN framing rejection;
* the constant-block shortcut and its FZCN framing;
* ``compress_with_plan``/``decompress_any`` dispatch, including the
  byte-identity guarantee of ``plan="fast"``;
* Engine integration: mixed-plan containers bit-identical across
  thread/process pools and every kernel backend, ``FileReport.plans``;
* the serve knob (``plan=`` validation and the forced-plan trust model),
  the CLI ``--plan``/``info``/``stats`` surfaces, and salvage of corrupt
  interp/constant segments (chaos regression).
"""

from __future__ import annotations

import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.pipeline import FZGPU
from repro.engine import Engine, read_containers
from repro.errors import ConfigError, FormatError
from repro.planner import (
    CONSTANT_MAGIC,
    INTERP_MAGIC,
    PLAN_CONST,
    PLAN_FAST,
    PLAN_INTERP,
    ChunkProbe,
    PlanPolicy,
    compress_with_plan,
    constant_compress,
    constant_decompress,
    constant_info,
    constant_qualifies,
    decide,
    decompress_any,
    default_anchor_log2,
    interp_compress,
    interp_decompress,
    interp_info,
    normalize_plan,
    plan_id,
    plan_name,
    probe_chunk,
)
from repro.planner.probe import DEFAULT_SAMPLES

EB = 1e-3


def _smooth(n: int = 8192) -> np.ndarray:
    """Low-curvature field: polynomial, so the cubic predictor near-zeros it."""
    x = np.linspace(0.0, 1.0, n, dtype=np.float64)
    return (x**3 - 0.4 * x**2 + 0.1 * x).astype(np.float32)


def _rough(n: int = 8192, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n).astype(np.float32)


def _mixed_field(n: int = 16384) -> np.ndarray:
    """Constant + quadratic + noise thirds: routes to all three plans.

    The quadratic's 2^-15 scale keeps the worst edge-fallback prediction
    error inside the uint16 residual magnitude at ``EB`` (no saturation),
    while its first differences still carry high Lorenzo entropy.
    """
    j = np.arange(n, dtype=np.int64)
    quad = (j * j).astype(np.float64) / np.float64(32768.0)
    return np.concatenate(
        [np.full(n, 3.25, np.float32), quad.astype(np.float32), _rough(n)]
    )


def _bound_ok(data: np.ndarray, recon: np.ndarray, eb_abs: float) -> bool:
    err = np.abs(recon.astype(np.float64) - data.astype(np.float64)).max()
    ulp = float(np.spacing(np.float32(np.abs(data).max(initial=0.0))))
    return err <= eb_abs * (1.0 + 1e-5) + ulp


# ---------------------------------------------------------------------------
# taxonomy + probe + decide
# ---------------------------------------------------------------------------


class TestPlanTaxonomy:
    def test_normalize_defaults_and_validates(self):
        assert normalize_plan(None) == "fast"
        for p in ("auto", "fast", "ratio", "interp", "constant"):
            assert normalize_plan(p) == p
        with pytest.raises(ConfigError):
            normalize_plan("bogus")
        with pytest.raises(ConfigError):
            normalize_plan("interp", allowed=("auto", "fast", "ratio"))

    def test_ids_and_names_roundtrip(self):
        for pid, name in ((0, "fast"), (1, "interp"), (2, "constant")):
            assert plan_id(name) == pid
            assert plan_name(pid) == name
        with pytest.raises(ConfigError):
            plan_id("auto")  # request plan, not a segment plan
        with pytest.raises(ConfigError):
            plan_name(3)


class TestProbe:
    def test_constant_chunk_short_circuits(self):
        p = probe_chunk(np.full(4096, 2.5, np.float32), EB)
        assert p.constant_ok and p.n_sampled == 0
        assert p.lo == p.hi == 2.5

    def test_near_constant_within_bound_qualifies(self):
        data = np.full(512, 1.0, np.float32)
        data[3] = 1.0 + 1.5 * EB  # range < 2*eb
        assert probe_chunk(data, EB).constant_ok

    def test_nan_never_qualifies_constant(self):
        data = np.full(64, 1.0, np.float32)
        data[1] = np.nan
        assert not probe_chunk(data, EB).constant_ok

    def test_entropy_ordering_smooth_vs_rough(self):
        smooth = probe_chunk(_smooth(), 1e-5)
        rough = probe_chunk(_rough(), 1e-3)
        # smooth: curvature (interp proxy) far below first-difference cost
        assert smooth.interp_bits < 0.75 * smooth.lorenzo_bits
        # rough: switching predictors buys nothing
        assert rough.interp_bits > 0.75 * rough.lorenzo_bits

    def test_empty_chunk(self):
        p = probe_chunk(np.empty(0, np.float32), EB)
        assert p.constant_ok and p.n_sampled == 0

    def test_sample_budget_respected(self):
        p = probe_chunk(_rough(1 << 18), EB, max_samples=1024)
        assert 0 < p.n_sampled <= 1024


def _probe_loop_oracle(data, eb_abs, max_samples=DEFAULT_SAMPLES):
    """``probe_chunk`` as it was before it was vectorized: one Python-level
    window at a time, histograms by ``np.unique``."""

    def entropy_bits(codes):
        if codes.size == 0:
            return 0.0
        _, counts = np.unique(codes, return_counts=True)
        p = counts / codes.size
        return float(-(p * np.log2(p)).sum())

    flat = np.asarray(data).reshape(-1)
    if flat.size == 0:
        return ChunkProbe(0.0, 0.0, True, 1.0, 0.0, 0.0, 0)
    lo, hi = float(flat.min()), float(flat.max())
    if math.isfinite(lo) and math.isfinite(hi) and hi - lo <= 2.0 * eb_abs:
        return ChunkProbe(lo, hi, True, 1.0, 0.0, 0.0, 0)
    window = min(512, flat.size)
    n_windows = max(1, min(max_samples // window, flat.size // window))
    starts = np.linspace(0, flat.size - window, n_windows, dtype=np.int64)
    d1_parts, d2_parts, sampled = [], [], 0
    for s in starts:
        win = flat[int(s) : int(s) + window].astype(np.float64)
        q = np.rint(win / (2.0 * eb_abs))
        sampled += q.size
        if q.size >= 2:
            d1_parts.append(np.clip(np.diff(q), -4096, 4096))
        if q.size >= 3:
            half_d2 = np.rint((q[2:] - 2.0 * q[1:-1] + q[:-2]) * 0.5)
            d2_parts.append(np.clip(half_d2, -4096, 4096))
    d1 = np.concatenate(d1_parts) if d1_parts else np.empty(0)
    d2 = np.concatenate(d2_parts) if d2_parts else np.empty(0)
    zero_fraction = (
        float(np.count_nonzero(d1 == 0)) / d1.size if d1.size else 1.0
    )
    return ChunkProbe(
        lo, hi, False, zero_fraction, entropy_bits(d1), entropy_bits(d2), sampled
    )


def _probe_inputs():
    rng = np.random.default_rng(2024)
    walk = np.cumsum(rng.standard_normal((24, 40, 33)), axis=2)
    spiky = _rough(5000)
    spiky[::97] = np.inf
    spiky[5] = np.nan
    return {
        "random": rng.random(70_000).astype(np.float32),
        "rough": _rough(1 << 16),
        "walk3d": walk.astype(np.float32),
        "fortran": np.asfortranarray(walk).astype(np.float32),
        "smooth": _smooth(),
        "constant": np.full((30, 40), -1.5, np.float32),
        "n1": _rough(1),
        "n2": _rough(2),
        "n3": _rough(3),
        "n300": _rough(300),
        "n511": _rough(511),
        "n513": _rough(513),
        "nonfinite": spiky,
    }


@pytest.mark.parametrize("name", list(_probe_inputs()))
@pytest.mark.parametrize("eb", [1e-4, EB, 0.5, 1e-40])
def test_probe_matches_loop_oracle(name, eb):
    """The vectorized probe equals the per-window loop field for field
    (repr compares floats bit for bit, NaN and signed zero included)."""
    data = _probe_inputs()[name]
    for max_samples in (DEFAULT_SAMPLES, 1000):
        got = probe_chunk(data, eb, max_samples)
        assert repr(got) == repr(_probe_loop_oracle(data, eb, max_samples))


class TestDecide:
    def _probe(self, **kw) -> ChunkProbe:
        base = dict(
            lo=0.0, hi=1.0, constant_ok=False, zero_fraction=0.0,
            lorenzo_bits=4.0, interp_bits=1.0, n_sampled=512,
        )
        base.update(kw)
        return ChunkProbe(**base)

    def test_fast_request_never_probes_anything_else(self):
        assert decide(self._probe(constant_ok=True), "fast") == PLAN_FAST

    def test_constant_beats_everything_under_auto(self):
        assert decide(self._probe(constant_ok=True), "auto") == PLAN_CONST

    def test_auto_needs_clear_margin(self):
        assert decide(self._probe(interp_bits=1.0), "auto") == PLAN_INTERP
        assert decide(self._probe(interp_bits=3.9), "auto") == PLAN_FAST

    def test_ratio_uses_looser_margin(self):
        p = self._probe(interp_bits=3.9)  # within 1.0x but not 0.75x
        assert decide(p, "auto") == PLAN_FAST
        assert decide(p, "ratio") == PLAN_INTERP

    def test_low_lorenzo_entropy_stays_fast(self):
        p = self._probe(lorenzo_bits=0.3, interp_bits=0.0)
        assert decide(p, "auto") == PLAN_FAST
        assert decide(p, "ratio") == PLAN_FAST

    def test_forced_constant_degrades_when_not_qualifying(self):
        assert decide(self._probe(constant_ok=False), "constant") == PLAN_FAST
        assert decide(self._probe(constant_ok=True), "constant") == PLAN_CONST

    def test_forced_interp_bypasses_thresholds(self):
        p = self._probe(lorenzo_bits=0.1, interp_bits=5.0)
        assert decide(p, "interp") == PLAN_INTERP

    def test_custom_policy(self):
        p = self._probe(lorenzo_bits=4.0, interp_bits=3.9)
        strict = PlanPolicy(interp_margin_auto=0.5, interp_margin_ratio=0.5,
                            min_lorenzo_bits=0.5)
        assert decide(p, "ratio", strict) == PLAN_FAST


# ---------------------------------------------------------------------------
# interpolation predictor (FZIN)
# ---------------------------------------------------------------------------

SHAPES = [(1,), (5,), (200,), (4097,), (7, 9), (96, 128), (65, 1, 3),
          (17, 19, 23)]


class TestInterp:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_reference_vectorized_byte_identical(self, shape, rng):
        data = rng.standard_normal(shape).astype(np.float32)
        ref = interp_compress(data, EB, impl="reference").stream
        vec = interp_compress(data, EB, impl="vectorized").stream
        assert ref == vec
        assert np.array_equal(
            interp_decompress(ref, impl="reference"),
            interp_decompress(vec, impl="vectorized"),
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_roundtrip_within_bound(self, shape, rng):
        data = rng.standard_normal(shape).astype(np.float32)
        res = interp_compress(data, EB)
        recon = interp_decompress(res.stream)
        assert recon.shape == data.shape and recon.dtype == np.float32
        if res.quantizer.n_saturated == 0:
            assert _bound_ok(data, recon, EB)

    def test_smooth_field_beats_fused_ratio(self):
        data = _smooth()
        fast = FZGPU().compress(data, EB, "abs")
        interp = interp_compress(data, EB)
        assert interp.compressed_bytes < fast.compressed_bytes

    def test_env_var_selects_nothing(self, monkeypatch, rng):
        data = rng.standard_normal(300).astype(np.float32)
        ref = interp_compress(data, EB, impl="reference").stream
        # the environment selects nothing: the default is always vectorized
        monkeypatch.setenv("REPRO_INTERP_IMPL", "bogus")
        assert interp_compress(data, EB).stream == ref
        assert interp_compress(data, EB, impl="auto").stream == ref
        with pytest.raises(ConfigError):
            interp_compress(data, EB, impl="bogus")

    def test_stream_magic_and_plan(self, rng):
        res = interp_compress(rng.standard_normal(100).astype(np.float32), EB)
        assert res.stream[:4] == INTERP_MAGIC
        assert res.plan == "interp"
        assert res.stage_sizes["anchors_bytes"] > 0

    def test_anchor_log2_default_by_ndim(self):
        assert default_anchor_log2((1 << 12,)) == 6
        assert default_anchor_log2((64, 64)) == 4
        assert default_anchor_log2((16, 16, 16)) == 4

    def test_info_reports_header_facts(self, rng):
        data = rng.standard_normal((40, 30)).astype(np.float32)
        res = interp_compress(data, EB)
        inf = interp_info(res.stream)
        assert inf["shape"] == (40, 30)
        assert inf["eb_abs"] == EB
        assert inf["n_nonzero"] == res.n_nonzero_blocks

    @pytest.mark.parametrize("mutate", ["magic", "truncate", "flip", "grow"])
    def test_framing_rejected(self, mutate, rng):
        blob = interp_compress(
            rng.standard_normal(500).astype(np.float32), EB
        ).stream
        if mutate == "magic":
            bad = b"XXXX" + blob[4:]
        elif mutate == "truncate":
            bad = blob[:-3]
        elif mutate == "flip":
            bad = blob[:30] + bytes([blob[30] ^ 0x01]) + blob[31:]
        else:
            bad = blob + b"\0"
        with pytest.raises(FormatError):
            interp_decompress(bad)
        with pytest.raises(FormatError):
            interp_info(bad)


#: the identity property runs deeper under RUN_SLOW (the CI planner job)
_IDENTITY_EXAMPLES = 400 if os.environ.get("RUN_SLOW") else 40


@st.composite
def _interp_cases(draw):
    """(data, eb, anchor_log2, spiked): run-boundary shapes, all kinds."""
    anchor_log2 = draw(st.integers(1, 5))
    s = 1 << anchor_log2
    shape: list[int] = []
    for _ in range(draw(st.integers(1, 3))):
        budget = (1 << 15) // math.prod(shape)
        lengths = [n for n in (1, s, 2 * s, 2 * s + 1, 3 * s, 4 * s + 1)
                   if n <= budget]
        shape.append(draw(st.sampled_from(lengths)))
    eb = draw(st.sampled_from([1e-6, 1e-4, 1e-2, 1.0])) * draw(
        st.floats(1.0, 9.9)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["smooth", "rough", "spiky"]))
    data = rng.standard_normal(shape)
    if kind != "rough":
        for axis in range(len(shape)):
            data = np.cumsum(data, axis=axis)
    # a spike ~10**6 quanta tall on a predicted (non-anchor) point
    # saturates its residual
    grid = np.indices(shape).reshape(len(shape), -1)
    free = np.flatnonzero((grid % s != 0).any(axis=0))
    spiked = kind == "spiky" and free.size > 0
    if spiked:
        data.reshape(-1)[rng.choice(free)] += rng.choice([-1e6, 1e6]) * eb
    data = data.astype(np.float32)
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        data = np.asfortranarray(data)
    elif layout == "strided":
        data = np.repeat(data, 2, axis=-1)[..., ::2]
    return data, eb, anchor_log2, spiked


def _pass_case(shape, order, anchor_log2=2, eb=1e-3):
    """A smooth field for an explicit identity example."""
    rng = np.random.default_rng(sum(shape))
    data = rng.standard_normal(shape)
    for axis in range(len(shape)):
        data = np.cumsum(data, axis=axis)
    data = np.asarray(data.astype(np.float32), order=order)
    return data, eb, anchor_log2, False


@given(case=_interp_cases())
@settings(max_examples=_IDENTITY_EXAMPLES, deadline=None)
# the finest last-axis pass runs on flat views for a C-contiguous field of
# even last dimension 8 or more, else on the strided runs
@example(case=_pass_case((6, 16), "C"))
@example(case=_pass_case((3, 5, 8), "C", anchor_log2=3))
@example(case=_pass_case((40,), "C", anchor_log2=1))
@example(case=_pass_case((5, 9, 10), "C"))
@example(case=_pass_case((7, 9), "C"))
@example(case=_pass_case((4, 6), "C"))
@example(case=_pass_case((6, 16), "F"))
@example(case=_pass_case((5, 11, 12), "F"))
@example(case=_pass_case((3, 17), "F"))
def test_interp_impls_identical(case):
    """impl="vectorized" matches the reference oracle byte for byte."""
    data, eb, anchor_log2, spiked = case
    ref = interp_compress(data, eb, anchor_log2=anchor_log2, impl="reference")
    vec = interp_compress(data, eb, anchor_log2=anchor_log2, impl="vectorized")
    assert vec.stream == ref.stream
    assert vec.quantizer == ref.quantizer
    assert ref.quantizer.n_saturated > 0 or not spiked
    dec_ref = interp_decompress(ref.stream, impl="reference")
    dec_vec = interp_decompress(vec.stream, impl="vectorized")
    assert np.array_equal(dec_ref.view(np.uint32), dec_vec.view(np.uint32))


# ---------------------------------------------------------------------------
# constant shortcut (FZCN)
# ---------------------------------------------------------------------------


class TestConstant:
    def test_qualify_rule(self):
        assert constant_qualifies(1.0, 1.0 + 1.9 * EB, EB)
        assert not constant_qualifies(1.0, 1.0 + 2.5 * EB, EB)
        assert not constant_qualifies(float("nan"), 1.0, EB)

    def test_roundtrip_midpoint_fill(self):
        data = np.full((8, 16), 4.25, np.float32)
        data[0, 0] = 4.25 - EB
        res = constant_compress(data, EB)
        assert res.stream[:4] == CONSTANT_MAGIC
        assert res.plan == "constant"
        recon = constant_decompress(res.stream)
        assert recon.shape == data.shape
        assert _bound_ok(data, recon, EB)

    def test_high_ratio(self):
        res = constant_compress(np.full(1 << 16, 1.5, np.float32), EB)
        assert res.original_bytes / res.compressed_bytes > 1000

    def test_nonqualifying_chunk_raises(self):
        from repro.errors import UnsupportedDataError

        with pytest.raises(ConfigError):
            constant_compress(np.linspace(0, 1, 64).astype(np.float32), EB)
        with pytest.raises(UnsupportedDataError):
            constant_compress(np.empty(0, np.float32), EB)

    def test_info_and_framing(self):
        blob = constant_compress(np.full((4, 5), 2.0, np.float32), EB).stream
        inf = constant_info(blob)
        assert inf["shape"] == (4, 5) and inf["fill"] == 2.0
        with pytest.raises(FormatError):
            constant_decompress(blob[:-1])
        flipped = blob[:20] + bytes([blob[20] ^ 0x10]) + blob[21:]
        with pytest.raises(FormatError):
            constant_decompress(flipped)
        with pytest.raises(FormatError):
            constant_info(flipped)


# ---------------------------------------------------------------------------
# plan codec: compress_with_plan / decompress_any
# ---------------------------------------------------------------------------


class TestPlanCodec:
    def test_fast_request_byte_identical_to_codec(self, smooth_2d):
        direct = FZGPU().compress(smooth_2d, EB, "abs").stream
        planned = compress_with_plan(smooth_2d, EB, "abs", plan="fast").stream
        assert planned == direct

    @pytest.mark.parametrize("plan", ["auto", "fast", "ratio", "interp",
                                      "constant"])
    @pytest.mark.parametrize("kind", ["smooth", "rough", "constant"])
    def test_every_plan_respects_bound(self, plan, kind):
        data = {
            "smooth": _smooth(4096),
            "rough": _rough(4096),
            "constant": np.full(4096, 2.0, np.float32),
        }[kind]
        res = compress_with_plan(data, EB, "abs", plan=plan)
        recon = decompress_any(res.stream)
        assert recon.shape == data.shape
        if res.quantizer.n_saturated == 0:
            assert _bound_ok(data, recon, EB)

    def test_auto_routes_by_field_kind(self):
        assert compress_with_plan(
            np.full(4096, 1.0, np.float32), EB, "abs", plan="auto"
        ).plan == "constant"
        assert compress_with_plan(
            _rough(4096), EB, "abs", plan="auto"
        ).plan == "fast"
        j = np.arange(4096, dtype=np.int64)
        quad = (j * j).astype(np.float32) / np.float32(512.0)
        assert compress_with_plan(quad, EB, "abs", plan="auto").plan == "interp"

    def test_rel_mode_matches_fast_bytes(self, smooth_2d):
        # rel->abs resolution happens once; the fallback fast stream is the
        # exact same bytes the direct codec emits for the same request
        direct = FZGPU().compress(smooth_2d, 1e-3, "rel").stream
        planned = compress_with_plan(
            _rough(smooth_2d.size).reshape(smooth_2d.shape), 1e-3, "rel",
            plan="auto",
        )
        assert planned.stream[:4] == b"FZGP"
        assert compress_with_plan(smooth_2d, 1e-3, "rel", plan="fast"
                                  ).stream == direct

    def test_decompress_any_dispatch(self):
        fast = compress_with_plan(_rough(256), EB, "abs", plan="fast").stream
        interp = interp_compress(_smooth(256), EB).stream
        const = constant_compress(np.full(256, 1.0, np.float32), EB).stream
        for blob in (fast, interp, const):
            assert decompress_any(blob).shape == (256,)
        with pytest.raises(FormatError):
            decompress_any(b"NOPE" + fast[4:])
        with pytest.raises(FormatError):
            decompress_any(b"")

    def test_invalid_plan_rejected(self):
        with pytest.raises(ConfigError):
            compress_with_plan(_rough(64), EB, "abs", plan="bogus")


# ---------------------------------------------------------------------------
# engine integration: mixed-plan containers, pools, backends
# ---------------------------------------------------------------------------

CHUNK = 16 * 1024  # bytes -> 4096 f32 values per segment


class TestEngineIntegration:
    def test_mixed_plan_container_roundtrip(self):
        data = _mixed_field()
        with Engine() as engine:
            blob = engine.compress_chunked(data, EB, "abs", chunk_bytes=CHUNK,
                                           plan="auto")
            out = engine.decompress_chunked(blob)
        (idx,) = read_containers(io.BytesIO(blob))
        assert idx.version == 3
        plans = {seg.plan for seg in idx.segments}
        assert plans == {PLAN_FAST, PLAN_INTERP, PLAN_CONST}
        assert _bound_ok(data, out, EB)

    def test_bit_identical_across_pools_and_backends(self):
        data = _mixed_field()
        blobs, outs = [], []
        for kw in (
            dict(jobs=1),
            dict(jobs=4, pool="thread"),
            dict(jobs=2, pool="process"),
            dict(jobs=1, backend="reference"),
            dict(jobs=2, backend="fused"),
            dict(jobs=2, pool="process", backend="reference"),
        ):
            with Engine(**kw) as engine:
                blob = engine.compress_chunked(
                    data, EB, "abs", chunk_bytes=CHUNK, plan="auto"
                )
                outs.append(engine.decompress_chunked(blob))
            blobs.append(blob)
        assert all(b == blobs[0] for b in blobs[1:])
        assert all(np.array_equal(o, outs[0]) for o in outs[1:])

    def test_engine_default_plan_and_override(self):
        data = _mixed_field(4096)
        with Engine(plan="auto") as engine:
            auto = engine.compress_chunked(data, EB, "abs", chunk_bytes=CHUNK)
            fast = engine.compress_chunked(data, EB, "abs", chunk_bytes=CHUNK,
                                           plan="fast")
        (auto_idx,) = read_containers(io.BytesIO(auto))
        (fast_idx,) = read_containers(io.BytesIO(fast))
        assert any(seg.plan != PLAN_FAST for seg in auto_idx.segments)
        assert all(seg.plan == PLAN_FAST for seg in fast_idx.segments)

    def test_fast_plan_containers_byte_identical_to_legacy_request(self):
        data = _rough(12288)
        with Engine() as engine:
            legacy = engine.compress_chunked(data, EB, "abs",
                                             chunk_bytes=CHUNK)
            explicit = engine.compress_chunked(data, EB, "abs",
                                               chunk_bytes=CHUNK, plan="fast")
        assert legacy == explicit

    def test_batch_plans_through_process_pool(self):
        fields = [_smooth(4096), np.full(4096, 1.0, np.float32)]
        with Engine(jobs=2, pool="process") as engine:
            results = engine.compress_batch(fields, EB, "abs", plan="ratio")
            recons = engine.decompress_batch([r.stream for r in results])
        assert results[0].plan in ("interp", "fast")
        assert results[1].plan == "constant"
        for f, r in zip(fields, recons):
            assert _bound_ok(f, r, EB)

    def test_invalid_engine_plan_rejected(self):
        with pytest.raises(ConfigError):
            Engine(plan="nope")
        with Engine() as engine:
            with pytest.raises(ConfigError):
                engine.compress_batch([_rough(64)], EB, "abs", plan="nope")

    def test_file_report_carries_plans(self, tmp_path):
        data = _mixed_field()
        src = tmp_path / "f.f32"
        data.tofile(src)
        with Engine() as engine:
            rep = engine.compress_file(
                src, tmp_path / "f.fz", EB, "abs", shape=data.shape,
                chunk_bytes=CHUNK, plan="auto",
            )
            out = engine.decompress_file(tmp_path / "f.fz")
        assert set(rep.plans) == {"fast", "interp", "constant"}
        assert _bound_ok(data, out, EB)


class TestSalvageMixedPlans:
    """Chaos regression: damaged interp/constant segments NaN-fill + re-sync."""

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_corrupt_segment_salvages(self, victim):
        data = _mixed_field()
        with Engine() as engine:
            clean = engine.compress_chunked(data, EB, "abs",
                                            chunk_bytes=CHUNK, plan="auto")
            plan_spec = f"segment_corrupt:at={victim},seed=11"
            with faults.installed(faults.FaultPlan.parse(plan_spec)):
                damaged = engine.compress_chunked(
                    data, EB, "abs", chunk_bytes=CHUNK, plan="auto"
                )
            with pytest.raises(FormatError):
                engine.decompress_chunked(damaged)
            out, report = engine.decompress_chunked(damaged, salvage=True)
            ref = engine.decompress_chunked(clean)
        (idx,) = read_containers(io.BytesIO(clean))
        extents = [seg.extent for seg in idx.segments]
        lo = sum(extents[:victim])
        hi = lo + extents[victim]
        assert [s.status for s in report.segments] == [
            "lost" if i == victim else "recovered" for i in range(len(extents))
        ]
        assert np.isnan(out[lo:hi]).all()
        assert np.array_equal(out[:lo], ref[:lo])
        assert np.array_equal(out[hi:], ref[hi:])
        assert report.recovered_bytes + report.lost_bytes == report.total_bytes


# ---------------------------------------------------------------------------
# serve: plan knob + trust model
# ---------------------------------------------------------------------------


class TestServePlan:
    def test_wire_plan_auto_and_info(self):
        from tests.serve_support import (
            http_compress,
            http_decompress,
            live_server,
            request,
        )

        data = _mixed_field()
        with live_server(jobs=2) as (srv, _app, _engine):
            st, _, blob = http_compress(srv.address, data, EB, mode="abs",
                                        chunk_bytes=CHUNK, plan="auto")
            assert st == 200
            st, _, recon = http_decompress(srv.address, blob)
            assert st == 200 and _bound_ok(data, recon, EB)
            st, _, body = request(srv.address, "POST", "/v1/info", blob)
            info = json.loads(body)["containers"][0]
            assert info["version"] == 3
            assert set(info["segment_plans"]) == {"fast", "interp", "constant"}

    def test_forced_plans_rejected_on_the_wire(self):
        from tests.serve_support import http_compress, live_server

        data = _rough(256)
        with live_server(jobs=1) as (srv, _app, _engine):
            for plan in ("interp", "constant", "bogus"):
                st, _, body = http_compress(srv.address, data, EB, plan=plan)
                assert st == 400
                assert "plan must be one of" in json.loads(body)["message"]

    def test_config_default_plan_applies(self):
        from repro.serve import ServeConfig
        from tests.serve_support import http_compress, live_server, request

        data = np.full(1 << 14, 2.0, np.float32)
        with live_server(jobs=1, config=ServeConfig(plan="auto")) as (
            srv, _app, _engine,
        ):
            st, _, blob = http_compress(srv.address, data, EB, mode="abs",
                                        chunk_bytes=CHUNK)
            assert st == 200
            _, _, body = request(srv.address, "POST", "/v1/info", blob)
            plans = json.loads(body)["containers"][0]["segment_plans"]
            assert set(plans) == {"constant"}

    def test_explicit_fast_byte_identical_to_default(self):
        from tests.serve_support import http_compress, live_server

        data = _rough(4096)
        with live_server(jobs=1) as (srv, _app, _engine):
            default = http_compress(srv.address, data, EB)[2]
            explicit = http_compress(srv.address, data, EB, plan="fast")[2]
        assert default == explicit


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestCLIPlan:
    def _compress(self, tmp_path, data, *extra):
        from repro.cli import main

        src = tmp_path / "in.f32"
        dst = tmp_path / "out.fz"
        data.tofile(src)
        rc = main([
            "compress", str(src), str(dst), "--shape", str(data.size),
            "--eb", str(EB), "--mode", "abs", "--verify", *extra,
        ])
        return rc, dst

    def test_compress_plan_auto_chunked(self, tmp_path, capsys):
        data = _mixed_field()
        rc, dst = self._compress(
            tmp_path, data, "--chunk-mb", str(CHUNK / (1 << 20)),
            "--plan", "auto",
        )
        out = capsys.readouterr().out
        assert rc == 0 and "plans" in out and "constant" in out
        (idx,) = read_containers(io.BytesIO(dst.read_bytes()))
        assert {seg.plan for seg in idx.segments} == {
            PLAN_FAST, PLAN_INTERP, PLAN_CONST,
        }

    def test_compress_plan_batch_and_decompress(self, tmp_path, capsys):
        from repro.cli import main

        data = np.full(4096, 5.0, np.float32)
        rc, dst = self._compress(tmp_path, data, "--plan", "ratio")
        assert rc == 0
        out = tmp_path / "recon.f32"
        assert main(["decompress", str(dst), str(out)]) == 0
        assert _bound_ok(data, np.fromfile(out, np.float32), EB)

    def test_info_renders_plans_and_version(self, tmp_path, capsys):
        from repro.cli import main

        data = _mixed_field()
        _, dst = self._compress(
            tmp_path, data, "--chunk-mb", str(CHUNK / (1 << 20)),
            "--plan", "auto",
        )
        capsys.readouterr()
        assert main(["info", str(dst)]) == 0
        out = capsys.readouterr().out
        assert "(v3)" in out
        for name in ("plan fast", "plan interp", "plan constant"):
            assert name in out

    def test_info_single_planner_streams(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_stream

        save_stream(tmp_path / "a.fz", interp_compress(_smooth(512), EB).stream)
        save_stream(
            tmp_path / "b.fz",
            constant_compress(np.full(512, 1.0, np.float32), EB).stream,
        )
        assert main(["info", str(tmp_path / "a.fz")]) == 0
        assert "FZIN" in capsys.readouterr().out
        assert main(["info", str(tmp_path / "b.fz")]) == 0
        assert "FZCN" in capsys.readouterr().out

    def test_stats_renders_plan_breakdown(self, tmp_path, capsys):
        from repro.cli import main

        data = _mixed_field()
        src = tmp_path / "in.f32"
        data.tofile(src)
        trace = tmp_path / "t.jsonl"
        assert main([
            "compress", str(src), str(tmp_path / "o.fz"), "--shape",
            str(data.size), "--eb", str(EB), "--mode", "abs",
            "--chunk-mb", str(CHUNK / (1 << 20)), "--plan", "auto",
            "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-plan breakdown" in out
        assert "planner.compress" in out

    def test_serve_parser_restricts_plan(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--plan", "auto"])
        assert args.plan == "auto"
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--plan", "interp"])


# ---------------------------------------------------------------------------
# telemetry stats
# ---------------------------------------------------------------------------


class TestPlanBreakdown:
    def test_groups_by_plan_and_op(self):
        from repro.telemetry.stats import plan_breakdown

        events = [
            {"name": "planner.compress", "dur_us": 100.0, "ts_us": 0,
             "pid": 1, "tid": 1,
             "attrs": {"plan": "interp", "bytes_in": 4000, "bytes_out": 100}},
            {"name": "planner.compress", "dur_us": 300.0, "ts_us": 0,
             "pid": 1, "tid": 1,
             "attrs": {"plan": "interp", "bytes_in": 4000, "bytes_out": 300}},
            {"name": "planner.decompress", "dur_us": 50.0, "ts_us": 0,
             "pid": 1, "tid": 1,
             "attrs": {"plan": "constant", "bytes_in": 52, "bytes_out": 5200}},
            {"name": "stage.encode", "dur_us": 10.0, "ts_us": 0, "pid": 1,
             "tid": 1, "attrs": {}},
        ]
        rows = plan_breakdown(events)
        assert len(rows) == 2
        by_key = {(r["plan"], r["op"]): r for r in rows}
        comp = by_key[("interp", "planner.compress")]
        assert comp["chunks"] == 2
        assert comp["ratio"] == pytest.approx(8000 / 400)
        deco = by_key[("constant", "planner.decompress")]
        assert deco["ratio"] == pytest.approx(100.0)

    def test_empty_without_planner_spans(self):
        from repro.telemetry.stats import plan_breakdown

        assert plan_breakdown(
            [{"name": "stage.encode", "dur_us": 1.0, "ts_us": 0, "pid": 1,
              "tid": 1, "attrs": {}}]
        ) == []
