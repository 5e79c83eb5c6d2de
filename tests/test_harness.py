"""Tests for the experiment harness (small configurations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness import EXPERIMENTS, render_table, run_experiment
from repro.harness.runner import EVAL_SHAPES, REL_EBS


class TestRegistry:
    def test_every_figure_and_table_registered(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "fig1",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "cpu",
            "engine",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_rel_ebs_match_paper(self):
        assert REL_EBS == (1e-2, 5e-3, 1e-3, 5e-4, 1e-4)

    def test_eval_shapes_cover_all_datasets(self):
        assert set(EVAL_SHAPES) == {"hacc", "cesm", "hurricane", "nyx", "qmcpack", "rtm"}


class TestTable1:
    def test_runs_and_checks_pass(self):
        res = run_experiment("table1")
        assert res.all_checks_pass
        assert len(res.rows) == 6


class TestFig1:
    def test_breakdown(self):
        res = run_experiment("fig1", dataset="cesm", eb=1e-3)
        assert res.all_checks_pass, res.checks
        fz_kernels = {r["kernel"] for r in res.rows if r["pipeline"] == "fz-gpu"}
        assert {"pred-quant-v2", "bitshuffle-mark-v2", "encode", "TOTAL"} <= fz_kernels
        cusz_kernels = {r["kernel"] for r in res.rows if r["pipeline"] == "cusz"}
        assert {"codebook-build", "huffman-encode"} <= cusz_kernels
        # percentages sum to ~100 per pipeline (excluding the TOTAL row)
        for pipe in ("fz-gpu", "cusz"):
            pct = sum(
                r["time_pct"] for r in res.rows if r["pipeline"] == pipe and r["kernel"] != "TOTAL"
            )
            assert pct == pytest.approx(100.0, abs=0.5)


class TestFig7Small:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            "fig7",
            datasets=["cesm", "rtm"],
            ebs=(1e-2, 1e-3),
            zfp_rates=(1.0, 2.0, 4.0, 8.0),
        )

    def test_checks(self, result):
        assert result.all_checks_pass, result.checks

    def test_all_compressors_present(self, result):
        comps = {r["compressor"] for r in result.rows}
        assert {"FZ-GPU", "cuSZ", "cuSZx", "MGARD-GPU"} <= comps

    def test_fz_and_cusz_share_psnr(self, result):
        for ds in ("cesm", "rtm"):
            for eb in (1e-2, 1e-3):
                pts = {
                    r["compressor"]: r["psnr"]
                    for r in result.rows
                    if r["dataset"] == ds and r["eb"] == eb
                    and r["compressor"] in ("FZ-GPU", "cuSZ")
                }
                assert pts["FZ-GPU"] == pytest.approx(pts["cuSZ"])


class TestFig8Small:
    def test_checks(self):
        res = run_experiment("fig8", datasets=["cesm", "hurricane"], ebs=(1e-3,))
        assert res.all_checks_pass, res.checks
        assert {r["compressor"] for r in res.rows} == {
            "fz-gpu", "cusz", "cusz-ncb", "cuszx", "mgard", "cuzfp",
        }


class TestFig10Small:
    def test_checks(self):
        res = run_experiment("fig10", datasets=["cesm", "hacc"], eb=1e-4)
        assert res.all_checks_pass, res.checks
        stages = {r["stage"] for r in res.rows}
        assert stages == {"pred-quant", "bitshuffle-mark", "prefix-sum-encode"}


class TestFig11Small:
    def test_checks(self):
        res = run_experiment("fig11", datasets=["hurricane"], ebs=(1e-3,))
        assert res.all_checks_pass, res.checks
        assert all(r["overall_gbps"] > 0 for r in res.rows)


class TestCPU:
    def test_checks(self):
        res = run_experiment("cpu", datasets=["hurricane", "nyx"], eb=1e-3)
        assert res.all_checks_pass, res.checks

    def test_scaling_rows(self):
        res = run_experiment("cpu", datasets=["cesm"])
        scaling = [r for r in res.rows if r["dataset"] == "scaling"]
        assert tuple(r["threads"] for r in scaling) == (1, 2, 4, 8, 16, 32, 64)
        gbps = [r["fz_omp_gbps"] for r in scaling]
        assert all(a <= b for a, b in zip(gbps, gbps[1:]))


class TestRenderTable:
    def test_renders(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}]
        out = render_table(rows, title="demo")
        assert "demo" in out
        assert "a" in out.splitlines()[1]
        assert len(out.splitlines()) == 5

    def test_empty(self):
        assert "(no rows)" in render_table([])

    def test_column_selection(self):
        out = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[0]
