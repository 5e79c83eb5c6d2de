"""Tests for file I/O and the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro import compress
from repro.cli import main
from repro.errors import FormatError
from repro.io import load_field, load_stream, save_field, save_stream


class TestFieldIO:
    def test_npy_roundtrip(self, tmp_path, rng):
        data = rng.uniform(-1, 1, (32, 48)).astype(np.float32)
        path = tmp_path / "field.npy"
        save_field(path, data)
        np.testing.assert_array_equal(load_field(path), data)

    def test_raw_roundtrip(self, tmp_path, rng):
        data = rng.uniform(-1, 1, (16, 24)).astype(np.float32)
        path = tmp_path / "field.f32"
        save_field(path, data)
        np.testing.assert_array_equal(load_field(path, shape=(16, 24)), data)

    def test_raw_flat_without_shape(self, tmp_path, rng):
        data = rng.uniform(size=100).astype(np.float32)
        path = tmp_path / "field.dat"
        save_field(path, data)
        assert load_field(path).shape == (100,)

    def test_raw_shape_mismatch(self, tmp_path, rng):
        path = tmp_path / "field.f32"
        save_field(path, rng.uniform(size=100).astype(np.float32))
        with pytest.raises(FormatError):
            load_field(path, shape=(7, 7))

    def test_float64_npy_downcast(self, tmp_path):
        path = tmp_path / "field.npy"
        np.save(path, np.ones((4, 4), dtype=np.float64))
        assert load_field(path).dtype == np.float32


class TestStreamIO:
    def test_roundtrip(self, tmp_path, smooth_2d):
        stream = compress(smooth_2d, 1e-3).stream
        path = tmp_path / "out.fz"
        save_stream(path, stream)
        assert load_stream(path) == stream

    def test_corruption_detected(self, tmp_path, smooth_2d):
        stream = compress(smooth_2d, 1e-3).stream
        path = tmp_path / "out.fz"
        save_stream(path, stream)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_stream(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "out.fz"
        path.write_bytes(b"NOTASTREAMFILE")
        with pytest.raises(FormatError):
            load_stream(path)


class TestCLI:
    def test_compress_decompress_roundtrip(self, tmp_path, rng, capsys):
        data = np.cumsum(rng.standard_normal((48, 64)), axis=0).astype(np.float32)
        field_path = tmp_path / "in.npy"
        save_field(field_path, data)
        stream_path = tmp_path / "out.fz"
        recon_path = tmp_path / "recon.npy"

        assert main(["compress", str(field_path), str(stream_path), "--eb", "1e-3"]) == 0
        assert "ratio" in capsys.readouterr().out
        assert main(["decompress", str(stream_path), str(recon_path)]) == 0
        recon = load_field(recon_path)
        eb = 1e-3 * float(data.max() - data.min())
        assert np.abs(recon - data).max() <= eb * (1 + 1e-5)

    def test_raw_file_with_shape(self, tmp_path, rng, capsys):
        data = rng.uniform(-1, 1, (32, 32)).astype(np.float32)
        field_path = tmp_path / "in.f32"
        save_field(field_path, data)
        out = tmp_path / "out.fz"
        assert main([
            "compress", str(field_path), str(out), "--shape", "32x32",
        ]) == 0

    @pytest.mark.parametrize("codec", ["cusz", "cuszx", "mgard", "cusz-rle"])
    def test_baseline_codecs_roundtrip(self, tmp_path, rng, codec, capsys):
        data = np.cumsum(rng.standard_normal((32, 48)), axis=1).astype(np.float32)
        field_path = tmp_path / "in.npy"
        save_field(field_path, data)
        stream_path = tmp_path / "out.bin"
        recon_path = tmp_path / "recon.npy"
        assert main([
            "compress", str(field_path), str(stream_path), "--codec", codec,
        ]) == 0
        assert main([
            "decompress", str(stream_path), str(recon_path), "--codec", codec,
        ]) == 0
        recon = load_field(recon_path)
        eb = 1e-3 * float(data.max() - data.min())
        assert np.abs(recon - data).max() <= eb * (1 + 1e-5)

    def test_cuzfp_rate_mode(self, tmp_path, rng, capsys):
        data = rng.uniform(-1, 1, (16, 16)).astype(np.float32)
        field_path = tmp_path / "in.npy"
        save_field(field_path, data)
        out = tmp_path / "out.zfp"
        assert main([
            "compress", str(field_path), str(out), "--codec", "cuzfp", "--rate", "16",
        ]) == 0
        recon_path = tmp_path / "recon.npy"
        assert main([
            "decompress", str(out), str(recon_path), "--codec", "cuzfp",
        ]) == 0
        assert np.abs(load_field(recon_path) - data).max() < 1e-2

    def test_info(self, tmp_path, smooth_2d, capsys):
        stream_path = tmp_path / "out.fz"
        save_stream(stream_path, compress(smooth_2d, 1e-3).stream)
        assert main(["info", str(stream_path)]) == 0
        out = capsys.readouterr().out
        assert "blocks" in out and "error bound" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("hacc", "cesm", "hurricane", "nyx", "qmcpack", "rtm"):
            assert name in out

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "field.npy"
        assert main(["generate", "cesm", str(out), "--shape", "32x64"]) == 0
        assert load_field(out).shape == (32, 64)

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_throughput(self, capsys):
        assert main(["throughput", "cesm", "--device", "a100"]) == 0
        out = capsys.readouterr().out
        assert "GB/s" in out

    def test_damaged_container_every_decode_mode(self, tmp_path, capsys):
        """Strict, salvage and ROI decodes of a container whose segment 1
        is corrupt: a typed error is one stderr line and exit 1, never a
        traceback; damage outside a slab is invisible."""
        from repro import faults
        from repro.engine import Engine

        data = np.cumsum(
            np.random.default_rng(3).standard_normal((96, 32)), axis=0
        ).astype(np.float32)
        rot = faults.FaultPlan.parse("segment_corrupt:at=1,seed=5")
        with Engine() as engine:  # 3 segments of 32 rows
            clean = engine.decompress(
                engine.compress_chunked(data, 1e-2, chunk_bytes=4096)
            )
            with faults.installed(rot):
                blob = engine.compress_chunked(data, 1e-2, chunk_bytes=4096)
        bad = tmp_path / "bad.fz"
        bad.write_bytes(blob)
        capsys.readouterr()

        def run(*extra):
            out = tmp_path / f"out{len(list(tmp_path.iterdir()))}.npy"
            code = main(["decompress", str(bad), str(out), *extra])
            return code, out, capsys.readouterr()

        for extra in ((), ("--roi", "32:64")):
            code, out, cap = run(*extra)
            assert code == 1 and not out.exists()
            assert "Traceback" not in cap.err
            assert cap.err.splitlines() == [cap.err.strip()]
            assert cap.err.startswith("repro: FormatError: ") and "CRC" in cap.err
        code, out, cap = run("--salvage")
        assert code == 1 and load_field(out).shape == data.shape
        assert "(salvaged)" in cap.out
        code, out, cap = run("--roi", "32:64", "--salvage")
        assert code == 1 and np.isnan(load_field(out)).all()
        code, out, cap = run("--roi", "0:32")
        assert code == 0 and cap.err == ""
        assert load_field(out).tobytes() == clean[0:32].tobytes()
        assert "reconstructed ROI 0:32 -> (32, 32) float32 -> " in cap.out

    def test_closed_stdout_is_quiet(self, tmp_path, smooth_2d):
        """`repro info x.fz | head` whose reader is already gone: no
        BrokenPipeError traceback, exit 1."""
        import os
        import pathlib
        import subprocess
        import sys

        stream_path = tmp_path / "out.fz"
        save_stream(stream_path, compress(smooth_2d, 1e-3).stream)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader exited before a byte was written
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "info", str(stream_path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=str(src)),
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr and "Error" not in proc.stderr
        assert proc.returncode == 1

    def test_bad_shape_argument(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compress", "x", "y", "--shape", "banana"])
