"""The shared bench gate (``benchmarks/gate.py``) on fake sides and clocks."""

from __future__ import annotations

import importlib.util
import itertools
import json
import pathlib
import sys

import pytest

_spec = importlib.util.spec_from_file_location(
    "gate", pathlib.Path(__file__).parent.parent / "benchmarks" / "gate.py"
)
gate = sys.modules["gate"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _ticks():
    return itertools.count().__next__


def test_interleave_alternates_side_order_each_round():
    log = []
    times = gate.interleave(
        {"a": lambda: log.append("a"), "b": lambda: log.append("b")},
        rounds=3, clock=_ticks(),
    )
    assert log == ["a", "b", "b", "a", "a", "b"]
    assert times == {"a": [1, 1, 1], "b": [1, 1, 1]}


def test_ratio_is_ratio_of_minima_with_per_round_quartiles():
    times = {"slow": [8.0, 6.0, 9.0, 10.0], "fast": [1.0, 2.0, 1.0, 1.0]}
    r = gate.ratio(times, "slow", "fast")
    assert r["value"] == 6.0
    assert r["q1"] <= r["median"] <= r["q3"]
    assert r["median"] == 8.5


def test_zero_spread_figure_must_equal_committed_value():
    committed = {"q.ratio": {"value": 3.5, "median": 3.5, "q1": 3.5, "q3": 3.5}}
    assert gate.failures([gate.Claim("ratio", 3.5, field="q")], {},
                         committed) == []
    for drifted in (3.4, 3.6):
        (msg,) = gate.failures([gate.Claim("ratio", drifted, field="q")], {},
                               committed)
        assert "q.ratio" in msg and "committed" in msg


@pytest.mark.parametrize("q1, q3, factor", [
    (1.0, 1.0, 1.0),    # zero spread: no slack
    (0.95, 1.05, 0.7),  # IQR/median 0.1 -> 1 - 3 * 0.1
    (0.5, 1.5, 0.6),    # wide spread: clamped
    (0.0, 100.0, 0.6),
])
def test_regression_factor_never_below_floor(q1, q3, factor):
    got = gate.regression_factor({"median": 1.0, "q1": q1, "q3": q3})
    assert got == pytest.approx(factor)
    assert got >= gate.MIN_FACTOR


def test_regression_uses_committed_spread_in_both_directions():
    old = {"value": 10.0, "median": 10.0, "q1": 9.5, "q3": 10.5}  # factor 0.7
    committed = {"up": old, "down": old}
    spread = dict(median=1.0, q1=0.9, q3=1.1)
    assert gate.failures([gate.Claim("up", 7.1, **spread)], {}, committed) == []
    assert gate.failures([gate.Claim("up", 6.9, **spread)], {}, committed)
    down = gate.Claim("down", 14.0, ceiling=100.0, **spread)
    assert gate.failures([down], {}, committed) == []
    down = gate.Claim("down", 14.5, ceiling=100.0, **spread)
    assert gate.failures([down], {}, committed)


def test_floor_failure_names_claim_and_field():
    claim = gate.Claim("encode", 5.83, floor=6.7, field="cesm",
                       median=5.74, q1=5.4, q3=6.1)
    (msg,) = gate.failures([claim], {}, {})
    assert "encode" in msg and "cesm" in msg and "floor 6.7" in msg
    assert "median 5.74" in msg
    ceiling = gate.Claim("auto_overhead", 1.4, ceiling=1.3, field="rough1d")
    (msg,) = gate.failures([ceiling], {}, {})
    assert "rough1d.auto_overhead" in msg and "ceiling 1.3" in msg


def test_failed_check_is_reported():
    assert gate.failures([], {"byte_identical": False}, {}) == [
        "byte_identical: check failed"
    ]


def test_enforce_writes_record_with_provenance_and_spread(tmp_path,
                                                          monkeypatch):
    monkeypatch.delenv("REPRO_UPDATE_BENCH", raising=False)
    claims = [gate.Claim("speedup", 4.0, floor=2.0, median=3.8, q1=3.5, q3=4.1),
              gate.Claim("ratio", 3.0, field="x")]
    record = gate.enforce("demo", claims, {"identical": True}, {"n": 1},
                          directory=tmp_path)
    written = json.loads((tmp_path / "results" / "BENCH_demo.json").read_text())
    assert written == record
    assert {"commit", "nproc", "python", "numpy"} <= set(written["provenance"])
    for c in written["claims"].values():
        assert {"value", "median", "q1", "q3"} <= set(c)
    assert written["claims"]["x.ratio"]["q1"] == 3.0
    assert written["claims"]["speedup"]["floor"] == 2.0
    assert not (tmp_path / "BENCH_demo.json").exists()


def test_update_writes_baseline_then_gates_against_it(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_UPDATE_BENCH", "1")
    gate.enforce("demo", [gate.Claim("ratio", 3.0)], {}, {},
                 directory=tmp_path)
    assert (tmp_path / "BENCH_demo.json").exists()
    monkeypatch.delenv("REPRO_UPDATE_BENCH")
    with pytest.raises(AssertionError, match="demo gate: ratio 2.9"):
        gate.enforce("demo", [gate.Claim("ratio", 2.9)], {}, {},
                     directory=tmp_path)
