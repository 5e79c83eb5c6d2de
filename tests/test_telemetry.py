"""repro.telemetry: spans, metrics, exporters, cross-process merge, CLI.

Covers the telemetry subsystem contract:

* span nesting/parenting within a thread and isolation across threads;
* disabled mode returns the shared ``NULL_SPAN`` singleton and records
  nothing (the allocation-level check lives in the differential suite);
* metric semantics — counters add, gauges last-write-wins, histograms
  bucket deterministically — including cross-process ``merge``;
* worker-span transport through the engine's thread *and* process pools;
* byte-stable exporter output against golden files (deterministic
  injected clocks/pid/tid);
* the ``repro ... --trace/--metrics`` CLI wiring and ``repro stats``;
* the repo-wide ban on direct ``perf_counter`` use outside telemetry;
* the ``ratio == inf`` fix for empty compressed outputs.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import export, stats
from repro.telemetry.recorder import NULL_SPAN, Recorder

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# span mechanics
# ---------------------------------------------------------------------------


def test_span_nesting_same_thread():
    rec = Recorder(enabled=True)
    with rec.span("a") as a:
        with rec.span("b") as b:
            with rec.span("c") as c:
                pass
        with rec.span("d") as d:
            pass
    events = {ev["name"]: ev for ev in rec.snapshot()["events"]}
    assert events["a"]["parent"] == 0
    assert events["b"]["parent"] == events["a"]["id"]
    assert events["c"]["parent"] == events["b"]["id"]
    assert events["d"]["parent"] == events["a"]["id"], "stack must pop"
    assert a.duration >= b.duration >= 0.0
    assert c.duration >= 0.0 and d.duration >= 0.0
    # innermost spans exit first, so they are recorded first
    names = [ev["name"] for ev in rec.snapshot()["events"]]
    assert names == ["c", "b", "d", "a"]


def test_span_parents_never_cross_threads():
    rec = Recorder(enabled=True)
    barrier = threading.Barrier(2)

    def worker(name: str) -> None:
        with rec.span(f"outer.{name}"):
            barrier.wait()  # both threads hold their outer span open here
            with rec.span(f"inner.{name}"):
                pass

    threads = [threading.Thread(target=worker, args=(n,)) for n in ("x", "y")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    events = {ev["name"]: ev for ev in rec.snapshot()["events"]}
    assert len(events) == 4
    for n in ("x", "y"):
        assert events[f"inner.{n}"]["parent"] == events[f"outer.{n}"]["id"]
        assert events[f"outer.{n}"]["parent"] == 0
    assert events["inner.x"]["tid"] != events["inner.y"]["tid"]


def test_span_attrs_and_exceptions():
    rec = Recorder(enabled=True)
    with pytest.raises(ValueError):
        with rec.span("boom", {"seed": 1}) as sp:
            sp.set("k", "v").set("n", 2)
            raise ValueError("propagates")
    (ev,) = rec.snapshot()["events"]
    assert ev["name"] == "boom"  # recorded even when the body raised
    assert ev["attrs"] == {"seed": 1, "k": "v", "n": 2}


def test_disabled_recorder_is_inert():
    rec = Recorder(enabled=False)
    sp = rec.span("anything")
    assert sp is NULL_SPAN and rec.span("other") is sp  # shared singleton
    with sp as inner:
        assert inner.set("k", 1) is inner
    assert inner.duration == 0.0
    rec.counter("c")
    rec.gauge("g", 1.0)
    rec.histogram("h", 0.5)
    snap = rec.snapshot()
    assert snap["events"] == []
    assert snap["metrics"] == {"counters": [], "gauges": [], "histograms": []}


def test_timed_span_measures_even_when_disabled():
    rec = Recorder(enabled=False)
    with rec.timed_span("harness.thing") as sp:
        sum(range(1000))
    assert sp.duration > 0.0
    assert rec.snapshot()["events"] == []  # measured, not recorded
    rec.enable()
    with rec.timed_span("harness.thing") as sp:
        pass
    assert [ev["name"] for ev in rec.snapshot()["events"]] == ["harness.thing"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metric_semantics():
    rec = Recorder(enabled=True)
    rec.counter("hits")
    rec.counter("hits", 4)
    rec.counter("hits", 1, {"worker": "w0"})
    rec.gauge("depth", 3)
    rec.gauge("depth", 7)  # last write wins
    for v in (0.5, 1.5, 3.0, 100.0):
        rec.histogram("lat", v, buckets=(1.0, 2.0, 4.0))
    m = rec.snapshot()["metrics"]
    assert m["counters"] == [["hits", [], 5], ["hits", [["worker", "w0"]], 1]]
    assert m["gauges"] == [["depth", [], 7]]
    (hist,) = m["histograms"]
    name, labels, bounds, counts, total, n = hist
    assert (name, bounds) == ("lat", [1.0, 2.0, 4.0])
    assert counts == [1, 1, 1, 1]  # 0.5 | 1.5 | 3.0 | 100.0 overflow
    assert total == pytest.approx(105.0) and n == 4


def test_metrics_merge_across_payloads():
    parent = Recorder(enabled=True)
    parent.counter("tasks", 2)
    parent.gauge("depth", 1)
    parent.histogram("lat", 0.5, buckets=(1.0, 2.0))

    worker = Recorder(enabled=True)
    with worker.span("engine.task"):
        pass
    worker.counter("tasks", 3)
    worker.gauge("depth", 9)
    worker.histogram("lat", 1.5, buckets=(1.0, 2.0))
    worker.histogram("other", 0.1, buckets=(5.0,))  # unseen by parent

    payload = worker.take()
    assert worker.snapshot()["events"] == [], "take() must drain"
    parent.merge(payload)

    snap = parent.snapshot()
    assert [ev["name"] for ev in snap["events"]] == ["engine.task"]
    m = snap["metrics"]
    assert m["counters"] == [["tasks", [], 5]]
    assert m["gauges"] == [["depth", [], 9]]
    hists = {h[0]: h for h in m["histograms"]}
    assert hists["lat"][3] == [1, 1, 0] and hists["lat"][5] == 2
    assert hists["other"][2] == [5.0]  # adopted wholesale


def test_metrics_merge_mismatched_bounds_keeps_both_series():
    parent = Recorder(enabled=True)
    parent.histogram("lat", 0.5, buckets=(1.0, 2.0))

    worker = Recorder(enabled=True)
    worker.histogram("lat", 7.0, buckets=(5.0, 10.0))
    parent.merge(worker.take())

    hists = {
        (name, tuple(map(tuple, labels))): (tuple(bounds), counts, total, n)
        for name, labels, bounds, counts, total, n in parent.snapshot()[
            "metrics"
        ]["histograms"]
    }
    # local series untouched
    bounds, counts, total, n = hists[("lat", ())]
    assert bounds == (1.0, 2.0) and counts == [1, 0, 0]
    assert total == pytest.approx(0.5) and n == 1
    # incoming series filed under a bounds-tagged label, not dropped
    bounds, counts, total, n = hists[("lat", (("le_bounds", "5,10"),))]
    assert bounds == (5.0, 10.0) and counts == [0, 1, 0]
    assert total == pytest.approx(7.0) and n == 1
    # a second same-bounds payload merges into the tagged series
    worker2 = Recorder(enabled=True)
    worker2.histogram("lat", 3.0, buckets=(5.0, 10.0))
    parent.merge(worker2.take())
    snap = parent.snapshot()["metrics"]["histograms"]
    tagged = [h for h in snap if h[1] == [["le_bounds", "5,10"]]]
    assert len(tagged) == 1 and tagged[0][3] == [1, 1, 0] and tagged[0][5] == 2


# ---------------------------------------------------------------------------
# engine transport: worker spans survive thread and process pools
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pool", ["thread", "process"])
def test_engine_merges_worker_telemetry(pool):
    from repro.engine import Engine

    rec = telemetry.get_recorder()
    rec.clear()
    rec.enabled = True
    try:
        rng = np.random.default_rng(7)
        fields = [
            np.cumsum(rng.standard_normal((40, 30)), axis=0).astype(np.float32)
            for _ in range(3)
        ]
        with Engine(jobs=2, pool=pool) as engine:
            results = engine.compress_batch(fields, 1e-3, "rel")
            engine.decompress_batch([r.stream for r in results])
        snap = rec.snapshot()
    finally:
        rec.enabled = False
        rec.clear()

    names = [ev["name"] for ev in snap["events"]]
    assert names.count("engine.compress_batch") == 1
    assert names.count("engine.decompress_batch") == 1
    assert names.count("fz.compress") == len(fields)
    assert names.count("fz.decompress") == len(fields)
    assert names.count("engine.task") == 2 * len(fields)
    if pool == "process":
        worker_pids = {
            ev["pid"] for ev in snap["events"] if ev["name"] == "fz.compress"
        }
        assert worker_pids and os.getpid() not in worker_pids
    # worker spans keep their parent chain: every fz.compress sits under a task
    tasks = {ev["id"]: ev for ev in snap["events"] if ev["name"] == "engine.task"}
    for ev in snap["events"]:
        if ev["name"] == "fz.compress":
            assert ev["parent"] in tasks
    counters = dict(
        ((name, tuple(map(tuple, labels))), value)
        for name, labels, value in snap["metrics"]["counters"]
    )
    task_total = sum(
        v for (name, _), v in counters.items() if name == "engine.worker_tasks"
    )
    assert task_total == 2 * len(fields)
    assert counters[("fz.compress_calls", ())] == len(fields)
    assert counters[("fz.bytes_in", ())] == sum(x.nbytes for x in fields)


def test_process_pool_does_not_duplicate_prefork_telemetry():
    """Fork-started workers inherit the parent's buffered spans/metrics;
    each worker must clear that state before its first take(), or every
    worker ships the parent's pre-fork events home and merge re-adds them.
    """
    from repro.engine import Engine

    rec = telemetry.get_recorder()
    rec.clear()
    rec.enabled = True
    try:
        with rec.span("prefork.marker"):
            pass
        rec.counter("prefork.count", 1)
        rng = np.random.default_rng(11)
        fields = [
            np.cumsum(rng.standard_normal((32, 24)), axis=0).astype(np.float32)
            for _ in range(3)
        ]
        with Engine(jobs=2, pool="process") as engine:
            engine.compress_batch(fields, 1e-3, "rel")
        snap = rec.snapshot()
    finally:
        rec.enabled = False
        rec.clear()

    names = [ev["name"] for ev in snap["events"]]
    assert names.count("prefork.marker") == 1
    counters = {
        (name, tuple(map(tuple, labels))): value
        for name, labels, value in snap["metrics"]["counters"]
    }
    assert counters[("prefork.count", ())] == 1


# ---------------------------------------------------------------------------
# exporters: golden byte-stability with injected clocks
# ---------------------------------------------------------------------------


def _deterministic_recorder() -> Recorder:
    """Fixed pid/tid and +1ms-per-call clocks: byte-stable exports."""
    ticks = itertools.count()
    walls = itertools.count()
    return Recorder(
        enabled=True,
        clock=lambda: next(ticks) * 1e-3,
        wall_clock=lambda: 1_700_000_000_000_000_000 + next(walls) * 1_000_000,
        pid=1234,
        tid=7,
    )


def _golden_recorder() -> Recorder:
    """The fixed scenario behind tests/golden/telemetry_*."""
    rec = _deterministic_recorder()
    with rec.span("fz.compress") as root:
        root.set("bytes_in", 4096)
        with rec.span("stage.quantize"):
            pass
        with rec.span("stage.bitshuffle"):
            pass
        root.set("bytes_out", 512)
    rec.counter("fz.bytes_in", 4096)
    rec.counter("fz.bytes_out", 512)
    rec.counter("engine.worker_tasks", 2, {"worker": "w0"})
    rec.gauge("engine.queue_depth", 3)
    rec.histogram("fz.ratio", 8.0, buckets=(1, 2, 4, 8, 16))
    rec.histogram("fz.ratio", 3.0, buckets=(1, 2, 4, 8, 16))
    return rec


def test_jsonl_export_matches_golden():
    got = export.to_jsonl(_golden_recorder())
    assert got == (GOLDEN / "telemetry_events.jsonl").read_text()


def test_chrome_trace_export_matches_golden():
    rec = _golden_recorder()
    buf = []

    class Sink:
        def write(self, text):
            buf.append(text)

    export.write_chrome_trace(rec, Sink())
    got = "".join(buf)
    assert got == (GOLDEN / "telemetry_trace.json").read_text()
    doc = json.loads(got)
    spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    metas = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
    assert len(spans) == 3 and len(metas) == 1
    assert all(ev["pid"] == 1234 and ev["tid"] == 7 for ev in spans)


def test_prometheus_export_shape():
    text = export.to_prometheus(_golden_recorder())
    lines = text.splitlines()
    assert "# TYPE repro_fz_bytes_in counter" in lines
    assert "repro_fz_bytes_in 4096" in lines
    assert 'repro_engine_worker_tasks{worker="w0"} 2' in lines
    assert "# TYPE repro_engine_queue_depth gauge" in lines
    assert "repro_engine_queue_depth 3" in lines
    # histogram: cumulative buckets ending at +Inf, plus _sum/_count
    assert 'repro_fz_ratio_bucket{le="4"} 1' in lines
    assert 'repro_fz_ratio_bucket{le="8"} 2' in lines
    assert 'repro_fz_ratio_bucket{le="+Inf"} 2' in lines
    assert "repro_fz_ratio_sum 11" in lines
    assert "repro_fz_ratio_count 2" in lines


def test_prometheus_label_value_escaping():
    rec = Recorder(enabled=True)
    rec.counter("tasks", 1, {"worker": 'a"b\\c\nd'})
    text = export.to_prometheus(rec)
    assert 'repro_tasks{worker="a\\"b\\\\c\\nd"} 1' in text.splitlines()


# ---------------------------------------------------------------------------
# stats: trace loading + Fig. 1 breakdown
# ---------------------------------------------------------------------------


def test_load_trace_both_formats(tmp_path):
    rec = _golden_recorder()
    jsonl = tmp_path / "t.jsonl"
    chrome = tmp_path / "t.json"
    export.write_jsonl(rec, jsonl)
    export.write_chrome_trace(rec, chrome)
    a = stats.load_trace(jsonl)
    b = stats.load_trace(chrome)
    assert [ev["name"] for ev in a] == [ev["name"] for ev in b]
    assert len(a) == 3
    assert {ev["pid"] for ev in a} == {1234}
    for ea, eb in zip(a, b):
        assert ea["dur_us"] == pytest.approx(eb["dur_us"], abs=1e-3)


def test_load_trace_single_line_jsonl(tmp_path):
    """One JSONL line parses as a whole-document JSON dict; it must still be
    read as JSONL (a dict without "traceEvents" is not a Chrome trace).
    """
    rec = Recorder(enabled=True, pid=1, tid=1)
    with rec.span("stage.only"):
        pass
    path = tmp_path / "one.jsonl"
    export.write_jsonl(rec, path)
    assert len(path.read_text().strip().splitlines()) == 1
    events = stats.load_trace(path)
    assert [ev["name"] for ev in events] == ["stage.only"]


def test_stage_breakdown_uses_top_level_denominator():
    events = [
        {"name": "stage.quantize", "dur_us": 600.0, "ts_us": 0, "pid": 1,
         "tid": 1, "attrs": {}},
        {"name": "stage.bitshuffle", "dur_us": 400.0, "ts_us": 600, "pid": 1,
         "tid": 1, "attrs": {}},
        # nested sub-stage must not inflate the denominator
        {"name": "stage.quantize.lorenzo", "dur_us": 250.0, "ts_us": 0,
         "pid": 1, "tid": 1, "attrs": {}},
        {"name": "fz.compress", "dur_us": 1100.0, "ts_us": 0, "pid": 1,
         "tid": 1, "attrs": {}},
    ]
    rows = {r["stage"]: r for r in stats.stage_breakdown(events)}
    assert "fz.compress" not in rows
    assert rows["stage.quantize"]["time_pct"] == pytest.approx(60.0)
    assert rows["stage.bitshuffle"]["time_pct"] == pytest.approx(40.0)
    assert rows["stage.quantize.lorenzo"]["time_pct"] == pytest.approx(25.0)
    summary = stats.span_summary(events)
    assert summary["spans"] == 4 and summary["processes"] == 1
    assert summary["wall_ms"] == pytest.approx(1.1)


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


def test_cli_trace_metrics_and_stats(tmp_path, capsys):
    from repro.cli import main

    src = tmp_path / "f.npy"
    rng = np.random.default_rng(3)
    np.save(src, np.cumsum(rng.standard_normal((64, 48)), 0).astype(np.float32))
    trace = tmp_path / "trace.json"
    prom = tmp_path / "metrics.prom"
    rc = main(["compress", str(src), str(tmp_path / "f.fz"),
               "--trace", str(trace), "--metrics", str(prom)])
    assert rc == 0
    assert not telemetry.enabled(), "CLI must disable the recorder afterwards"
    assert telemetry.get_recorder().snapshot()["events"] == []
    doc = json.loads(trace.read_text())
    names = {ev["name"] for ev in doc["traceEvents"] if ev.get("ph") == "X"}
    assert {"fz.compress", "stage.fused_encode"} <= names
    assert "repro_fz_compress_calls 1" in prom.read_text().splitlines()

    capsys.readouterr()
    assert main(["stats", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "stage.fused_encode" in out and "time_pct" in out
    # stats on a trace with no spans fails loudly
    empty = tmp_path / "empty.json"
    empty.write_text('{"traceEvents": []}')
    assert main(["stats", str(empty)]) == 1
    # the stats subcommand's positional must never trip trace *recording*
    assert json.loads(trace.read_text()) == doc, "stats overwrote the trace"


def test_cli_jsonl_trace(tmp_path, capsys):
    from repro.cli import main

    src = tmp_path / "f.npy"
    np.save(src, np.linspace(0, 1, 1024, dtype=np.float32).reshape(32, 32))
    out = tmp_path / "f.fz"
    trace = tmp_path / "trace.jsonl"
    assert main(["compress", str(src), str(out)]) == 0
    assert main(["decompress", str(out), str(tmp_path / "r.npy"),
                 "--trace", str(trace)]) == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    names = {rec["name"] for rec in lines if rec.get("type") == "span"}
    assert {"fz.decompress", "stage.fused_decode"} <= names
    assert main(["stats", str(trace)]) == 0
    assert "stage.fused_decode" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# repo policy + ratio regression
# ---------------------------------------------------------------------------


def test_no_direct_perf_counter_outside_telemetry():
    import importlib.util

    repo = pathlib.Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location(
        "check_perf_counter", repo / "tools" / "check_perf_counter.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert set(mod.ROOTS) == {"src/repro", "benchmarks"}
    for root, allowed in mod.ROOTS.items():
        assert mod.scan(repo / root, allowed) == [], root
    assert mod.scan(repo / "benchmarks")  # gate.py is the one clock reader


def test_compression_result_ratio_inf_on_empty_stream():
    from repro.core.pipeline import CompressionResult

    r = CompressionResult(stream=b"", original_bytes=4096, compressed_bytes=0,
                          eb_abs=1e-3, quantizer="lorenzo", n_blocks=0,
                          n_nonzero_blocks=0)
    assert r.ratio == float("inf")
    r2 = CompressionResult(stream=b"x" * 512, original_bytes=4096,
                           compressed_bytes=512, eb_abs=1e-3,
                           quantizer="lorenzo", n_blocks=2, n_nonzero_blocks=1)
    assert r2.ratio == pytest.approx(8.0)


def test_file_report_ratio_inf_on_empty_output():
    from repro.engine.executor import FileReport

    rep = FileReport(path="f", shape=(0,), n_chunks=0, eb_abs=1e-3,
                     original_bytes=0, compressed_bytes=0)
    assert rep.ratio == float("inf")


if __name__ == "__main__":
    # regenerate the exporter golden files after an intentional format change
    rec = _golden_recorder()
    (GOLDEN / "telemetry_events.jsonl").write_text(export.to_jsonl(rec))
    export.write_chrome_trace(rec, GOLDEN / "telemetry_trace.json")
    print("golden files regenerated under", GOLDEN)
