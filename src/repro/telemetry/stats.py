"""Trace analysis: load a captured trace and break it down per stage.

This backs the ``repro stats`` CLI subcommand: given a trace produced by
``repro compress --trace OUT.json`` (Chrome trace format) or ``--trace
OUT.jsonl`` (JSONL event log), it aggregates span durations by name and
renders the per-stage relative-time table of the paper's Fig. 1 pipeline
breakdown — count, total/mean time, and each stage's share of total stage
time.
"""

from __future__ import annotations

import json
import pathlib
from typing import IO

__all__ = [
    "load_trace",
    "stage_breakdown",
    "backend_breakdown",
    "plan_breakdown",
    "span_summary",
    "STAGE_PREFIXES",
]

#: Span-name prefixes that count as pipeline stages in the breakdown.
STAGE_PREFIXES = ("stage.",)


def load_trace(source: str | pathlib.Path | IO[str]) -> list[dict]:
    """Load span events from a Chrome-trace JSON or JSONL trace file.

    Returns a list of ``{"name", "dur_us", "ts_us", "pid", "tid", "attrs"}``
    dicts regardless of which exporter wrote the file.
    """
    text = (
        source.read()
        if hasattr(source, "read")
        else pathlib.Path(source).read_text()
    )
    text = text.strip()
    if not text:
        return []
    events: list[dict] = []
    # Chrome traces are one JSON object; JSONL lines each start with "{"
    # too, so sniff by whole-document parse rather than first character.
    # A one-line JSONL file also parses whole — require the "traceEvents"
    # key before treating the document as a Chrome trace.
    doc: dict | None = None
    try:
        parsed = json.loads(text)
        doc = parsed if isinstance(parsed, dict) and "traceEvents" in parsed else None
    except json.JSONDecodeError:
        doc = None
    if doc is not None:  # Chrome trace object format
        for ev in doc.get("traceEvents", []):
            if ev.get("ph") != "X":
                continue
            events.append(
                {
                    "name": ev["name"],
                    "dur_us": float(ev.get("dur", 0.0)),
                    "ts_us": ev.get("ts", 0),
                    "pid": ev.get("pid", 0),
                    "tid": ev.get("tid", 0),
                    "attrs": ev.get("args", {}),
                }
            )
        return events
    for line in text.splitlines():  # JSONL event log
        rec = json.loads(line)
        if rec.get("type") != "span":
            continue
        events.append(
            {
                "name": rec["name"],
                "dur_us": float(rec.get("dur_us", 0.0)),
                "ts_us": rec.get("ts_us", 0),
                "pid": rec.get("pid", 0),
                "tid": rec.get("tid", 0),
                "attrs": rec.get("attrs", {}),
            }
        )
    return events


def _is_top_level_stage(name: str) -> bool:
    return any(
        name.startswith(p) and "." not in name[len(p):] for p in STAGE_PREFIXES
    )


def stage_breakdown(events: list[dict]) -> list[dict]:
    """Aggregate stage spans into Fig. 1-style relative-time rows.

    ``time_pct`` is each span name's share of the *top-level* stage time
    (sub-stages like ``stage.quantize.lorenzo`` are listed with their share
    of the same denominator, so nesting never double-counts the total).
    """
    totals: dict[str, list[float]] = {}
    for ev in events:
        name = ev["name"]
        if not name.startswith(STAGE_PREFIXES):
            continue
        agg = totals.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += ev["dur_us"]
    denom = sum(
        dur for name, (_, dur) in totals.items() if _is_top_level_stage(name)
    )
    rows = []
    for name in sorted(totals, key=lambda n: -totals[n][1]):
        count, dur = totals[name]
        rows.append(
            {
                "stage": name,
                "calls": count,
                "total_ms": dur / 1e3,
                "mean_us": dur / count,
                "time_pct": 100.0 * dur / denom if denom else 0.0,
            }
        )
    return rows


def backend_breakdown(events: list[dict]) -> list[dict]:
    """Aggregate codec root spans per kernel backend.

    ``fz.compress``/``fz.decompress`` spans carry a ``backend`` attribute
    naming the kernel backend that executed them; this groups the trace by
    (backend, operation) so a mixed trace — e.g. the same batch run once
    per backend — reads as a direct throughput comparison.  Traces from
    before the attribute existed produce no rows.
    """
    totals: dict[tuple[str, str], list[float]] = {}
    for ev in events:
        if ev["name"] not in ("fz.compress", "fz.decompress"):
            continue
        backend = ev.get("attrs", {}).get("backend")
        if backend is None:
            continue
        agg = totals.setdefault((str(backend), ev["name"]), [0, 0.0, 0])
        agg[0] += 1
        agg[1] += ev["dur_us"]
        agg[2] += int(ev["attrs"].get("bytes_in", 0))
    rows = []
    for backend, op in sorted(totals):
        count, dur, nbytes = totals[(backend, op)]
        rows.append(
            {
                "backend": backend,
                "op": op,
                "calls": count,
                "total_ms": dur / 1e3,
                "mean_us": dur / count,
                "mb_per_s": (nbytes / 1e6) / (dur / 1e6) if dur else 0.0,
            }
        )
    return rows


def plan_breakdown(events: list[dict]) -> list[dict]:
    """Aggregate planner root spans per chosen segment plan.

    ``planner.compress`` spans carry the segment plan the probe routed each
    chunk to (``fast``/``interp``/``constant``; chunks compressed through a
    plain ``fast`` request bypass the planner and emit no planner spans);
    ``planner.decompress`` spans carry the plan of each non-fast segment
    decoded.  This groups the trace by (plan, operation), with the
    aggregate compression ratio per plan — the ``repro stats`` view of a
    mixed-plan container run.
    """
    totals: dict[tuple[str, str], list[float]] = {}
    for ev in events:
        if ev["name"] not in ("planner.compress", "planner.decompress"):
            continue
        plan = ev.get("attrs", {}).get("plan")
        if plan is None:
            continue
        agg = totals.setdefault((str(plan), ev["name"]), [0, 0.0, 0, 0])
        agg[0] += 1
        agg[1] += ev["dur_us"]
        agg[2] += int(ev["attrs"].get("bytes_in", 0))
        agg[3] += int(ev["attrs"].get("bytes_out", 0))
    rows = []
    for plan, op in sorted(totals):
        count, dur, bytes_in, bytes_out = totals[(plan, op)]
        if op == "planner.compress":
            ratio = bytes_in / bytes_out if bytes_out else 0.0
        else:  # decompress: in is the stream, out the field
            ratio = bytes_out / bytes_in if bytes_in else 0.0
        rows.append(
            {
                "plan": plan,
                "op": op,
                "chunks": count,
                "total_ms": dur / 1e3,
                "mean_us": dur / count,
                "ratio": ratio,
            }
        )
    return rows


def span_summary(events: list[dict]) -> dict:
    """Whole-trace summary: span/process/thread counts and wall extent."""
    if not events:
        return {"spans": 0, "processes": 0, "threads": 0, "wall_ms": 0.0}
    t0 = min(ev["ts_us"] for ev in events)
    t1 = max(ev["ts_us"] + ev["dur_us"] for ev in events)
    return {
        "spans": len(events),
        "processes": len({ev["pid"] for ev in events}),
        "threads": len({(ev["pid"], ev["tid"]) for ev in events}),
        "wall_ms": (t1 - t0) / 1e3,
    }
