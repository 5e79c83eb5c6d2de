#!/usr/bin/env python
"""Lint: forbid direct ``time.perf_counter()`` use outside the two clock owners.

All timing in ``src/repro/`` must go through :mod:`repro.telemetry` (spans or
``timed_span``) so every measurement shows up in exported traces, and all
timing in ``benchmarks/`` must go through ``benchmarks/gate.py`` so every
committed perf gate uses one interleaved timing discipline.  Those two are
the only places allowed to touch ``perf_counter``.

Usage::

    python tools/check_perf_counter.py   # scan both trees, exit 1 on hits

The ``scan()`` function is importable so the test suite runs the same check.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
#: Scanned trees (relative to the repo) and the top-level entry in each
#: that owns the clock and is exempt from the ban.
ROOTS = {"src/repro": ("telemetry",), "benchmarks": ("gate.py",)}

_PATTERN = re.compile(r"perf_counter")


def scan(root: str | pathlib.Path,
         allowed: tuple[str, ...] = ()) -> list[tuple[str, int, str]]:
    """Return ``(path, lineno, line)`` for every offending occurrence."""
    root = pathlib.Path(root)
    hits: list[tuple[str, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts and rel.parts[0] in allowed:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if _PATTERN.search(line):
                hits.append((str(path), lineno, line.strip()))
    return hits


def main() -> int:
    hits = [hit for root, allowed in ROOTS.items()
            for hit in scan(REPO / root, allowed)]
    for path, lineno, line in hits:
        print(f"{path}:{lineno}: direct perf_counter use: {line}")
    if hits:
        print(
            f"\n{len(hits)} direct perf_counter call(s) found — use "
            "repro.telemetry spans (telemetry.span / telemetry.timed_span) "
            "in src/repro, or benchmarks/gate.py in benchmarks/.",
            file=sys.stderr,
        )
        return 1
    print("OK: no direct perf_counter use outside repro/telemetry/ "
          "and benchmarks/gate.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
