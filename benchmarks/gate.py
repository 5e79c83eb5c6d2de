"""One timing and gating discipline for the committed perf benches.

A gate bench measures, then hands :func:`enforce` a list of :class:`Claim`
figures, a dict of identity checks and free-form data.  The protocol
(``docs/PERFORMANCE.md`` has the prose):

* **timing** -- :func:`interleave` runs the compared sides alternately for
  ``ROUNDS`` rounds and reverses their order every round, so a change in
  machine load lands on every side instead of whichever ran last;
* **statistic** -- a timed figure is the ratio of two sides' minimum times
  (:func:`ratio`), and its spread is the median and quartiles of the
  per-round ratios;
* **acceptance** -- a claim fails below its ``floor`` or above its
  ``ceiling``;
* **regression** -- a claim fails when it falls below
  :func:`regression_factor` of its committed value (for a claim with a
  ceiling: rises above the committed value divided by that factor).  The
  factor comes from the committed spread, so a deterministic figure such
  as a compression ratio has zero spread and must equal its committed
  value exactly.

Every run writes ``results/BENCH_<bench>.json`` (not tracked); with
``REPRO_UPDATE_BENCH=1`` it also overwrites the committed baseline
``BENCH_<bench>.json``.  Each record carries its provenance and every
claim's spread.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform
import statistics
import subprocess
import time
from typing import Callable

import numpy as np

from repro.harness import render_table

HERE = pathlib.Path(__file__).parent
#: Timed rounds per comparison; every side runs once per round.
ROUNDS = 15
#: The regression factor never drops below this ...
MIN_FACTOR = 0.6
#: ... and otherwise allows this many interquartile ranges of measured
#: noise -- the rule that set the perfbench bounds in BENCHMARK.json.
SPREAD_MULTIPLE = 3.0


@dataclasses.dataclass(frozen=True)
class Claim:
    """A gated figure of one bench: ``value`` with a floor or a ceiling.

    A claim with a ceiling is lower-is-better, any other higher-is-better;
    one with neither is only regression-checked.  ``median``/``q1``/``q3``
    are the per-round spread of a timed figure; left out, the figure is
    deterministic and its spread is zero.  ``field`` names the input.
    """

    name: str
    value: float
    floor: float | None = None
    ceiling: float | None = None
    field: str | None = None
    median: float | None = None
    q1: float | None = None
    q3: float | None = None

    def __post_init__(self):
        if self.median is None:
            for k in ("median", "q1", "q3"):
                object.__setattr__(self, k, self.value)

    @property
    def key(self) -> str:
        return f"{self.field}.{self.name}" if self.field else self.name

    def record(self) -> dict:
        out = {k: getattr(self, k) for k in ("value", "median", "q1", "q3")}
        out.update((k, getattr(self, k)) for k in ("floor", "ceiling")
                   if getattr(self, k) is not None)
        return out


def interleave(
    sides: dict[str, Callable[[], object]],
    rounds: int = ROUNDS,
    clock: Callable[[], float] = time.perf_counter,
) -> dict[str, list[float]]:
    """Time every side once per round, reversing the side order each round."""
    order = list(sides)
    times: dict[str, list[float]] = {name: [] for name in order}
    for _ in range(rounds):
        for name in order:
            t0 = clock()
            sides[name]()
            times[name].append(clock() - t0)
        order.reverse()
    return times


def ratio(times: dict[str, list[float]], num: str, den: str) -> dict:
    """``min(num) / min(den)`` plus the quartiles of the per-round ratios."""
    per_round = [a / b for a, b in zip(times[num], times[den])]
    q1, median, q3 = statistics.quantiles(per_round, n=4)
    return {"value": min(times[num]) / min(times[den]),
            "median": median, "q1": q1, "q3": q3}


def best_ms(times: dict[str, list[float]]) -> dict[str, float]:
    """Each side's minimum time in milliseconds, for the record."""
    return {name: min(t) * 1e3 for name, t in times.items()}


def regression_factor(committed: dict) -> float:
    """Share of a committed figure a fresh run may fall to."""
    iqr_share = (committed["q3"] - committed["q1"]) / abs(committed["median"])
    return max(MIN_FACTOR, 1.0 - SPREAD_MULTIPLE * iqr_share)


def failures(claims: list[Claim], checks: dict[str, bool],
             committed: dict[str, dict]) -> list[str]:
    """Every failed check, bound and regression, one message each.

    ``committed`` maps claim keys to the baseline record's claims.
    """
    out = [f"{name}: check failed" for name, ok in checks.items() if not ok]
    for c in claims:
        got = (f"{c.key} {c.value:.4g} "
               f"(median {c.median:.4g}, q1 {c.q1:.4g}, q3 {c.q3:.4g})")
        if c.floor is not None and c.value < c.floor:
            out.append(f"{got} < floor {c.floor:.4g}")
        if c.ceiling is not None and c.value > c.ceiling:
            out.append(f"{got} > ceiling {c.ceiling:.4g}")
        old = committed.get(c.key)
        if old is None:
            continue
        if old["q1"] == old["q3"]:
            if c.value != old["value"]:
                out.append(f"{got} != committed {old['value']!r} "
                           f"(deterministic figure)")
            continue
        factor = regression_factor(old)
        if c.ceiling is None and c.value < factor * old["value"]:
            out.append(f"{got} regressed below {factor:.2f} x committed "
                       f"{old['value']:.4g}")
        if c.ceiling is not None and c.value > old["value"] / factor:
            out.append(f"{got} regressed above committed "
                       f"{old['value']:.4g} / {factor:.2f}")
    return out


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def enforce(bench: str, claims: list[Claim], checks: dict[str, bool],
            data: dict, directory: pathlib.Path = HERE) -> dict:
    """Write the run's record, then fail on any check, bound or regression."""
    record = {
        "bench": bench,
        "provenance": provenance(),
        "rounds": ROUNDS,
        "claims": {c.key: c.record() for c in claims},
        "checks": checks,
        "data": data,
    }
    text = json.dumps(record, indent=2) + "\n"
    (directory / "results").mkdir(exist_ok=True)
    (directory / "results" / f"BENCH_{bench}.json").write_text(text)
    baseline = directory / f"BENCH_{bench}.json"
    if os.environ.get("REPRO_UPDATE_BENCH"):
        baseline.write_text(text)
    committed = (json.loads(baseline.read_text())["claims"]
                 if baseline.exists() else {})
    rows = [{"claim": key, **c,
             "committed": committed.get(key, {}).get("value", "")}
            for key, c in record["claims"].items()]
    print("\n" + render_table(
        rows, columns=["claim", "value", "median", "q1", "q3", "floor",
                       "ceiling", "committed"],
        title=f"{bench} gate, {ROUNDS} interleaved rounds",
    ))
    problems = failures(claims, checks, committed)
    if problems:
        raise AssertionError(f"{bench} gate: " + "; ".join(problems))
    return record
