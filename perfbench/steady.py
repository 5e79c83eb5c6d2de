"""Steadiness report: repeat one workload and show each metric's spread.

    python3 perfbench/steady.py --workload file_fast --runs 10 [--seconds 15]

Runs ``run.py`` once per seed (``--first-seed`` onwards), then prints, per
end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)``, the interquartile range as a share of
the median, and that share against the metric's ``bound`` in
``BENCHMARK.json``: ``steady`` below a third of the bound, ``within``
below the bound, ``NOISY`` above it.  Each ``bound`` in ``BENCHMARK.json``
is at least three times the largest spread these reports showed, capped at
0.25.  The last line is the report as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(statistics.median(values)),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    report = {}
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'IQR/med':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        s = spread([r[m["name"]] for r in runs])
        bound = m["bound"]
        s["status"] = ("steady" if s["iqr_share"] <= bound / 3
                       else "within" if s["iqr_share"] <= bound else "NOISY")
        report[m["name"]] = s
        print(f"{m['name']:22s} {s['median']:12.5g} {s['q1']:12.5g} "
              f"{s['q3']:12.5g} {s['iqr_share']:8.4f} {bound:6.3f} {s['status']}")
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "runs": runs, "spread": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
