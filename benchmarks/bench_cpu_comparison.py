"""§4.4 prose: FZ-GPU vs multi-threaded CPU implementations (FZ-OMP, SZ-OMP).

The paper reports 31.8x-42.4x speedups of FZ-GPU (A100) over FZ-OMP on the
Xeon Gold 6238R node, and FZ-OMP 1.7x-2.5x over SZ-OMP on the 3-D datasets.
"""

from __future__ import annotations

import numpy as np
from conftest import checks_block, run_once

from repro.harness import render_table, run_experiment


def test_cpu_comparison(benchmark, record_result):
    res = run_once(benchmark, lambda: run_experiment("cpu"))
    table = render_table(
        res.rows,
        columns=["dataset", "threads", "fz_gpu_gbps", "fz_omp_gbps", "sz_omp_gbps",
                 "fz_cpu_measured_gbps", "gpu_speedup", "omp_speedup_vs_sz"],
        title=res.title,
    )
    record_result("cpu", table + checks_block(res))
    assert res.all_checks_pass, res.checks

    speedups = [r["gpu_speedup"] for r in res.rows if r["dataset"] != "scaling"]
    assert 10.0 < float(np.mean(speedups)) < 80.0
    # FZ-OMP over SZ-OMP band (paper: 1.7x / 2.5x / 2.0x on the 3-D sets)
    omp = [r["omp_speedup_vs_sz"] for r in res.rows if r["dataset"] != "scaling"]
    assert all(1.2 < s < 3.5 for s in omp)
