"""Planner shootout: interp/constant ratio wins and auto-probe overhead.

Three synthetic field kinds exercise the three segment plans:

* ``quad1d`` / ``cross2d`` — smooth polynomial fields whose cubic
  interpolation residuals collapse while their Lorenzo first differences
  stay wide, so the ``interp`` plan must beat the fused fast path on
  ratio (floor: 2x on ``quad1d``);
* ``const1d`` — a constant block, which the auto planner must shortcut
  to an FZCN stream at >= 50x;
* ``rough1d`` — Gaussian noise, where ``plan="auto"`` must route to the
  fast path with probe overhead inside 1.3x of a forced-``fast`` encode.

Every plan's reconstruction is checked against the error bound before any
figure is trusted.  The figures are claims under the shared gate
(``gate.py``); the ratios are deterministic, so they must match the
committed baseline exactly.  Regenerate after an intentional change:

    REPRO_UPDATE_BENCH=1 python -m pytest benchmarks/bench_planner.py -q
"""

from __future__ import annotations

import gate
import numpy as np

from repro.planner import compress_with_plan, decompress_any

EB = 1e-3
MODE = "abs"

#: Acceptance floors from the planner issue.
INTERP_RATIO_FLOOR = 2.0  # interp ratio vs fused ratio on quad1d
CONST_RATIO_FLOOR = 50.0  # constant-chunk compression ratio
AUTO_OVERHEAD_CEIL = 1.3  # auto wall time vs forced-fast on rough data


def _fields() -> dict[str, np.ndarray]:
    # The fast path writes each chunk-leading quantized value raw, so a
    # field's value range must stay under 2*32767*EB or the fused encode
    # saturates; the quadratic is scaled to a range of 60 to keep both
    # plans honestly inside the bound while its first differences still
    # span hundreds of quantization bins.
    n = 1 << 12
    j = np.arange(n, dtype=np.float64)
    quad = ((j * j) * (60.0 / (n * n))).astype(np.float32)
    i2, j2 = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    cross = ((i2 * j2).astype(np.float64) / np.float64(4096.0)).astype(
        np.float32
    )
    return {
        "quad1d": quad,
        "cross2d": cross,
        "const1d": np.full(1 << 18, 3.25, np.float32),
        "rough1d": np.random.default_rng(7)
        .standard_normal(1 << 18)
        .astype(np.float32),
    }


def _in_bound(data: np.ndarray, stream: bytes) -> bool:
    recon = decompress_any(stream)
    err = np.abs(recon.astype(np.float64) - data.astype(np.float64)).max()
    # one float32 ulp at the field's magnitude absorbs reconstruction rounding
    ulp = float(np.spacing(np.float32(np.abs(data).max(initial=0.0))))
    return float(err) <= EB * (1.0 + 1e-5) + ulp


def _measure():
    fields = _fields()
    claims, checks, data = [], {}, {}
    for name in ("quad1d", "cross2d"):
        x = fields[name]
        fast = compress_with_plan(x, EB, MODE, plan="fast")
        interp = compress_with_plan(x, EB, MODE, plan="interp")
        checks[f"{name}.in_bound"] = (
            _in_bound(x, fast.stream) and _in_bound(x, interp.stream)
        )
        claims.append(gate.Claim(
            "interp_vs_fast", fast.compressed_bytes / interp.compressed_bytes,
            floor=INTERP_RATIO_FLOOR if name == "quad1d" else None, field=name,
        ))
        data[name] = {"shape": list(x.shape), "plan": interp.plan,
                      "fast_ratio": fast.ratio, "interp_ratio": interp.ratio}

    const = fields["const1d"]
    auto_const = compress_with_plan(const, EB, MODE, plan="auto")
    checks["const1d.in_bound"] = _in_bound(const, auto_const.stream)
    checks["const1d.routes_constant"] = auto_const.plan == "constant"
    claims.append(gate.Claim("const_ratio", auto_const.ratio,
                             floor=CONST_RATIO_FLOOR, field="const1d"))

    rough = fields["rough1d"]
    auto_rough = compress_with_plan(rough, EB, MODE, plan="auto")
    fast_rough = compress_with_plan(rough, EB, MODE, plan="fast")
    checks["rough1d.in_bound"] = _in_bound(rough, auto_rough.stream)
    checks["rough1d.routes_fast"] = auto_rough.plan == "fast"
    # auto on rough data must emit the forced-fast stream byte-identically
    checks["rough1d.payload_identical"] = auto_rough.stream == fast_rough.stream
    times = gate.interleave({
        "fast": lambda: compress_with_plan(rough, EB, MODE, plan="fast"),
        "auto": lambda: compress_with_plan(rough, EB, MODE, plan="auto"),
    })
    claims.append(gate.Claim("auto_overhead", **gate.ratio(times, "auto", "fast"),
                             ceiling=AUTO_OVERHEAD_CEIL, field="rough1d"))
    data["rough1d"] = {"shape": list(rough.shape), "ms": gate.best_ms(times)}
    return claims, checks, {"eb": EB, "mode": MODE, "fields": data}


def test_planner_shootout():
    gate.enforce("planner", *_measure())
