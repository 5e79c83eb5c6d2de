"""Helpers shared by the benchmark's parent process and the program hosts."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys

import numpy as np

#: every workload compresses at this relative error bound
EB = 1e-3

#: a slab read covers one of this many equal row bands
N_BANDS = 16

#: the band the file and batch workloads read once per cycle; a fixed band
#: keeps the slab latency free of band-to-band cost differences
SLAB_BAND = 6


def sha(data) -> str:
    """sha256 of an array's bytes (C order) or of a bytes-like object."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).data
    return hashlib.sha256(data).hexdigest()


def band(rows: int, k: int) -> tuple[int, int]:
    """Row span ``[start, stop)`` of band ``k`` of ``N_BANDS``."""
    return k * rows // N_BANDS, (k + 1) * rows // N_BANDS


def band_spec(rows: int, k: int) -> str:
    """Slab spec string of band ``k``: the rows, every column."""
    a, b = band(rows, k)
    return f"{a}:{b}"


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of a live process, in MB (VmHWM)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM not reported by /proc")


def child_env() -> dict:
    """Environment for the program hosts: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def emit(tag: str, payload) -> None:
    """One protocol line on stdout: ``<tag> <json>``."""
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()
