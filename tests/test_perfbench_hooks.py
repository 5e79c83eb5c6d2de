"""The benchmark's layer tracer still finds every hook it wraps by name.

``perfbench/tracing.py`` replaces ``Engine`` methods, pool methods and
module functions by name (``Tracer.wrap_method`` reads
``cls.__dict__[name]``), so renaming or moving one of them breaks the
traced benchmark run.  This installs the tracer in a fresh interpreter,
exactly as ``perfbench/runner.py`` does, and expects a clean exit.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_tracer_installs_on_the_program():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "from tracing import Tracer, install\n"
        "install(Tracer())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
