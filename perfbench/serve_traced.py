"""``repro serve`` with the layer wrappers installed, for the traced run.

    python3 perfbench/serve_traced.py OUT.json -- <repro serve arguments>

Serves exactly as ``python3 -m repro serve`` does.  ``SIGUSR1`` starts the
measurement window (warm-up requests before it are not counted); on
shutdown (``SIGTERM`` or ``SIGINT``) the span and counter totals of the
window are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    out_path, serve_args = argv[0], argv[argv.index("--") + 1:]
    from repro import cli
    from tracing import Tracer, install

    tracer = install(Tracer())
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.mark())
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        with open(out_path, "w") as f:
            json.dump(tracer.totals(), f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
