"""repro.serve — compression-as-a-service front end for the engine.

A long-running, stdlib-only asyncio HTTP server that turns the
:class:`~repro.engine.Engine` into a network service: streaming chunked
compress/decompress of ``FZMC0002`` containers, container ``info`` and
``salvage`` endpoints, two-signal admission control (in-flight cap +
engine queue-depth high-water mark, shed with ``429`` + ``Retry-After``),
per-client token-bucket quotas, and ``/healthz`` + ``/metrics`` straight
from the telemetry recorder.  Protocol, endpoints and the failure-taxonomy
-> status-code table are documented in ``docs/SERVING.md``.

Typical embedding (the test fixtures do exactly this)::

    from repro.engine import Engine
    from repro.serve import App, ServeConfig, Server

    with Engine(jobs=4) as engine:
        with Server(App(engine, ServeConfig(port=0))) as srv:
            host, port = srv.address
            ...

From the command line: ``repro serve --port 8080 --jobs 4``.
"""

from repro.serve.app import App, ServeConfig, enable_metrics, error_response
from repro.serve.http import (
    HttpError,
    Limits,
    Request,
    Response,
    StreamAborted,
    read_request,
    read_request_body,
    read_request_head,
    render_request,
    render_response,
    write_response,
)
from repro.serve.quota import QuotaTable, TokenBucket
from repro.serve.server import Server

__all__ = [
    "App",
    "ServeConfig",
    "Server",
    "HttpError",
    "StreamAborted",
    "Limits",
    "Request",
    "Response",
    "QuotaTable",
    "TokenBucket",
    "enable_metrics",
    "error_response",
    "read_request",
    "read_request_head",
    "read_request_body",
    "write_response",
    "render_request",
    "render_response",
]
