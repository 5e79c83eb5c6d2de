"""Deterministic, seedable fault injection for the execution engine.

Chaos testing a retry/timeout/salvage stack is only useful when the chaos
is **reproducible**: the same plan must inject the same faults at the same
tasks on every run, in every process, on every platform.  This module gets
that by making every injection decision a pure function of

``(seed, site, key, attempt)``

where ``site`` is one of the four injection points, ``key`` is a caller
-supplied stable identifier (the engine uses the task's submission ordinal;
the container writer uses the segment ordinal) and ``attempt`` is the
task's retry count.  No process-local counters, no shared state — a worker
process reaches the identical decision the parent would.

Sites
-----
``worker_crash``
    Kill the worker mid-task.  In a process-pool worker this is a real
    ``os._exit`` (the parent sees ``BrokenProcessPool``); in a thread or
    inline worker it raises :class:`~repro.errors.WorkerCrashError`.
``worker_hang``
    Sleep for ``hang_s`` seconds inside the task, tripping the engine's
    per-task timeout.
``transient_error``
    Raise :class:`~repro.errors.TransientTaskError` (retryable).
``segment_corrupt``
    Flip one deterministic payload byte while a container segment is
    written, producing a CRC-failing segment for salvage testing.

Activation
----------
Either install a config object::

    from repro import faults
    with faults.installed(faults.FaultPlan.parse("worker_crash:at=5")):
        ...

or set the ``REPRO_FAULTS`` environment variable to the same plan syntax
before the process starts.  The engine resolves :func:`active_plan` once
per call, in the parent, and hands that :class:`FaultPlan` to every task
of the call (:func:`fire_task` takes it as an argument), for inline,
thread and process workers alike.  A call thus runs the plan that was
active when it started, and the parent always wins over whatever plan or
environment a long-lived worker inherited at fork time — injected faults
cross the process-pool boundary deterministically.

Plan syntax
-----------
Semicolon-separated site clauses, each ``site:field=value,field=value``::

    REPRO_FAULTS="worker_crash:at=5;transient_error:p=0.3,seed=7,times=2"

Fields: ``p`` (injection probability per draw, default 1), ``at``
(``|``-separated keys to restrict to, default all), ``times`` (number of
attempts per key that may inject, default 1 — so a retry succeeds),
``seed`` (hash seed, default 0) and ``hang_s`` (sleep for ``worker_hang``,
default 30).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.errors import ConfigError, TransientTaskError, WorkerCrashError

__all__ = [
    "SITES",
    "ENV_VAR",
    "CRASH_EXIT_CODE",
    "FaultSpec",
    "FaultPlan",
    "install",
    "uninstall",
    "installed",
    "active_plan",
    "fire_task",
    "corrupt_segment",
]

#: The four supported injection sites.
SITES = ("worker_crash", "worker_hang", "transient_error", "segment_corrupt")

#: Environment variable holding a fault plan (parsed when a plan is resolved).
ENV_VAR = "REPRO_FAULTS"

#: Exit code used by a hard (process) worker crash — distinctive in logs.
CRASH_EXIT_CODE = 117


def _unit_hash(seed: int, site: str, key: int, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) from the decision tuple."""
    digest = hashlib.sha256(
        f"{seed}:{site}:{key}:{attempt}".encode("ascii")
    ).digest()
    (value,) = struct.unpack("<Q", digest[:8])
    return value / 2.0**64


@dataclass(frozen=True)
class FaultSpec:
    """Injection rule for one site (see module docstring for semantics)."""

    site: str
    p: float = 1.0
    at: frozenset[int] = field(default_factory=frozenset)
    times: int = 1
    seed: int = 0
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r} (expected one of {SITES})"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"fault probability must be in [0, 1], got {self.p}")
        if self.times < 1:
            raise ConfigError(f"fault times must be >= 1, got {self.times}")
        if self.hang_s <= 0:
            raise ConfigError(f"hang_s must be positive, got {self.hang_s}")

    def should(self, key: int, attempt: int) -> bool:
        """Pure decision: does this spec fire for ``(key, attempt)``?"""
        if attempt >= self.times:
            return False
        if self.at and key not in self.at:
            return False
        if self.p >= 1.0:
            return True
        return _unit_hash(self.seed, self.site, key, attempt) < self.p


class FaultPlan:
    """An immutable set of :class:`FaultSpec`, at most one per site."""

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = ()) -> None:
        self.specs: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site in self.specs:
                raise ConfigError(f"duplicate fault site {spec.site!r} in plan")
            self.specs[spec.site] = spec

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` plan syntax (see module docstring)."""
        specs = []
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            site, _, rest = clause.partition(":")
            kwargs: dict = {}
            for item in filter(None, (f.strip() for f in rest.split(","))):
                name, eq, value = item.partition("=")
                if not eq:
                    raise ConfigError(f"bad fault field {item!r} (expected name=value)")
                try:
                    if name == "p":
                        kwargs["p"] = float(value)
                    elif name == "at":
                        kwargs["at"] = frozenset(int(k) for k in value.split("|"))
                    elif name == "times":
                        kwargs["times"] = int(value)
                    elif name == "seed":
                        kwargs["seed"] = int(value)
                    elif name == "hang_s":
                        kwargs["hang_s"] = float(value)
                    else:
                        raise ConfigError(f"unknown fault field {name!r}")
                except ValueError as exc:
                    raise ConfigError(f"bad fault field value {item!r}") from exc
            specs.append(FaultSpec(site=site.strip(), **kwargs))
        return cls(specs)

    def spec_for(self, site: str, key: int, attempt: int) -> FaultSpec | None:
        spec = self.specs.get(site)
        if spec is not None and spec.should(key, attempt):
            return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)


_INSTALLED: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` process-wide (config-object activation)."""
    global _INSTALLED
    _INSTALLED = plan


def uninstall() -> None:
    """Deactivate any installed plan (the env fallback applies again)."""
    global _INSTALLED
    _INSTALLED = None


@contextlib.contextmanager
def installed(plan: FaultPlan):
    """Scoped :func:`install` for tests."""
    global _INSTALLED
    prev = _INSTALLED
    _INSTALLED = plan
    try:
        yield plan
    finally:
        _INSTALLED = prev


def active_plan() -> FaultPlan | None:
    """The effective plan: installed object first, then ``REPRO_FAULTS``.

    ``None`` when neither holds a non-empty plan.  The engine resolves it
    once per call, not per task.
    """
    plan = _INSTALLED
    if plan is None:
        text = os.environ.get(ENV_VAR)
        plan = FaultPlan.parse(text) if text else None
    return plan or None


def _count(site: str) -> None:
    if telemetry.enabled():
        telemetry.counter("faults.injected", 1, {"site": site})


def fire_task(
    plan: FaultPlan | None, key: int, attempt: int, hard: bool
) -> None:
    """Fire ``plan``'s worker-task sites for one ``(key, attempt)`` execution.

    ``plan`` is the caller's resolved :func:`active_plan` (``None`` or an
    empty plan injects nothing).  ``hard=True`` means we are inside a
    process-pool worker, where a crash can be a real process death; soft
    workers (threads, inline) raise :class:`WorkerCrashError` instead —
    same recovery path in the engine.
    """
    if not plan:
        return
    if plan.spec_for("worker_crash", key, attempt):
        _count("worker_crash")
        if hard:
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashError(
            f"injected worker crash (task {key}, attempt {attempt})"
        )
    spec = plan.spec_for("worker_hang", key, attempt)
    if spec:
        _count("worker_hang")
        time.sleep(spec.hang_s)
    if plan.spec_for("transient_error", key, attempt):
        _count("transient_error")
        raise TransientTaskError(
            f"injected transient error (task {key}, attempt {attempt})"
        )


def corrupt_segment(payload: bytes, key: int) -> bytes:
    """Maybe flip one deterministic byte of a container segment payload."""
    plan = active_plan()
    if plan is None or not payload:
        return payload
    spec = plan.spec_for("segment_corrupt", key, 0)
    if spec is None:
        return payload
    _count("segment_corrupt")
    pos = int(_unit_hash(spec.seed, "segment_corrupt.pos", key, 0) * len(payload))
    flipped = bytearray(payload)
    flipped[pos] ^= 0xFF
    return bytes(flipped)
