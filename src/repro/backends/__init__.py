"""Kernel backends: ``fused`` (production) and ``reference`` (the oracle).

All registered backends produce byte-identical streams; they differ in
execution strategy only.  See :mod:`repro.backends.base` for the
interface and selection semantics, :mod:`repro.backends.fused` for the
paper-inspired single-pass fast path.
"""

from __future__ import annotations

from repro.backends.base import (
    AUTO,
    EncodeOutcome,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backends.fused import FusedBackend
from repro.backends.reference import ReferenceBackend

__all__ = [
    "AUTO",
    "EncodeOutcome",
    "KernelBackend",
    "ReferenceBackend",
    "FusedBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
]

register_backend(ReferenceBackend())
register_backend(FusedBackend())
