"""Kernel-backend interface and registry.

A *kernel backend* is one implementation of the two lossy-codec halves —
``encode`` (dual-quantization + bitshuffle + zero-block detection) and
``decode`` (the inverse) — behind the stream format.  Every backend must
produce **byte-identical** encoded streams and **bit-identical** decodes
relative to the ``reference`` backend; backends differ only in wall-clock
and memory behavior.  ``tests/test_backends_conformance.py`` enforces this
for every registered backend across the shape/mode/eb matrix, so a new
backend registered here is automatically covered.

Selection semantics (shared by :class:`repro.core.pipeline.FZGPU`, the
engine and the CLI): an explicit backend name (or instance) wins;
``None`` and ``"auto"`` select ``fused``, the production codec.
``reference`` stays registered as the oracle the others are compared
against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.encoder import EncodedBlocks
from repro.core.quantize import QuantizerStats
from repro.errors import ConfigError
from repro.utils.pool import Scratch

__all__ = [
    "EncodeOutcome",
    "KernelBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "resolve_backend",
    "AUTO",
]

#: Pseudo-backend name for the production default, ``fused``.
AUTO = "auto"


@dataclass(frozen=True)
class EncodeOutcome:
    """Result of one backend ``encode`` call.

    ``codes_bytes``/``shuffled_bytes`` report the sizes of the intermediate
    stages for :class:`~repro.core.pipeline.CompressionResult.stage_sizes`
    even when a backend (the fused one) never materializes them — the
    numbers are a property of the geometry, not of the execution strategy,
    so every backend reports identical values for identical input.
    """

    encoded: EncodedBlocks
    padded_shape: tuple[int, ...]
    stats: QuantizerStats
    codes_bytes: int
    shuffled_bytes: int


class KernelBackend:
    """Base class for kernel backends.

    Subclasses implement :meth:`encode` and :meth:`decode` and set
    ``name``.  A backend instance may be shared between threads (the
    engine's thread pool calls one codec object concurrently), so any
    internal scratch state must be per-thread — use :meth:`_own_scratch`.
    """

    #: Registry key; also the value shown in telemetry's ``backend`` attr.
    name: str = ""
    #: True when :meth:`encode` itself raises the counted
    #: :class:`~repro.errors.UnsupportedDataError` for NaN/Inf input, so
    #: :meth:`~repro.core.pipeline.FZGPU.compress` skips its own pass.
    rejects_non_finite: bool = False

    def __init__(self) -> None:
        self._tls = threading.local()

    # -- interface ---------------------------------------------------------

    def encode(
        self,
        data: np.ndarray,
        eb_abs: float,
        chunk: tuple[int, ...],
        scratch: Scratch | None = None,
    ) -> EncodeOutcome:
        raise NotImplementedError

    def decode(
        self,
        encoded: EncodedBlocks,
        padded_shape: tuple[int, ...],
        orig_shape: tuple[int, ...],
        eb_abs: float,
        chunk: tuple[int, ...] | None,
        scratch: Scratch | None = None,
    ) -> np.ndarray:
        raise NotImplementedError

    # -- shared plumbing ---------------------------------------------------

    def _own_scratch(self, scratch: Scratch | None) -> Scratch:
        """Return the caller's scratch, or this thread's private arena.

        Backends that need an arena even for scratch-less calls (fused)
        keep one per thread: codec objects are shared across engine
        worker threads and a :class:`Scratch` must never be used by two
        concurrent tasks.
        """
        if scratch is not None:
            return scratch
        own = getattr(self._tls, "scratch", None)
        if own is None:
            own = self._tls.scratch = Scratch()
        return own


_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend, replace: bool = False) -> KernelBackend:
    """Register ``backend`` under ``backend.name`` (used by tests/plugins)."""
    name = backend.name
    if not name or name == AUTO:
        raise ConfigError(f"backend name {name!r} is reserved or empty")
    if name in _REGISTRY and not replace:
        raise ConfigError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; unknown names raise :class:`ConfigError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends()) or '<none>'} (or {AUTO!r})"
        ) from None


def resolve_backend(selected: str | KernelBackend | None) -> KernelBackend:
    """Resolve a backend selection to a concrete :class:`KernelBackend`.

    ``selected`` may be an instance (used as-is), a registered name, or
    ``None``/``"auto"`` for ``fused``.
    """
    if isinstance(selected, KernelBackend):
        return selected
    return get_backend("fused" if selected in (None, AUTO) else selected)
