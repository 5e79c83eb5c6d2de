"""Reusable scratch buffers and the shared-memory zero-copy data plane.

``FZGPU.compress`` allocates a family of large temporaries on every call —
the float64 pre-quantization grid, the int64 Lorenzo residuals, the uint16
code plane and the 32x-blown-up bit-transpose workspace.  For one-shot use
that is fine; in a batch/streaming engine those allocations dominate the
steady state: every call pays ``mmap``/page-fault costs for buffers whose
sizes never change between fields.

:class:`Scratch` is a keyed arena of NumPy buffers that grows monotonically
and hands out *views* sized to each request, so the second and every later
compression of same-shaped data performs **zero** temporary allocations.
:class:`BufferPool` is the thread-safe checkout counter the execution engine
uses to give each concurrent worker its own :class:`Scratch` (scratch
buffers are mutable state and must never be shared between in-flight
tasks).

:class:`SharedArena` is the cross-*process* analogue: a refcount-leased pool
of named ``multiprocessing.shared_memory`` segments.  The engine's
process-pool data plane leases blocks from it, hands workers
:class:`ShmDescriptor` tuples instead of pickled ndarrays, hands large
decoded fields back as :class:`ShmArray` views of their output block, and
unlinks every segment deterministically — the lifecycle rules are spelled
out on the class.

Pooled code paths are required to be *bit-identical* to the unpooled
reference paths — `tests/test_engine_differential.py` and
`tests/test_engine_shm.py` enforce this across the jobs x chunking x pool
matrix, against the inline ``Engine(jobs=1)`` reference.
"""

from __future__ import annotations

import atexit
import math
import mmap as _mmap_mod
import os
import threading
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import ConfigError

__all__ = [
    "Scratch",
    "BufferPool",
    "SharedArena",
    "ShmBlock",
    "ShmArray",
    "ShmDescriptor",
    "MmapDescriptor",
    "mmap_descriptor_for",
    "shm_available",
    "detach_all",
]


class Scratch:
    """A keyed arena of reusable NumPy buffers.

    ``take(key, shape, dtype)`` returns a C-contiguous array of exactly
    ``shape``/``dtype`` backed by a per-key byte arena that is reused across
    calls.  The arena only grows; once a key has seen its largest request
    (in bytes), later calls allocate nothing.

    Arenas are dtype-agnostic: the backing store is raw bytes, and each
    ``take`` returns a correctly-typed view over it.  Two ``take`` calls
    with the same key therefore alias the same memory even when they ask
    for different dtypes — including different dtypes of equal itemsize,
    which historically collided into one-arena-per-dtype behavior that
    broke the aliasing contract below.

    Rules for callers:

    * Two ``take`` calls with the same key alias the same memory — use a
      distinct key per live temporary.
    * Returned views are invalidated by the next larger ``take`` on the
      same key and are mutated by the next task using this scratch; copy
      anything that outlives the call (byte streams do this naturally via
      ``tobytes()``).
    * A :class:`Scratch` is single-owner state: borrow one per worker from
      a :class:`BufferPool`, never share one between concurrent tasks.
    """

    __slots__ = ("_arenas", "n_allocations", "n_requests")

    def __init__(self) -> None:
        self._arenas: dict[str, np.ndarray] = {}
        #: Number of backing-buffer allocations performed (growth events).
        self.n_allocations = 0
        #: Number of ``take`` calls served.
        self.n_requests = 0

    def take(self, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Return a contiguous ``shape``/``dtype`` view of the ``key`` arena.

        The contents are *unspecified* (whatever the previous use left
        behind); callers must fully overwrite or explicitly zero the view.
        """
        dtype = np.dtype(dtype)
        n = math.prod(shape) if shape else 1
        nbytes = max(n, 1) * dtype.itemsize
        self.n_requests += 1
        arena = self._arenas.get(key)
        if arena is None or arena.nbytes < nbytes:
            arena = np.empty(nbytes, dtype=np.uint8)
            self._arenas[key] = arena
            self.n_allocations += 1
            # growth events are rare (cold start / larger shape) — the
            # steady-state take() path never reaches this counter call
            telemetry.counter("pool.scratch_growth", 1)
            telemetry.counter("pool.scratch_growth_bytes", int(arena.nbytes))
        return arena[: n * dtype.itemsize].view(dtype).reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arenas."""
        return sum(a.nbytes for a in self._arenas.values())

    def clear(self) -> None:
        """Release every arena (stats are kept)."""
        self._arenas.clear()


class BufferPool:
    """Thread-safe pool of :class:`Scratch` arenas, one per in-flight task.

    An inline or thread engine task checks a scratch out around its
    compression/decompression::

        scratch = pool.acquire()
        try:
            result = codec.compress(field, eb=1e-3, scratch=scratch)
        finally:
            pool.release(scratch)

    Concurrency never exceeds the worker count, so the pool holds at most
    ``jobs`` scratches in the steady state; after warm-up, borrowing is a
    list pop and compression allocates nothing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: list[Scratch] = []
        #: Total Scratch instances ever created by this pool.
        self.n_created = 0

    def acquire(self) -> Scratch:
        """Check a scratch out of the pool (creating one if none is free)."""
        with self._lock:
            if self._free:
                scratch = self._free.pop()
                idle = len(self._free)
                telemetry.counter("pool.hit")
                telemetry.gauge("pool.idle", idle)
                return scratch
            self.n_created += 1
        telemetry.counter("pool.miss")
        return Scratch()

    def release(self, scratch: Scratch) -> None:
        """Return a scratch to the pool for reuse."""
        with self._lock:
            self._free.append(scratch)
            idle = len(self._free)
        telemetry.gauge("pool.idle", idle)

    @property
    def n_idle(self) -> int:
        """Scratches currently checked in."""
        with self._lock:
            return len(self._free)

    @property
    def n_allocations(self) -> int:
        """Total growth allocations across idle scratches."""
        with self._lock:
            return sum(s.n_allocations for s in self._free)


# ---------------------------------------------------------------------------
# shared-memory data plane (process pools)
# ---------------------------------------------------------------------------

try:  # platforms without POSIX/Win32 shared memory raise on import/use
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms
    _resource_tracker = None
    _shared_memory = None

_SHM_PROBED: bool | None = None

#: Smallest block the arena creates; requests are rounded up to a power of
#: two at least this large (the block's size class) so the free lists stay
#: reusable across the small size jitter between chunks.
MIN_SHM_BLOCK = 1 << 20


def shm_available() -> bool:
    """True when named shared memory works on this platform (probed once)."""
    global _SHM_PROBED
    if _SHM_PROBED is None:
        if _shared_memory is None:
            _SHM_PROBED = False
        else:
            try:
                seg = _shared_memory.SharedMemory(create=True, size=16)
                seg.close()
                seg.unlink()
                _SHM_PROBED = True
            except Exception:
                _SHM_PROBED = False
    return _SHM_PROBED


class ShmArray(np.ndarray):
    """An ndarray view over a leased :class:`ShmBlock` (parent side).

    Views and row slices keep the ``shm_block`` reference, which is what
    lets the engine turn ``data[a:b]`` chunk spans of a shared-memory
    resident field into :class:`ShmDescriptor` tasks without copying.
    Process-pool decodes return these for fields that fill at least half
    their block: such an array owns its block's lease
    (:meth:`ShmBlock.adopt`).
    """

    def __array_finalize__(self, obj) -> None:
        self.shm_block = getattr(obj, "shm_block", None)


@dataclass(frozen=True)
class ShmDescriptor:
    """Address of an array inside a named shared-memory segment.

    This is what crosses the process boundary instead of a pickled ndarray:
    ``(shm_name, offset, shape, dtype)`` plus a writability flag.  Workers
    :meth:`attach` a view (cached per process, registration with the
    resource tracker suppressed — the parent owns every unlink).
    """

    name: str
    offset: int
    shape: tuple[int, ...]
    dtype: str
    writable: bool = False

    @property
    def nbytes(self) -> int:
        return int(math.prod(self.shape) if self.shape else 1) * np.dtype(self.dtype).itemsize

    def attach(self) -> np.ndarray:
        """Map the described array in this process (worker side)."""
        shm = _attach_segment(self.name)
        arr = np.frombuffer(
            shm.buf,
            dtype=self.dtype,
            count=int(math.prod(self.shape) if self.shape else 1),
            offset=self.offset,
        ).reshape(self.shape)
        if not self.writable:
            arr = arr.view()
            arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class MmapDescriptor:
    """Address of an array inside a plain file (``compress_file`` inputs).

    Streaming file compression already memory-maps its input; shipping the
    mapping coordinates instead of the bytes lets workers fault the chunk
    straight from the page cache — the same pages the parent would have
    copied — so file-sourced fields are zero-copy end to end.
    """

    path: str
    offset: int  #: byte offset of the first element
    shape: tuple[int, ...]
    dtype: str

    def attach(self) -> np.ndarray:
        arr = np.memmap(
            self.path, dtype=self.dtype, mode="r", offset=self.offset,
            shape=self.shape,
        )
        return arr

    @property
    def nbytes(self) -> int:
        return int(math.prod(self.shape) if self.shape else 1) * np.dtype(self.dtype).itemsize


def mmap_descriptor_for(arr: np.ndarray) -> MmapDescriptor | None:
    """Describe a read-only ``np.memmap`` (or a view of one) by file address.

    Returns ``None`` for anything that cannot be re-mapped faithfully in
    another process: non-memmap arrays, copy-on-write/writable mappings,
    non-contiguous views.  The byte offset is recovered from the view's
    buffer address relative to the mapping base, so row slices of a mapped
    field (``data[a:b]``) describe correctly without per-view bookkeeping.
    """
    if not isinstance(arr, np.memmap) or getattr(arr, "mode", None) != "r":
        return None
    if not arr.flags["C_CONTIGUOUS"] or arr.size == 0:
        return None
    filename = getattr(arr, "filename", None)
    offset = getattr(arr, "offset", None)
    mapping = getattr(arr, "_mmap", None)
    if not filename or offset is None or mapping is None:
        return None
    try:
        base = np.frombuffer(mapping, dtype=np.uint8).ctypes.data
    except (ValueError, TypeError):  # pragma: no cover - closed mapping
        return None
    # np.memmap maps from the allocation-granularity floor of the requested
    # offset; element 0 of any view sits at base + (view addr - base).
    aligned = int(offset) - int(offset) % _mmap_mod.ALLOCATIONGRANULARITY
    file_offset = aligned + (int(arr.ctypes.data) - int(base))
    if file_offset < 0:
        return None
    return MmapDescriptor(
        str(filename),
        file_offset,
        tuple(int(n) for n in arr.shape),
        arr.dtype.str,
    )


class ShmBlock:
    """One named shared-memory segment, lease-refcounted by its arena.

    Blocks are created and unlinked only by the owning :class:`SharedArena`
    (the parent process); workers attach via :class:`ShmDescriptor` and
    never unlink.  ``retain``/``release`` bracket every use — the engine
    retains once per in-flight task touching the block and releases when
    the task's result has been consumed (or the task was quarantined), at
    which point the block returns to its size class's free list.  A decode
    output block is instead handed to the result array (:meth:`adopt`).
    """

    __slots__ = ("arena", "shm", "capacity", "refs", "base_addr")

    def __init__(self, arena: "SharedArena", shm) -> None:
        self.arena = arena
        self.shm = shm
        self.capacity = shm.size
        self.refs = 1
        # segment base address: lets descriptor_for() address any ndarray
        # whose memory lives inside this block without bookkeeping per view
        self.base_addr = np.frombuffer(shm.buf, dtype=np.uint8).ctypes.data

    @property
    def name(self) -> str:
        return self.shm.name

    def retain(self) -> "ShmBlock":
        self.arena._retain(self)
        return self

    def release(self) -> None:
        self.arena._release(self)

    def retire(self) -> None:
        """Unlink without recycling (sole-holder blocks only).

        Used when a worker may still hold a *stale writable* mapping of the
        block — e.g. after a task timeout wedged its process mid-write.  A
        retired name can never be leased to a later task, so the stale
        writer can only scribble on orphaned pages.
        """
        self.arena._retire(self)

    def view(self, nbytes: int | None = None, offset: int = 0) -> memoryview:
        """Raw writable bytes of the segment (parent side)."""
        end = self.capacity if nbytes is None else offset + nbytes
        return self.shm.buf[offset:end]

    def asarray(self, shape: tuple[int, ...], dtype, offset: int = 0) -> ShmArray:
        """A writable :class:`ShmArray` view of the block (parent side)."""
        dtype = np.dtype(dtype)
        count = int(math.prod(shape) if shape else 1)
        arr = np.frombuffer(
            self.shm.buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape).view(ShmArray)
        arr.shm_block = self
        return arr

    def adopt(self, shape: tuple[int, ...], dtype) -> ShmArray:
        """Hand the caller's reference to a new :class:`ShmArray` view.

        The block goes back to its arena once that array and every view of
        it are gone.  NumPy collapses any view's ``base`` chain onto the
        first array whose own base is not an array — here the
        ``frombuffer`` array over the segment — so a finalizer on that root
        outlives every view, whatever its array type.
        """
        arr = self.asarray(shape, dtype)
        root = arr
        while isinstance(root.base, np.ndarray):
            root = root.base
        weakref.finalize(root, self.arena._release_later, self)
        return arr

    def descriptor(
        self, shape: tuple[int, ...], dtype, offset: int = 0, writable: bool = False
    ) -> ShmDescriptor:
        return ShmDescriptor(
            self.name, offset, tuple(int(n) for n in shape), np.dtype(dtype).str,
            writable,
        )

    def descriptor_for(self, arr: np.ndarray, writable: bool = False) -> ShmDescriptor:
        """Describe an ndarray whose memory lives inside this block."""
        if not arr.flags["C_CONTIGUOUS"]:
            raise ConfigError("shared-memory descriptors need C-contiguous data")
        offset = int(arr.ctypes.data) - self.base_addr
        if offset < 0 or offset + arr.nbytes > self.capacity:
            raise ConfigError(
                f"array does not live inside shared-memory block {self.name}"
            )
        return self.descriptor(arr.shape, arr.dtype, offset, writable)


class SharedArena:
    """Refcount-leased pool of named shared-memory blocks (the data plane).

    Lifecycle rules (enforced by ``tests/test_engine_shm.py``):

    * ``lease(nbytes)`` rounds the request up to its size class — a power
      of two ≥ :data:`MIN_SHM_BLOCK` — and reuses an idle block of exactly
      that class; only an empty class free list creates a segment.
    * every additional user of a leased block calls ``retain()``; each
      ``release()`` drops one reference, and the last one puts the block
      back on its class's free list.  Nothing is unlinked on release: a
      class creates a segment only when its list is empty, so the blocks
      it keeps never outnumber the most it had leased at once.  A workload
      that repeats therefore reaches a steady state that creates no
      segment, at the memory of its own peak working set.
    * a block handed to an array (:meth:`ShmBlock.adopt`) is released by a
      ``weakref.finalize`` once the array and its views are gone.  That
      can run on any thread at any garbage-collection point — including
      inside this arena's own locked sections — so it never takes the
      lock: it queues the block, and the next lease or release files it.
      The engine adopts only blocks a decoded field fills at least half
      of, so held results never pin much more memory than they hold.
    * ``close()`` unlinks **everything** the arena ever created, leased or
      idle, and makes every later release a no-op.  The engine calls it
      from ``close()``/``__exit__`` and an ``atexit`` hook, so a crash-,
      timeout- or quarantine-interrupted run still leaves ``/dev/shm``
      empty and the resource tracker silent.  Arrays that still view a
      block stay readable: the mapping outlives the name.
    """

    def __init__(self) -> None:
        if _shared_memory is None or not shm_available():
            raise ConfigError("shared memory is not available on this platform")
        self._lock = threading.Lock()
        #: size class (block capacity) -> idle blocks of that class
        self._free: dict[int, list[ShmBlock]] = {}
        self._live: set[ShmBlock] = set()
        # blocks whose adopting array died, filed under the lock later
        self._orphans: deque[ShmBlock] = deque()
        self._closed = False
        #: Total block creations (shared-memory growth events).
        self.n_created = 0
        #: Total lease() calls served.
        self.n_leases = 0
        # interpreter-exit backstop: an unhandled crash between lease and
        # release must still leave /dev/shm empty (close() is idempotent,
        # so the normal engine-close path makes this a no-op)
        atexit.register(self.close)

    # -- leasing -----------------------------------------------------------

    @staticmethod
    def _block_size(nbytes: int) -> int:
        size = MIN_SHM_BLOCK
        while size < nbytes:
            size *= 2
        return size

    def lease(self, nbytes: int) -> ShmBlock:
        """Check out a block with capacity >= ``nbytes`` (refcount 1)."""
        size = self._block_size(int(nbytes))
        with self._lock:
            if self._closed:
                raise ConfigError("SharedArena is closed")
            self._file_orphans()
            self.n_leases += 1
            free = self._free.get(size)
            if free:
                block = free.pop()
                block.refs = 1
                idle = self._idle()
            else:
                block = None
        if block is not None:
            telemetry.counter("pool.shm.hit")
            telemetry.gauge("pool.shm.idle", idle)
            return block
        shm = _shared_memory.SharedMemory(create=True, size=size)
        block = ShmBlock(self, shm)
        # the capacity is the free-list key: a power of two >= 1 MiB is
        # already page-aligned, so the segment is never rounded up
        assert block.capacity == size, (block.capacity, size)
        with self._lock:
            closed = self._closed
            if not closed:
                self._live.add(block)
                self.n_created += 1
        if closed:  # close() ran while the segment was being created
            _unlink_block(block)
            raise ConfigError("SharedArena is closed")
        telemetry.counter("pool.shm.miss")
        telemetry.counter("pool.shm.growth_bytes", size)
        return block

    def _retain(self, block: ShmBlock) -> None:
        with self._lock:
            if self._closed:
                raise ConfigError("SharedArena is closed")
            if block.refs <= 0:
                raise ConfigError("retain() on a block that is not leased")
            block.refs += 1

    def _release(self, block: ShmBlock) -> None:
        with self._lock:
            if self._closed:  # close() already unlinked it
                return
            if block.refs <= 0:
                raise ConfigError("release() on a block that is not leased")
            self._drop(block)
            self._file_orphans()
            idle = self._idle()
        telemetry.gauge("pool.shm.idle", idle)

    def _release_later(self, block: ShmBlock) -> None:
        # the adopt() finalizer: lock-free, so a release that fires inside
        # a locked section of this very thread cannot deadlock (deque
        # appends are atomic)
        if not self._closed:
            self._orphans.append(block)

    def _file_orphans(self) -> None:
        while self._orphans:
            self._drop(self._orphans.popleft())

    def _drop(self, block: ShmBlock) -> None:
        block.refs -= 1
        if block.refs == 0:
            self._free.setdefault(block.capacity, []).append(block)

    def _idle(self) -> int:
        return sum(len(free) for free in self._free.values())

    def _retire(self, block: ShmBlock) -> None:
        with self._lock:
            if block.refs <= 0:  # already released or retired
                return
            block.refs = 0
            self._live.discard(block)
        telemetry.counter("pool.shm.retire")
        _unlink_block(block)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unlink every segment this arena created (idempotent).

        Outstanding leases are invalidated too: close() is the fault-path
        backstop, and a leaked named segment is strictly worse than an
        in-flight task losing its mapping (on POSIX existing maps stay
        valid until unmapped anyway).
        """
        with self._lock:
            blocks = list(self._live)
            self._live.clear()
            self._free.clear()
            self._orphans.clear()
            self._closed = True
        for block in blocks:
            _unlink_block(block)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: deterministic paths call close()
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    # -- introspection -----------------------------------------------------

    @property
    def n_idle(self) -> int:
        """Blocks on the free lists (released adoptions included)."""
        with self._lock:
            self._file_orphans()
            return self._idle()

    @property
    def n_live(self) -> int:
        """Blocks currently existing (leased + idle)."""
        with self._lock:
            return len(self._live)

    @property
    def nbytes(self) -> int:
        """Capacity of every live block (leased + idle)."""
        with self._lock:
            return sum(b.capacity for b in self._live)


def _unlink_block(block: ShmBlock) -> None:
    _close_quietly(block.shm)
    try:
        block.shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
    telemetry.counter("pool.shm.unlink")


def _close_quietly(shm) -> None:
    # close() refuses while numpy views of the buffer are still alive
    # (BufferError) and SharedMemory.__del__ would then spray "Exception
    # ignored" tracebacks at GC time.  Drop our handles instead: the fd is
    # not needed by the established mapping, and the mapping itself is
    # reclaimed when the last view dies.
    try:
        shm.close()
    except BufferError:
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            shm._fd = -1
        shm._buf = None
        shm._mmap = None


# -- worker-side attachment cache -------------------------------------------
#
# Re-attaching the same named segment for every task would pay shm_open +
# mmap per task; the arena reuses block names across tasks, so one cached
# attachment per name serves the worker's whole lifetime.  Attachment must
# not register with the resource tracker: on Python < 3.13 an attach-side
# register makes the *worker's* tracker unlink the segment at worker exit
# (destroying it under the parent) and double-unregisters trip KeyError
# noise in the tracker process — the parent is the sole owner of unlink.

_ATTACHED: dict[str, object] = {}
_ATTACH_LOCK = threading.Lock()
_MAX_ATTACHED = 32


@contextmanager
def _untracked():
    if _resource_tracker is None:  # pragma: no cover
        yield
        return
    original = _resource_tracker.register
    _resource_tracker.register = lambda *a, **k: None
    try:
        yield
    finally:
        _resource_tracker.register = original


def _attach_segment(name: str):
    with _ATTACH_LOCK:
        shm = _ATTACHED.get(name)
        if shm is not None:
            return shm
    with telemetry.span("engine.shm_attach") as sp:
        sp.set("segment", name)
        with _untracked():
            shm = _shared_memory.SharedMemory(name=name)
    with _ATTACH_LOCK:
        if len(_ATTACHED) >= _MAX_ATTACHED:
            # stale names: the parent unlinked and moved on; drop them all
            # (mappings of live descriptors stay valid until GC'd)
            for old in _ATTACHED.values():
                _close_quietly(old)
            _ATTACHED.clear()
        _ATTACHED[name] = shm
    return shm


def detach_all() -> None:
    """Close every cached attachment (worker shutdown / tests)."""
    with _ATTACH_LOCK:
        for shm in _ATTACHED.values():
            _close_quietly(shm)
        _ATTACHED.clear()
