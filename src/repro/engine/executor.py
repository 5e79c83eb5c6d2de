"""Batch/streaming execution engine over the FZ-GPU pipeline.

:class:`Engine` is the layer that turns the single-shot
:class:`~repro.core.pipeline.FZGPU` codec into a service-shaped component:

* **batching** — ``compress_batch``/``decompress_batch`` run many fields
  through a ``concurrent.futures`` worker pool.  Threads are the default
  (the NumPy kernels release the GIL for the hot loops); a process pool is
  available for workloads where Python-level overhead dominates.
* **buffer pooling** — each inline or thread task borrows a
  :class:`~repro.utils.pool.Scratch` arena from the engine's
  :class:`~repro.utils.pool.BufferPool`, and each process worker owns one,
  so steady-state batch throughput performs no per-call allocation of
  quantization/bitshuffle temporaries.
* **streaming** — ``compress_file``/``decompress`` process one large
  field in fixed-size chunks through the multi-chunk container format
  (:mod:`repro.engine.container`), never materializing the whole stream in
  memory.  Chunk boundaries are aligned to the Lorenzo chunk grid along
  axis 0 and the error bound is resolved *globally* before chunking, so the
  chunked reconstruction is **bit-identical** to the single-shot one.

* **fault tolerance** — every task runs under a bounded-retry loop with
  exponential backoff: transient failures (:class:`TransientTaskError`),
  worker crashes (a broken process pool is rebuilt and its in-flight tasks
  resubmitted) and per-task timeouts are retried up to ``retries`` times;
  a task that keeps failing is *quarantined* with a structured
  :class:`TaskFailure` instead of a stringly exception, and a corrupted
  multi-chunk container can be **salvage-decoded**
  (``decompress(source, salvage=True)``), recovering every
  intact segment and accounting for the rest in a
  :class:`~repro.engine.container.SalvageReport`.  See
  ``docs/RELIABILITY.md`` for the fault model.

Determinism contract (enforced by ``tests/test_engine_differential.py``
and the chaos suite ``tests/test_faults.py``): for every
jobs/pool/chunking configuration — including runs that recover from
injected faults — per-field streams are byte-identical to the single-shot
reference and reconstructions are bit-identical.  Parallelism and
recovery change wall-clock, never bytes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pathlib
import threading
import time
import uuid
from contextlib import contextmanager
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from io import BytesIO
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro import faults, telemetry
from repro.core.pipeline import (
    FZGPU,
    CompressionResult,
    resolve_error_bound_range,
)
from repro.engine import container as fzmc
from repro.errors import (
    ConfigError,
    DecompressionError,
    FormatError,
    ReproError,
    TaskError,
    TaskTimeoutError,
    TransientTaskError,
    WorkerCrashError,
)
from repro.planner import (
    CONSTANT_MAGIC,
    INTERP_MAGIC,
    compress_with_plan,
    constant_info,
    decompress_any,
    interp_preview,
    normalize_plan,
    peek_shape,
    plan_id,
)
from repro.roi import RoiPlan, RoiTile, plan_roi
from repro.utils.chunking import chunk_shape_for
from repro.utils.pool import (
    BufferPool,
    MmapDescriptor,
    Scratch,
    SharedArena,
    ShmArray,
    ShmBlock,
    ShmDescriptor,
    mmap_descriptor_for,
    shm_available,
)
from repro.utils.safeio import check_consistent
from repro.utils.validation import check_out, ensure_positive, non_finite_error

__all__ = [
    "Engine",
    "FileReport",
    "TaskFailure",
    "plan_chunks",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_RETRIES",
    "MAX_BACKOFF_S",
]

#: Default streaming chunk size (uncompressed bytes per container segment).
DEFAULT_CHUNK_BYTES = 4 << 20

#: Default retry budget: how many times a retryable task failure (transient
#: error, worker crash, timeout) is re-enqueued before quarantine.
DEFAULT_RETRIES = 2

#: Hard cap on one exponential-backoff sleep.
MAX_BACKOFF_S = 2.0

#: Largest payload the process pool stages in shared memory per task;
#: bigger items ship pickled.  Writes past /dev/shm capacity die with SIGBUS
#: (tmpfs reserves lazily), which no validation ladder can catch, so huge
#: one-shot fields belong on the chunked API rather than in one segment.
MAX_SHM_STAGE_BYTES = 1 << 31

#: Decode-side plausibility cap: a peeked FZGP/FZIN header claiming more
#: output bytes per stream byte than this is staged via pickle instead, so a
#: crafted header cannot make the *parent* reserve absurd segments — the
#: worker's full validation ladder then rejects it with the usual taxonomy.
#: (FZCN is exempt: its 52-byte stream is fully CRC-validated by the peek,
#: and huge legitimate ratios are that plan's whole point.)
MAX_SHM_DECODE_RATIO = 4096

#: Exception classes the engine re-enqueues; anything else (a malformed
#: stream, a bad parameter, an unexpected bug) is deterministic — retrying
#: cannot help, so those quarantine immediately.
RETRYABLE_ERRORS = (TransientTaskError, WorkerCrashError, TaskTimeoutError)


def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, TransientTaskError):
        return "transient"
    if isinstance(exc, WorkerCrashError):
        return "crash"
    if isinstance(exc, TaskTimeoutError):
        return "timeout"
    return "error"


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of a quarantined engine task.

    Returned in-place of the result when a batch runs with
    ``on_error="return"``; attached to the raised :class:`TaskError` as
    ``.failure`` otherwise.  ``history`` holds one failure kind
    (``"transient"``/``"crash"``/``"timeout"``/``"error"``) per attempt.
    """

    index: int
    attempts: int
    error: str
    error_type: str
    history: tuple[str, ...]


class _Task:
    """One work item's whole lifecycle: its payload, attempts and leases.

    ``src`` is the item itself or, on a process pool with shared memory,
    its staged descriptor; ``out_desc`` addresses the leased output block
    ``out`` the worker writes into, and ``shape`` is a decode's peeked
    output shape.  ``dest`` is the view of the caller's output that an
    inline decode writes into (``None``: a fresh array).  Every
    block stays leased until :meth:`release`, so retries, pool rebuilds
    and resubmissions always find their segments alive.  ``future`` is a pool future, or the stored thunk of an inline
    task, which runs only when the loop waits on it.
    """

    __slots__ = ("index", "src", "out_desc", "inputs", "out", "shape", "dest",
                 "attempts", "history", "future", "failure", "last_exc")

    def __init__(self, index: int, src) -> None:
        self.index = index
        self.src = src
        self.out_desc = None
        self.inputs: tuple[ShmBlock, ...] = ()
        self.out: ShmBlock | None = None
        self.shape: tuple[int, ...] | None = None
        self.dest: np.ndarray | None = None
        self.attempts = 0
        self.history: list[str] = []
        self.future = None
        self.failure: TaskFailure | None = None
        self.last_exc: BaseException | None = None

    def release(self, retire_out: bool = False) -> None:
        """Drop this task's leases (idempotent).

        A worker that timed out may still be writing its output block, so
        ``retire_out`` unlinks that block instead of recycling it.
        """
        for block in self.inputs:
            block.release()
        self.inputs = ()
        if self.out is not None:
            if retire_out:
                self.out.retire()
            else:
                self.out.release()
            self.out = None


def plan_chunks(
    shape: tuple[int, ...],
    align: int,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> list[tuple[int, int]]:
    """Split ``shape`` into ``[start, stop)`` row spans along axis 0.

    Every boundary except the last lands on a multiple of ``align`` (the
    Lorenzo chunk edge along axis 0), which is what makes chunked output
    decode bit-identically to the single-shot path: the per-chunk Lorenzo
    grids of the split exactly tile the grid of the whole.
    """
    if align <= 0:
        raise ConfigError(f"alignment must be positive, got {align}")
    rows_total = shape[0]
    row_bytes = 4 * math.prod(shape[1:])
    rows = max(align, int(chunk_bytes // max(row_bytes * align, 1)) * align)
    return [(s, min(s + rows, rows_total)) for s in range(0, rows_total, rows)]


@dataclass(frozen=True)
class FileReport:
    """Outcome of one streaming file compression/decompression."""

    path: str
    shape: tuple[int, ...]
    n_chunks: int
    eb_abs: float
    original_bytes: int
    compressed_bytes: int
    #: segment plan chosen per chunk ("fast"/"interp"/"constant"); empty for
    #: decode-side reports
    plans: tuple[str, ...] = ()

    @property
    def ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes


# ---------------------------------------------------------------------------
# process-pool task functions (must be importable top-level for pickling);
# the pool initializer sets each worker up once for its lifetime
# ---------------------------------------------------------------------------

#: This worker process's ``(codec, scratch)``, built by :func:`_init_worker`.
_WORKER: tuple[FZGPU, Scratch] | None = None


def _init_worker(backend) -> None:
    """Pool initializer: set this worker process up once for its lifetime.

    Builds the worker's one :class:`FZGPU` from the engine's backend name,
    and its one :class:`Scratch`.  Drops the recorder state a
    fork-started worker inherited from the parent, or every worker would
    ship the parent's pre-fork spans and metrics home for re-merging.

    Then ends this worker once its parent process is gone.  A parent
    killed without :meth:`Engine.close` (SIGKILL, a crash) would otherwise
    leave its workers running, and with them the parent's
    ``resource_tracker``, whose pipe they inherited; the tracker reclaims
    the parent's leased ``/dev/shm`` segments only once every holder of
    that pipe has exited.  The watch waits on the parent's process
    sentinel, a pipe whose write end only the parent (and workers forked
    after this one, which watch it the same way) holds, so it also fires
    for a parent that died before this initializer ran, where a
    ``getppid()`` read here would already see the new parent.
    """
    global _WORKER
    _WORKER = (FZGPU(backend=backend), Scratch())
    telemetry.get_recorder().clear()
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(
        target=watch, name="repro-parent-watch", daemon=True
    ).start()


def _codec_task(codec: FZGPU, src, encode, scratch, out=None):
    """One task body, shared by inline, thread and process workers.

    ``encode=None`` decodes the stream ``src`` (dispatching on its magic)
    into ``out``, or a fresh array when ``out`` is ``None``;
    ``encode=(eb, mode, plan)`` compresses the field ``src``.  A ``"fast"``
    plan calls the codec directly — zero planner overhead and
    byte-identical to the pre-planner engine.  Anything else routes through
    :func:`repro.planner.compress_with_plan` (probe + dispatch); the probe
    is deterministic, so the chosen plan — and therefore the bytes — do not
    depend on which pool or worker ran the task.
    """
    if encode is None:
        return decompress_any(src, codec=codec, scratch=scratch, out=out)
    eb, mode, plan = encode
    if plan == "fast":
        return codec.compress(src, eb, mode, scratch=scratch)
    return compress_with_plan(
        src, eb, mode, plan=plan, codec=codec, scratch=scratch
    )


def _instrumented_task(fn):
    """Run one engine task under an ``engine.task`` span + worker metrics.

    Per-worker utilization is derived from two counters keyed by worker
    name: tasks completed and busy seconds (busy / wall-clock window =
    utilization).  Worker threads carry their pool name; process-pool
    workers are keyed by pid.
    """
    if not telemetry.enabled():
        return fn()
    sp = telemetry.span("engine.task")
    with sp:
        out = fn()
    worker = threading.current_thread().name
    if worker == "MainThread":
        worker = f"pid-{os.getpid()}"
    telemetry.counter("engine.worker_tasks", 1, {"worker": worker})
    telemetry.counter("engine.worker_busy_seconds", sp.duration, {"worker": worker})
    return out


# ---------------------------------------------------------------------------
# process-pool data plane: tasks carry (name, offset, shape, dtype)
# descriptors instead of pickled arrays.  Workers attach read-only input
# views and write their payload into a descriptor-addressed output region;
# only a small marker (plus compression metadata) rides the result pickle.
# An item that cannot be staged — a field over MAX_SHM_STAGE_BYTES, a header
# that fails the peek, a failed lease, a platform without shared memory —
# ships pickled instead, and its bytes are the same either way.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ShmRef:
    """Worker marker: the payload was written into the task's out descriptor."""

    nbytes: int


def _attach_input(src):
    if isinstance(src, (ShmDescriptor, MmapDescriptor)):
        return src.attach()
    return src


def _run_task(codec, scratch, hard, plan, encode, index, attempt, src, out):
    """One task body, shared by inline, thread and process workers.

    Fires ``plan``'s fault hook for ``(index, attempt)``, then runs
    :func:`_codec_task` under :func:`_instrumented_task`.  ``hard=True``
    (a process worker) makes an injected ``worker_crash`` a *real*
    process death, so the parent sees ``BrokenProcessPool``.  ``src`` may
    be an shm/mmap descriptor.  ``out`` is ``None``, an inline decode's
    destination array (decoded in place and returned), or a
    process worker's output descriptor: the result is written into that
    region and only a :class:`_ShmRef` marker rides home — unless it does
    not fit, in which case it ships inline and is re-checked by the parent.
    """

    def body():
        faults.fire_task(plan, index, attempt, hard=hard)
        if not isinstance(out, ShmDescriptor):
            return _codec_task(codec, _attach_input(src), encode, scratch, out)
        res = _codec_task(codec, _attach_input(src), encode, scratch)
        if encode is not None:
            stream = res.stream
            if len(stream) > out.nbytes:
                return res  # expanded past the reservation (rare)
            out.attach()[: len(stream)] = np.frombuffer(stream, dtype=np.uint8)
            return replace(res, stream=_ShmRef(len(stream)))
        if tuple(res.shape) != out.shape or res.dtype.str != out.dtype:
            return res  # the header peek pre-sized something else
        # decoding straight into the block measured no faster here
        # (perfbench batch_process, 2 cores), so the worker keeps the copy
        np.copyto(out.attach(), res)
        return _ShmRef(int(res.nbytes))

    return _instrumented_task(body)


def _proc_task(telem, plan, encode, index, attempt, src, out_desc):
    """Process-pool task: :func:`_run_task` on this worker's codec and scratch.

    Returns ``(result, telemetry_payload_or_None)``: the worker records iff
    the parent was recording, drains its recorder after every task and
    ships the buffer home, where :meth:`Recorder.merge` folds it into the
    parent's trace.  ``plan`` is the fault plan the parent's call started
    with, so whatever plan or environment the worker inherited at fork
    never injects.
    """
    rec = telemetry.get_recorder()
    rec.enabled = bool(telem)
    codec, scratch = _WORKER
    result = _run_task(
        codec, scratch, True, plan, encode, index, attempt, src, out_desc
    )
    return result, (rec.take() if telem else None)


def _stream_capacity(nbytes: int) -> int:
    """Output reservation per compress task.

    Worst-case expansion is a header plus an incompressible payload — well
    under 1.5x of the input plus a fixed floor for tiny fields.  A stream
    that still will not fit ships inline instead of failing.
    """
    return int(nbytes) + (int(nbytes) >> 1) + (1 << 16)


class Engine:
    """Parallel batch/streaming front-end to the FZ-GPU codec.

    Parameters
    ----------
    jobs:
        Worker count.  ``1`` (the default) runs each task inline, on the
        caller's thread when its result is consumed — no executor, no
        thread hand-off, nothing counted in :attr:`queue_depth` — which is
        also the mode the differential suite uses as its own reference.
    pool:
        ``"thread"`` (default; NumPy releases the GIL in the hot kernels)
        or ``"process"`` (for Python-overhead-bound workloads; fields and
        streams cross the process boundary in shared memory where the
        platform has it, pickled otherwise — the bytes are the same).
    backend:
        Optional kernel-backend selection forwarded to every codec: a
        registered name (``"fused"``, ``"reference"``), a
        :class:`~repro.backends.KernelBackend` instance (thread pools
        only; each process worker builds its codec from the *name* once,
        so the backend must be registered in the child too), or
        ``None``/``"auto"``
        for ``fused``.  Output bytes are identical for every choice.
    retries:
        How many times a *retryable* task failure (transient error, worker
        crash, timeout) is re-enqueued before the task is quarantined with
        a :class:`TaskFailure`.  Deterministic errors (malformed streams,
        bad inputs) never retry.
    task_timeout:
        Per-task wall-clock budget in seconds while the engine waits on
        the task at the head of the result queue (``None`` = no timeout;
        only enforced when ``jobs > 1``).  A timed-out process-pool task
        wedges its worker, so the pool is rebuilt and in-flight tasks are
        resubmitted; a timed-out thread is abandoned and the task retried.
    backoff:
        Base delay of the exponential retry backoff, finite and ``>= 0``:
        attempt ``k`` sleeps ``backoff * 2**(k-1)`` seconds (capped at
        :data:`MAX_BACKOFF_S`).
    plan:
        Default request plan (:data:`repro.planner.REQUEST_PLANS`) applied
        by the compression entry points when they are not given an explicit
        one.  ``"fast"`` (the default) keeps the engine byte-identical to
        its pre-planner behavior; ``"auto"``/``"ratio"`` probe each
        field/chunk and may route it to the interpolation or constant
        pipeline (see :mod:`repro.planner`).  Decompression always
        dispatches on the stream magic, independent of this setting.
    """

    def __init__(
        self,
        jobs: int = 1,
        pool: str = "thread",
        backend=None,
        retries: int = DEFAULT_RETRIES,
        task_timeout: float | None = None,
        backoff: float = 0.05,
        plan: str = "fast",
    ) -> None:
        jobs = int(jobs)
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if pool not in ("thread", "process"):
            raise ConfigError(f"pool must be 'thread' or 'process', got {pool!r}")
        retries = int(retries)
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if task_timeout is not None:
            task_timeout = ensure_positive(task_timeout, "task_timeout")
        backoff = float(backoff)
        if not math.isfinite(backoff) or backoff < 0:
            raise ConfigError(f"backoff must be finite and >= 0, got {backoff}")
        self.jobs = jobs
        self.pool_kind = pool
        self._shm: SharedArena | None = None
        self.plan = normalize_plan(plan)
        self.buffer_pool = BufferPool()
        self.retries = retries
        self.task_timeout = task_timeout
        self.backoff = backoff
        if isinstance(backend, str) and backend != "auto":
            from repro.backends import get_backend

            get_backend(backend)  # fail fast on unknown names
        self.backend = backend
        # process workers get the selection by name (instances don't pickle)
        self._backend_sel = getattr(backend, "name", backend)
        self._codec = FZGPU(backend=backend)
        self._executor: Executor | None = None
        self._degraded = False
        self._pending_lock = threading.Lock()
        self._pending_tasks = 0

    # -- lifecycle ---------------------------------------------------------

    def _ensure_executor(self) -> Executor | None:
        if self.jobs == 1:
            return None
        if self._executor is None:
            if self.pool_kind == "thread":
                self._executor = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="repro-engine"
                )
            else:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=_init_worker,
                    initargs=(self._backend_sel,),
                )
        return self._executor

    def _rebuild_executor(self, reason: str) -> Executor:
        """Tear down a broken/wedged pool and stand up a fresh one."""
        if telemetry.enabled():
            telemetry.counter("engine.pool_rebuild", 1, {"reason": reason})
        old = self._executor
        self._executor = None
        self._degraded = True
        if old is not None:
            try:
                old.shutdown(wait=False, cancel_futures=True)
            except Exception:  # a broken pool may refuse even shutdown
                pass
        return self._ensure_executor()

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        After a worker crash or an abandoned hung task the engine is
        *degraded*: close then tears the pool down without waiting, so a
        wedged worker can never block ``close()``/``__exit__`` — the old
        leak where a dead process pool left the engine unusable.  A fresh
        pool is created lazily on next use either way.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=not self._degraded, cancel_futures=True)
            self._executor = None
        self._degraded = False
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- load introspection ------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Tasks currently submitted to the pool, across *all* concurrent
        batch/stream calls on this engine.

        This is the admission-control signal :mod:`repro.serve` sheds on:
        it rises while workers fall behind the submission windows and
        returns to zero when the engine drains.  Mirrored into the
        ``engine.queue_depth`` telemetry gauge whenever recording is on.
        """
        return self._pending_tasks

    @property
    def degraded(self) -> bool:
        """True after a pool rebuild/abandoned worker until :meth:`close`."""
        return self._degraded

    def _track_pending(self, delta: int) -> None:
        """Adjust the global in-flight task count (and its gauge)."""
        if delta == 0:
            return
        with self._pending_lock:
            self._pending_tasks += delta
            depth = self._pending_tasks
        if telemetry.enabled():
            telemetry.gauge("engine.queue_depth", depth)

    # -- shared-memory data plane ------------------------------------------

    def _use_shm(self) -> bool:
        """True when this engine's pool calls stage payloads in shared memory."""
        return self.pool_kind == "process" and self.jobs > 1 and shm_available()

    def _arena(self) -> SharedArena:
        # serve's event loop (body sink) and its producer threads reach
        # this concurrently; _pending_lock guards the lazy init so two
        # arenas are never created (the loser's would leak its segments)
        with self._pending_lock:
            if self._shm is None:
                self._shm = SharedArena()
            return self._shm

    def shared_arena(self) -> SharedArena | None:
        """The engine's shm arena on a process pool with shared memory.

        :mod:`repro.serve` leases request-body segments from this so
        uploads land directly in the block a worker will attach; ``None``
        (thread pools, inline runs, no shared memory) means payloads are
        not staged and callers should not bother.
        """
        return self._arena() if self._use_shm() else None

    def _try_lease(self, nbytes: int) -> ShmBlock | None:
        try:
            return self._arena().lease(nbytes)
        except (OSError, ConfigError):
            # /dev/shm exhausted or arena unusable: fall back to pickling
            # this item rather than failing the call
            return None

    def _stage_field(self, field) -> tuple[object, tuple[ShmBlock, ...]]:
        """Put one input field behind a descriptor.

        Returns ``(payload, input_blocks)``: shared-memory-resident fields
        (:class:`ShmArray`) and read-only memmaps ship as pure addresses;
        anything else is copied into a leased block once — replacing the
        pickle copy, not adding to it.  Oversized or unstageable fields
        return the array itself (pickle fallback for that item).
        """
        if (
            isinstance(field, ShmArray)
            and getattr(field, "shm_block", None) is not None
            and field.flags["C_CONTIGUOUS"]
        ):
            block: ShmBlock = field.shm_block
            try:
                desc = block.descriptor_for(field)
                block.retain()
                return desc, (block,)
            except ConfigError:
                pass  # foreign/closed block: stage a copy below
        desc = mmap_descriptor_for(field)
        if desc is not None:
            return desc, ()
        arr = np.ascontiguousarray(field)
        if arr.nbytes > MAX_SHM_STAGE_BYTES:
            return arr, ()
        block = self._try_lease(arr.nbytes)
        if block is None:
            return arr, ()
        with telemetry.span("engine.shm_stage") as sp:
            sp.set("nbytes", int(arr.nbytes))
            np.copyto(block.asarray(arr.shape, arr.dtype), arr)
        return block.descriptor(arr.shape, arr.dtype), (block,)

    def _peek_decode_shape(self, blob) -> tuple[int, ...] | None:
        """Pre-size a decode output from its stream header, conservatively.

        ``None`` (→ this stream ships pickled) when the header does
        not parse, the declared output exceeds the staging cap, or it is
        implausibly large for the stream length (crafted-header guard;
        ``FZCN`` is exempt because the peek CRC-validates its whole 52-byte
        stream and extreme ratios are that plan's point).
        """
        try:
            shape = peek_shape(blob)
        except ReproError:
            return None
        out_bytes = 4 * int(math.prod(shape))
        if out_bytes > MAX_SHM_STAGE_BYTES:
            return None
        if bytes(blob[:4]) != CONSTANT_MAGIC and out_bytes > (
            MAX_SHM_DECODE_RATIO * max(len(blob), 1)
        ):
            return None
        return shape

    # -- task plumbing -----------------------------------------------------

    def _note_failure(self, task: _Task, exc: BaseException, kind: str) -> bool:
        """Record one failed attempt; True means the task will be retried.

        Retryable failures consume the ``retries`` budget; everything else
        — and any retryable failure past the budget — quarantines the task
        with a structured :class:`TaskFailure`.
        """
        task.attempts += 1
        task.history.append(kind)
        task.last_exc = exc
        if isinstance(exc, RETRYABLE_ERRORS) and task.attempts <= self.retries:
            if telemetry.enabled():
                telemetry.counter("engine.retry", 1, {"reason": kind})
            return True
        task.failure = TaskFailure(
            index=task.index,
            attempts=task.attempts,
            error=repr(exc),
            error_type=type(exc).__name__,
            history=tuple(task.history),
        )
        if telemetry.enabled():
            telemetry.counter("engine.task_quarantined", 1, {"reason": kind})
        return False

    def _backoff_sleep(self, attempts: int, reason: str, index: int) -> None:
        """Exponential backoff before a retry, traced as ``engine.retry``."""
        delay = min(self.backoff * (2 ** (attempts - 1)), MAX_BACKOFF_S)
        with telemetry.span("engine.retry") as sp:
            sp.set("task", index)
            sp.set("reason", reason)
            sp.set("delay_s", delay)
            if delay > 0:
                time.sleep(delay)

    def _emit_failure(self, task: _Task, on_error: str):
        """Surface a quarantined task per the caller's error policy.

        ``"return"`` yields the :class:`TaskFailure` in the result slot.
        ``"raise"`` re-raises the original exception when the very first
        attempt failed deterministically (preserving the documented
        `ReproError` taxonomy for malformed streams and bad inputs) and
        raises :class:`TaskError` carrying the failure record otherwise.
        """
        if on_error == "return":
            return task.failure
        exc = task.last_exc
        if (
            task.attempts == 1
            and isinstance(exc, ReproError)
            and not isinstance(exc, RETRYABLE_ERRORS)
        ):
            raise exc
        raise TaskError(
            f"task {task.index} quarantined after {task.attempts} attempt(s) "
            f"[{'/'.join(task.history)}]: {exc!r}",
            failure=task.failure,
        ) from exc

    def _stage(self, index: int, item, encode) -> _Task:
        """Stage one item for a process worker behind shared-memory descriptors.

        Shm-resident fields and read-only memmaps (and their row spans)
        ship as pure addresses; plain in-memory fields and streams are
        copied into a leased block once, and the worker writes its result
        into a leased output block.  An item that cannot be staged (see
        :data:`MAX_SHM_STAGE_BYTES`, :meth:`_peek_decode_shape`, a failed
        lease) ships pickled instead.
        """
        task = _Task(index, item)
        if encode is not None:
            task.src, task.inputs = self._stage_field(item)
            if isinstance(task.src, (ShmDescriptor, MmapDescriptor)):
                task.out = self._try_lease(_stream_capacity(task.src.nbytes))
        else:
            task.shape = self._peek_decode_shape(item)
            inp = None if task.shape is None else self._try_lease(len(item))
            if inp is not None:
                inp.view(len(item))[:] = item
                task.src, task.inputs = inp.descriptor((len(item),), np.uint8), (inp,)
                task.out = self._try_lease(4 * int(math.prod(task.shape)))
        if task.out is not None:
            shape = (task.out.capacity,) if encode else task.shape
            dtype = np.uint8 if encode else np.float32
            task.out_desc = task.out.descriptor(shape, dtype, writable=True)
        return task

    def _take_result(self, task: _Task, res):
        """Unwrap a worker's :class:`_ShmRef` result, then release ``task``.

        A decoded field that fills at least half its output block is that
        block: the :class:`ShmArray` takes the lease over and holds it until
        the array and its views are gone.  A smaller field (it would pin up
        to 1 MiB for a few KB) and a stream are copied out before the block
        goes back to the free list.
        """
        if isinstance(res, _ShmRef):
            if 2 * res.nbytes >= task.out.capacity:
                out, task.out = task.out, None
                res = out.adopt(task.shape, np.float32)
            else:
                res = np.array(task.out.asarray(task.shape, np.float32),
                               subok=False)
        elif isinstance(getattr(res, "stream", None), _ShmRef):
            res = replace(res, stream=bytes(task.out.view(res.stream.nbytes)))
        task.release()
        return res

    def _local_task(self, plan, encode, index: int, attempt: int, src, dest):
        """Inline/thread task: :func:`_run_task` on a borrowed scratch."""
        scratch = self.buffer_pool.acquire()
        try:
            return _run_task(
                self._codec, scratch, False, plan, encode, index, attempt, src,
                dest,
            ), None
        finally:
            self.buffer_pool.release(scratch)

    def _run_ordered(
        self, items: Iterable, encode: tuple | None = None,
        on_error: str = "raise", dests: Sequence | None = None,
    ) -> Iterator:
        """The one task loop: run ``items``, yielding plain results in order.

        ``encode=None`` decodes streams into fresh arrays;
        ``encode=(eb, mode, plan)`` compresses fields into
        :class:`CompressionResult` s whose streams are ``bytes``.  Inline
        (``jobs=1``), thread and process workers differ only in how a task
        is submitted.  An inline task is a stored thunk that runs on the
        caller's thread when its result is consumed, one at a time, and is
        not counted in :attr:`queue_depth`; a pool keeps at most
        ``4 * jobs`` tasks in flight, so streaming callers keep bounded
        memory.  A process pool stages each item with :meth:`_stage`.
        The fault plan is resolved once, when the call starts, and every
        task of the call runs it, whatever is installed meanwhile.
        Every task runs under the retry loop described in the class
        docstring; quarantined tasks surface per ``on_error``: ``"raise"``,
        or ``"return"``, which yields the :class:`TaskFailure` in the
        task's result slot so surviving results never reorder.

        Where ``dests[i]`` is an array, an inline task decodes item ``i``
        straight into it and yields it.  Pool workers ignore ``dests`` and
        decode privately, so no write into the caller's rows outlives the
        call, even from a timed-out thread that was abandoned mid-write.
        """
        if on_error not in ("raise", "return"):
            raise ConfigError(f"on_error must be 'raise' or 'return', got {on_error!r}")
        executor = self._ensure_executor()
        pooled = executor is not None
        window = 4 * self.jobs if pooled else 1
        depth = 1 if pooled else 0  # inline tasks are not pool work
        shm = self._use_shm()
        if pooled:
            dests = None
        recorder = telemetry.get_recorder()
        plan = faults.active_plan()
        if pooled and self.pool_kind == "process":
            telem = telemetry.enabled()

            def submit(task: _Task) -> None:
                task.future = executor.submit(
                    _proc_task, telem, plan, encode, task.index,
                    task.attempts, task.src, task.out_desc,
                )
        else:
            def submit(task: _Task) -> None:
                args = (self._local_task, plan, encode, task.index,
                        task.attempts, task.src, task.dest)
                task.future = executor.submit(*args) if pooled else partial(*args)

        def safe_submit(task: _Task) -> None:
            # a pool can break between the head-wait and a submission;
            # rebuild once — a freshly built pool accepts work
            nonlocal executor
            try:
                submit(task)
            except BrokenExecutor:
                executor = self._rebuild_executor("crash")
                submit(task)

        pending: deque[_Task] = deque()
        source = enumerate(items)
        exhausted = False

        def refill() -> None:
            nonlocal exhausted
            while not exhausted and len(pending) < window:
                nxt = next(source, None)
                if nxt is None:
                    exhausted = True
                    return
                task = self._stage(*nxt, encode) if shm else _Task(*nxt)
                if dests is not None:
                    task.dest = dests[task.index]
                pending.append(task)
                self._track_pending(depth)
                safe_submit(task)

        try:
            refill()
            while pending:
                task = pending[0]
                if task.failure is not None:
                    pending.popleft()
                    self._track_pending(-depth)
                    task.release(retire_out="timeout" in task.history)
                    yield self._emit_failure(task, on_error)
                    refill()
                    continue
                try:
                    if pooled:
                        res = task.future.result(timeout=self.task_timeout)
                    else:
                        res = task.future()
                except TimeoutError:
                    exc = TaskTimeoutError(
                        f"task {task.index} exceeded task_timeout="
                        f"{self.task_timeout}s (attempt {task.attempts + 1})"
                    )
                    retry = self._note_failure(task, exc, "timeout")
                    if retry:
                        self._backoff_sleep(task.attempts, "timeout", task.index)
                    if self.pool_kind == "process":
                        # the hung task wedges its worker process: rebuild the
                        # pool and resubmit every in-flight task (only the
                        # timed-out head consumed a retry)
                        executor = self._rebuild_executor("timeout")
                        for t in pending:
                            if t.failure is None and (t is not task or retry):
                                submit(t)
                    else:
                        # a hung thread cannot be killed: abandon its future
                        # (it releases its scratch when it eventually wakes)
                        # and run the retry on a fresh worker thread
                        self._degraded = True
                        if retry:
                            safe_submit(task)
                except BrokenExecutor as exc:
                    # a worker died; the whole pool is broken and every pending
                    # future is lost.  Rebuild, charge one crash attempt to each
                    # in-flight task (the crasher is indistinguishable), then
                    # resubmit the survivors.
                    executor = self._rebuild_executor("crash")
                    crash = WorkerCrashError(f"worker pool broke mid-batch: {exc!r}")
                    crash.__cause__ = exc
                    deepest = 0
                    for t in pending:
                        if t.failure is None and self._note_failure(t, crash, "crash"):
                            deepest = max(deepest, t.attempts)
                    if deepest:
                        self._backoff_sleep(deepest, "crash", task.index)
                    for t in pending:
                        if t.failure is None:
                            submit(t)
                except Exception as exc:
                    kind = _failure_kind(exc)
                    if self._note_failure(task, exc, kind):
                        self._backoff_sleep(task.attempts, kind, task.index)
                        safe_submit(task)
                else:
                    # (result, telemetry payload) from every worker kind
                    result, payload = res
                    if payload is not None:
                        recorder.merge(payload)
                    result = self._take_result(task, result)
                    pending.popleft()
                    self._track_pending(-depth)
                    yield result
                    refill()
        finally:
            # a consumer that abandons the generator mid-stream (or a fatal
            # error) must not leave unfinished tasks counted as in-flight,
            # nor their blocks leased: a worker may still be writing, so
            # every pending output block is retired, not recycled
            self._track_pending(-depth * len(pending))
            for t in pending:
                t.release(retire_out=True)

    # -- batch API ---------------------------------------------------------

    def compress_batch(
        self,
        fields: Sequence[np.ndarray],
        eb: float,
        mode: str = "rel",
        on_error: str = "raise",
        plan: str | None = None,
    ) -> list[CompressionResult]:
        """Compress many independent fields; results keep input order.

        With the default ``"fast"`` plan each field is compressed exactly
        as ``FZGPU().compress(field, eb, mode)`` would — per-field streams
        are byte-identical to single-shot output regardless of
        ``jobs``/``pool``, including runs that recovered from
        worker crashes or transient failures.  ``plan`` overrides the
        engine default (:data:`repro.planner.REQUEST_PLANS`); planner
        routing is probe-deterministic, so streams stay independent of the
        pool configuration for every plan.  With ``on_error="return"`` a
        quarantined field yields its :class:`TaskFailure` in the
        corresponding result slot instead of raising, so surviving results
        never shift position.
        """
        fields = list(fields)
        plan = self.plan if plan is None else normalize_plan(plan)
        with telemetry.span("engine.compress_batch") as sp:
            sp.set("n_fields", len(fields))
            sp.set("plan", plan)
            return list(self._run_ordered(fields, (eb, mode, plan), on_error))

    def decompress_batch(
        self, streams: Sequence[bytes], on_error: str = "raise"
    ) -> list[np.ndarray]:
        """Decompress many streams; results keep input order.

        Streams from any plan are accepted — decoding dispatches on each
        stream's magic (``FZGP``/``FZIN``/``FZCN``), so mixed batches work.
        ``on_error`` behaves as in :meth:`compress_batch`.  On a process
        pool an array that fills at least half of the shared-memory block
        it was decoded into is a :class:`ShmArray` view of that block;
        smaller ones are copied out (``docs/API.md``).
        """
        streams = list(streams)
        with telemetry.span("engine.decompress_batch") as sp:
            sp.set("n_streams", len(streams))
            return list(self._run_ordered(streams, on_error=on_error))

    def decompress_stream(
        self, streams: Iterable[bytes], on_error: str = "raise"
    ) -> Iterator[np.ndarray]:
        """Decompress streams lazily, yielding arrays in submission order.

        Unlike :meth:`decompress_batch` this is a generator: each array is
        yielded as soon as it (and everything before it) completes, and
        ``streams`` itself is consumed incrementally — at most one retry
        window of payloads is in flight at a time.  It decodes bare streams;
        container decodes (including every :mod:`repro.serve` decode) walk
        the container index through :meth:`iter_roi_tiles` instead.
        """
        with telemetry.span("engine.decompress_stream") as sp:
            n = 0
            for result in self._run_ordered(streams, on_error=on_error):
                n += 1
                yield result
            sp.set("n_streams", n)

    # -- chunked / streaming API -------------------------------------------

    def compress_chunked_to(
        self,
        fileobj: BinaryIO,
        data: np.ndarray,
        eb: float,
        mode: str = "rel",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        name: str = "<memory>",
        plan: str | None = None,
    ) -> FileReport:
        """Compress ``data`` into a multi-chunk container written to ``fileobj``.

        ``data`` may be any array-like including a ``np.memmap``; only one
        chunk (plus the in-flight window) is materialized at a time.  In
        ``rel`` mode the bound is resolved against the *global* min/max
        first — chunk headers then carry the same absolute bound the
        single-shot path would, which is one half of the bit-identical
        reconstruction guarantee (the other is Lorenzo-aligned splitting).

        ``plan`` overrides the engine's default request plan.  Non-``fast``
        plans probe and route **each chunk independently**, record the
        chosen plan in the container's v3 index entry, and report the
        per-chunk decisions in :attr:`FileReport.plans` — decompression
        dispatches per segment with no re-probing.
        """
        if not 1 <= data.ndim <= 3 or data.size == 0:
            raise ConfigError(
                f"streaming compression needs a non-empty 1-3D field, got "
                f"shape {data.shape}"
            )
        eb = ensure_positive(eb, "eb")
        plan = self.plan if plan is None else normalize_plan(plan)
        spans = plan_chunks(data.shape, chunk_shape_for(data.ndim)[0], chunk_bytes)
        with telemetry.span("engine.compress_file") as root:
            root.set("n_chunks", len(spans))
            root.set("plan", plan)
            if mode == "rel":
                with telemetry.span("engine.range_scan"):
                    lo = math.inf
                    hi = -math.inf
                    for a, b in spans:
                        part = np.asarray(data[a:b])
                        p_lo, p_hi = float(part.min()), float(part.max())
                        if not (math.isfinite(p_lo) and math.isfinite(p_hi)):
                            # min()/max() would drop a NaN: count them all
                            raise non_finite_error(sum(
                                int(np.count_nonzero(~np.isfinite(data[a:b])))
                                for a, b in spans
                            ))
                        lo = min(lo, p_lo)
                        hi = max(hi, p_hi)
                eb_abs = resolve_error_bound_range(lo, hi, eb, "rel")
            else:
                # validates the mode string too ("abs" passes eb straight through)
                eb_abs = resolve_error_bound_range(0.0, 0.0, eb, mode)
            writer = fzmc.ContainerWriter(fileobj, data.shape, eb_abs)
            compressed = 0
            chunk_plans: list[str] = []
            # chunk spans of a memmap/ShmArray field stage as addresses
            results = self._run_ordered(
                (data[a:b] for a, b in spans), (eb_abs, "abs", plan)
            )
            for (a, b), result in zip(spans, results):
                writer.add_segment(result.stream, b - a, plan=plan_id(result.plan))
                chunk_plans.append(result.plan)
                compressed += len(result.stream)
            index = writer.finish()
            root.set("bytes_in", int(data.size) * 4)
            root.set("bytes_out", compressed)
        return FileReport(
            path=name,
            shape=tuple(data.shape),
            n_chunks=len(index.segments),
            eb_abs=eb_abs,
            original_bytes=int(data.size) * 4,
            compressed_bytes=compressed,
            plans=tuple(chunk_plans),
        )

    def compress_chunked(
        self,
        data: np.ndarray,
        eb: float,
        mode: str = "rel",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        plan: str | None = None,
    ) -> bytes:
        """In-memory variant of :meth:`compress_chunked_to` (returns the blob)."""
        buf = BytesIO()
        self.compress_chunked_to(buf, data, eb, mode, chunk_bytes, plan=plan)
        return buf.getvalue()

    def decompress(self, source, *, slab=None, salvage: bool = False, out=None):
        """Decode a multi-chunk container: the whole field, or one slab of it.

        ``source`` is the container's bytes, a seekable binary file object,
        or a path (``str``/``os.PathLike``), which is opened and closed
        inside the call.  Concatenated containers must agree on their
        trailing dimensions and are stitched along axis 0 — the natural
        "append more chunks by appending a container" streaming idiom.

        ``slab=None`` decodes the whole field.  Otherwise ``slab`` is a
        :class:`~repro.roi.Slab`, a ``"start:stop,..."`` spec string, a
        sequence of slices/``(start, stop)`` pairs
        (:func:`~repro.roi.resolve_slab` semantics; missing trailing axes
        select whole dimensions), or a :class:`~repro.roi.RoiPlan` that
        :func:`~repro.roi.plan_roi` made from ``source``'s indexes.  Only
        the segments whose axis-0 row span intersects the slab are read,
        CRC-checked and decoded (``roi.chunks_skipped`` counts the rest),
        and the result is **byte-identical** to the full decode's
        ``[slab]``.

        With ``salvage=True`` a damaged container is decoded best-effort
        instead of raising, and the call returns ``(array, SalvageReport)``
        whose report accounts for every byte
        (``recovered_bytes + lost_bytes == total_bytes``).  Every CRC-valid
        segment is recovered bit-identically and the rows of every lost
        segment are NaN.  A slab salvage scopes the report to the slab:
        damage outside it is invisible, and the index trailer must parse.
        A full salvage whose index trailer does not parse (truncation,
        trailer damage) falls back to a forward scan for CRC-valid ``FZSG``
        frames (:func:`~repro.engine.container.resync_segments`), stitched
        along axis 0 in file order.

        ``out=None`` returns a fresh array.  An array ``out`` (writable,
        C-contiguous, float32, of the decoded shape, else
        :class:`~repro.errors.ConfigError`) receives each segment straight
        into its rows and is returned; after a strict failure its contents
        are unspecified.  A path ``out`` is a file sink (:func:`_sink`),
        created once every payload was read and CRC-checked, so it may name
        its own source; the call returns the ``np.memmap`` it wrote, and a
        failed decode removes the file.
        """
        with _opened(source) as fileobj, _sink(out) as make:
            if slab is not None:
                with telemetry.span("engine.decompress_roi") as root:
                    plan = self._roi_read_plan(fileobj, slab)
                    root.set("n_segments", plan.n_segments)
                    root.set("n_intersecting", len(plan.tasks))
                    if salvage:
                        out, report = self._roi_salvage(fileobj, plan, make)
                    else:
                        out = self._roi_strict(fileobj, plan, make)
                    root.set("bytes_out", int(out.nbytes))
            elif not salvage:
                with telemetry.span("engine.decompress_file") as root:
                    with telemetry.span("engine.read_index"):
                        plan = plan_roi(fzmc.read_containers(fileobj), ())
                    root.set("n_chunks", plan.n_segments)
                    out, _ = self._scatter(fileobj, plan, make)
                    root.set("bytes_in", sum(t.entry.seg_bytes for t in plan.tasks))
                    root.set("bytes_out", int(out.nbytes))
            else:
                with telemetry.span("engine.salvage") as root:
                    try:
                        indexes = fzmc.read_containers(fileobj)
                    except FormatError as exc:
                        # only an unreadable index re-syncs; a plan error
                        # (an axis-1 container) stays typed
                        root.set("index_error", str(exc))
                        fileobj.seek(0)
                        field, report = self._salvage_resync(
                            fzmc.resync_segments(fileobj.read())
                        )
                        out = make(field.shape)
                        out[...] = field
                    else:
                        out, report = self._scatter(
                            fileobj, plan_roi(indexes, ()), make, salvage=True
                        )
                    root.set("resynced", report.resynced)
                    root.set("recovered_bytes", report.recovered_bytes)
                    root.set("lost_bytes", report.lost_bytes)
                if telemetry.enabled():
                    telemetry.counter("engine.salvage")
                    for seg in report.segments:
                        labels = {"status": seg.status}
                        telemetry.counter("engine.salvage_segments", 1, labels)
                        telemetry.counter("engine.salvage_bytes", seg.nbytes, labels)
        return (out, report) if salvage else out

    # The six names below only delegate to :meth:`decompress`; perfbench's
    # tracer wraps each of them by name.  ``output_path`` is the file sink.

    def decompress_chunked(self, blob: bytes, salvage: bool = False):
        return self.decompress(blob, salvage=salvage)

    def decompress_chunked_from(self, fileobj: BinaryIO, salvage: bool = False):
        return self.decompress(fileobj, salvage=salvage)

    def decompress_roi(self, blob: bytes, slab, salvage: bool = False):
        return self.decompress(blob, slab=slab, salvage=salvage)

    def decompress_roi_from(self, fileobj: BinaryIO, slab, salvage: bool = False):
        return self.decompress(fileobj, slab=slab, salvage=salvage)

    def decompress_file(self, input_path, output_path=None, salvage: bool = False):
        return self.decompress(input_path, salvage=salvage, out=output_path)

    def decompress_roi_file(self, input_path, slab, output_path=None, salvage=False):
        return self.decompress(input_path, slab=slab, salvage=salvage,
                               out=output_path)

    # -- region-of-interest / progressive decode ---------------------------

    def _roi_read_plan(self, fileobj: BinaryIO, slab) -> RoiPlan:
        """Read the container indexes and intersect ``slab`` with them.

        A ``slab`` that is already a :class:`~repro.roi.RoiPlan` is used as
        it is, and counted as a request all the same.
        """
        if isinstance(slab, RoiPlan):
            plan = slab
        else:
            with telemetry.span("engine.read_index"):
                indexes = fzmc.read_containers(fileobj)
            with telemetry.span("roi.plan") as sp:
                plan = plan_roi(indexes, slab)
                sp.set("n_segments", plan.n_segments)
                sp.set("n_intersecting", len(plan.tasks))
        if telemetry.enabled():
            telemetry.counter("roi.requests")
            telemetry.counter("roi.chunks_skipped", plan.n_skipped)
        return plan

    def _read_payloads(
        self, fileobj: BinaryIO, plan: RoiPlan, salvage: bool = False
    ) -> list[bytes | None]:
        """Read and CRC-check every task's payload of ``plan`` in file order.

        A damaged segment raises here in strict mode, before anything is
        decoded or written; ``salvage=True`` records it as ``None``.
        """
        payloads: list[bytes | None] = []
        for task in plan.tasks:
            try:
                payloads.append(fzmc.read_segment_payload(
                    fileobj, task.container_start, task.entry, task.seg_ordinal
                ))
            except FormatError:
                if not salvage:
                    raise
                payloads.append(None)
        return payloads

    def _walk(
        self, plan: RoiPlan, payloads: list[bytes | None],
        salvage: bool = False, previews: bool = False,
        out: np.ndarray | None = None,
    ) -> Iterator[tuple]:
        """The one segment walk: fill, decode and slice ``plan``'s tasks.

        ``payloads`` come from :meth:`_read_payloads`.  Yields one
        ``(task, level, final, tile)`` per task, ``tile`` being a view of
        the task's rows.  A constant (``FZCN``) segment is synthesized from
        its fully CRC-validated 52-byte stream, with no pool round-trip
        (level 0, final).  With ``previews=True`` an ``FZIN`` segment first
        yields its anchor-grid preview (level 0, not final).  Everything
        else decodes through :meth:`_run_ordered` (level 1, final), so at
        most one window of chunks is alive at a time.  Given ``out`` (the
        plan's output array), a task that covers its whole chunk is decoded
        inline straight into its rows of ``out``, and its tile is that
        view.  Strict mode raises the first failure with
        the usual taxonomy; ``salvage=True`` yields the failure as that
        task's ``tile`` instead.
        """

        def rows(task, chunk: np.ndarray, what: str) -> np.ndarray:
            check_consistent(
                tuple(chunk.shape) == task.chunk_shape,
                f"{what} shape {tuple(chunk.shape)} does not match container "
                f"index {task.chunk_shape}",
            )
            return chunk[task.local]

        def dest(task, payload: bytes) -> np.ndarray | None:
            # a stream whose header disagrees with the index decodes on its
            # own, so the shape check below still names the mismatch
            if out is None or task.tile_shape != task.chunk_shape:
                return None
            try:
                if peek_shape(payload) != task.chunk_shape:
                    return None
            except ReproError:
                return None
            return out[task.out_row0 : task.out_row0 + task.rows]

        coded = [
            (t, p) for t, p in zip(plan.tasks, payloads)
            if p is not None and p[:4] != CONSTANT_MAGIC
        ]
        decoded = self._run_ordered(
            (p for _, p in coded),
            on_error="return" if salvage else "raise",
            dests=None if out is None else [dest(t, p) for t, p in coded],
        )
        try:
            for task, payload in zip(plan.tasks, payloads):
                try:
                    if payload is None:
                        raise FormatError("segment corrupt or missing")
                    if payload[:4] == CONSTANT_MAGIC:
                        info = constant_info(payload)
                        fill = np.broadcast_to(
                            np.float32(info["fill"]), tuple(info["shape"])
                        )
                        yield task, 0, True, rows(task, fill, "constant segment")
                        continue
                    if previews and payload[:4] == INTERP_MAGIC:
                        preview = interp_preview(payload)
                        yield task, 0, False, rows(task, preview, "FZIN preview")
                    chunk = next(decoded)
                    if isinstance(chunk, TaskFailure):
                        raise DecompressionError(
                            f"payload decode failed: {chunk.error_type}"
                        )
                    yield task, 1, True, rows(task, chunk, "decoded")
                except ReproError as exc:
                    if not salvage:
                        raise
                    yield task, 1, True, exc
        finally:
            decoded.close()

    def _scatter(
        self, fileobj: BinaryIO, plan: RoiPlan, make, salvage: bool = False,
        roi: bool = False,
    ) -> tuple[np.ndarray, fzmc.SalvageReport]:
        """The decode core: write every :meth:`_walk` tile into one array.

        The array is ``make(plan.out_shape)`` (see :func:`_sink`), made
        only after every payload was read and CRC-checked.  Tiles decoded
        in place are already there.  Strict mode raises the first failure;
        ``salvage=True`` NaN-fills that task's rows (over anything a failed
        attempt wrote) and records why in the
        :class:`~repro.engine.container.SalvageReport` (always complete in
        strict mode).  ``roi=True`` emits the ``roi.*`` counters.
        """
        payloads = self._read_payloads(fileobj, plan, salvage)
        out = make(plan.out_shape)
        outcomes: list[fzmc.SegmentOutcome] = []
        recovered = filled = 0
        for task, level, _, tile in self._walk(plan, payloads, salvage, out=out):
            span = slice(task.out_row0, task.out_row0 + task.rows)
            if isinstance(tile, ReproError):
                out[span] = np.nan
                outcomes.append(fzmc.SegmentOutcome(
                    task.ordinal, task.rows, task.tile_bytes, "lost", str(tile)
                ))
                continue
            if not np.may_share_memory(tile, out):
                out[span] = tile
            filled += level == 0
            recovered += task.tile_bytes
            outcomes.append(fzmc.SegmentOutcome(
                task.ordinal, task.rows, task.tile_bytes, "recovered"
            ))
        total = int(out.nbytes)
        report = fzmc.SalvageReport(
            shape=plan.out_shape,
            resynced=False,
            total_bytes=total,
            recovered_bytes=recovered,
            lost_bytes=total - recovered,
            segments=tuple(outcomes),
        )
        if roi and telemetry.enabled():
            telemetry.counter("roi.chunks_decoded", report.recovered_segments - filled)
            telemetry.counter("roi.chunks_filled", filled)
            telemetry.counter("roi.bytes_out", total)
        return out, report

    def _roi_strict(self, fileobj: BinaryIO, plan: RoiPlan, make) -> np.ndarray:
        """Strict ROI decode: any damage inside the slab raises."""
        return self._scatter(fileobj, plan, make, roi=True)[0]

    def _roi_salvage(
        self, fileobj: BinaryIO, plan: RoiPlan, make
    ) -> tuple[np.ndarray, fzmc.SalvageReport]:
        """Best-effort ROI decode: NaN-fill damage inside the slab only."""
        return self._scatter(fileobj, plan, make, salvage=True, roi=True)

    def iter_roi_tiles(self, source, slab) -> Iterator[RoiTile]:
        """Progressive ROI decode: coarse-to-fine :class:`~repro.roi.RoiTile` s.

        ``source`` and ``slab`` are as in :meth:`decompress` (a
        :class:`~repro.roi.RoiPlan` is not planned again).  Tiles arrive in
        file order, one output-row band per intersecting segment: constant
        segments yield a single exact tile synthesized from their 52-byte
        header, interpolation segments yield a level-0 anchor-grid preview
        (``final=False``) *before* their exact reconstruction, and fast
        segments yield one exact tile.  Concatenating the ``final`` tiles
        along axis 0 reproduces :meth:`decompress` of the slab
        byte-identically; exact decodes run through the worker pool and
        overlap with preview delivery.

        Planning and segment reads happen eagerly — malformed containers
        and bad slabs raise here, not mid-iteration — so a path source is
        closed before the first tile is taken.
        """
        with _opened(source) as fileobj:
            plan = self._roi_read_plan(fileobj, slab)
            payloads = self._read_payloads(fileobj, plan)
        return self._roi_tile_gen(self._walk(plan, payloads, previews=True))

    def _roi_tile_gen(self, items: Iterator[tuple]) -> Iterator[RoiTile]:
        """Wrap :meth:`_walk` items as contiguous :class:`RoiTile` s."""
        telem = telemetry.enabled()
        filled = n_decoded = out_bytes = 0
        try:
            for task, level, final, data in items:
                if telem:
                    telemetry.counter(
                        "roi.tiles", 1,
                        {"level": str(level), "final": str(final).lower()},
                    )
                filled += level == 0 and final
                n_decoded += level == 1
                data = np.require(data, requirements="CWE")
                out_bytes += data.nbytes if final else 0
                yield RoiTile(level, final, task.out_row0, data)
        finally:
            items.close()
            if telem:
                telemetry.counter("roi.chunks_decoded", n_decoded)
                telemetry.counter("roi.chunks_filled", filled)
                telemetry.counter("roi.bytes_out", out_bytes)

    # -- salvage decode ----------------------------------------------------

    def _salvage_resync(
        self, hits: list[fzmc.SegmentHit]
    ) -> tuple[np.ndarray, fzmc.SalvageReport]:
        """Salvage without an index: stitch re-synced segments in file order.

        Extents come from the decoded payloads themselves (each core stream
        carries its own shape), so the report's ``total_bytes`` covers only
        what was *found* — bytes inside wholly destroyed regions are
        unknowable without the index.
        """
        hits = sorted(hits, key=lambda h: h.offset)
        results = self._run_ordered([h.payload for h in hits], on_error="return")
        outcomes: list[fzmc.SegmentOutcome] = []
        parts: list[np.ndarray] = []
        tail: tuple[int, ...] | None = None
        recovered = 0
        lost = 0
        for hit, res in zip(hits, results):
            if isinstance(res, TaskFailure):
                outcomes.append(
                    fzmc.SegmentOutcome(
                        hit.ordinal, 0, 0, "lost",
                        f"payload decode failed: {res.error_type}",
                    )
                )
                continue
            arr = np.atleast_1d(np.asarray(res, dtype=np.float32))
            nbytes = 4 * int(arr.size)
            seg_tail = tuple(arr.shape[1:])
            if tail is None:
                tail = seg_tail
            if seg_tail != tail:
                lost += nbytes
                outcomes.append(
                    fzmc.SegmentOutcome(
                        hit.ordinal, int(arr.shape[0]), nbytes, "lost",
                        f"trailing dims {seg_tail} disagree with {tail}",
                    )
                )
                continue
            recovered += nbytes
            parts.append(arr)
            outcomes.append(
                fzmc.SegmentOutcome(
                    hit.ordinal, int(arr.shape[0]), nbytes, "recovered"
                )
            )
        out = (
            np.concatenate(parts, axis=0)
            if parts
            else np.empty((0,), dtype=np.float32)
        )
        report = fzmc.SalvageReport(
            shape=None,
            resynced=True,
            total_bytes=recovered + lost,
            recovered_bytes=recovered,
            lost_bytes=lost,
            segments=tuple(outcomes),
        )
        return out, report

    # -- file API ----------------------------------------------------------

    def compress_file(
        self,
        input_path: str | pathlib.Path,
        output_path: str | pathlib.Path,
        eb: float,
        mode: str = "rel",
        shape: tuple[int, ...] | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        plan: str | None = None,
    ) -> FileReport:
        """Stream-compress a field file into a multi-chunk ``.fz`` container.

        The input is memory-mapped (``.npy`` via ``np.load(mmap_mode='r')``,
        raw ``.f32``/``.dat`` via ``np.memmap``), so peak memory is one
        chunk per in-flight worker regardless of field size.  ``plan``
        behaves as in :meth:`compress_chunked_to`.  A compression that
        fails part-way removes the output file before the error propagates,
        so no truncated container (one without index or footer) is left.
        """
        data = _open_field_mmap(input_path, shape)
        with open(output_path, "wb") as f:
            try:
                return self.compress_chunked_to(
                    f, data, eb, mode, chunk_bytes, name=str(output_path),
                    plan=plan,
                )
            except BaseException:
                f.close()
                # a device or pipe named as the output is not ours to remove
                if pathlib.Path(output_path).is_file():
                    os.unlink(output_path)
                raise


@contextmanager
def _opened(source) -> Iterator[BinaryIO]:
    """``source`` as a seekable binary file: bytes are wrapped, a path is
    opened (and closed on exit), and a file object is used as it is."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        yield BytesIO(source)
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            yield f
    else:
        yield source


@contextmanager
def _sink(out) -> Iterator[Callable[[tuple[int, ...]], np.ndarray]]:
    """Yield ``make(shape)``, which returns the array a decode writes into.

    ``None`` makes a fresh array, and an array ``out`` is validated by
    :func:`check_out` and used as it is.  A path is a file sink, made only
    when ``make`` is called: ``.npy`` through ``np.lib.format.open_memmap``,
    any other name as raw little-endian float32 through ``np.memmap``, both
    byte-identical to :func:`repro.io.save_field`.  The sink is a fresh
    sibling file that is renamed onto the path only once the decode
    succeeded, so a failed decode removes just that file and leaves the
    path as it was: the decode's own source, an earlier output, or
    nothing.  A memmap an earlier decode returned keeps its own file.  A
    device or pipe cannot be mapped, so its field is decoded in memory and
    saved once the decode succeeds.
    """
    if not isinstance(out, (str, os.PathLike)):
        yield lambda shape: (
            np.empty(shape, dtype=np.float32) if out is None
            else check_out(out, shape)
        )
        return
    path = pathlib.Path(out)
    target = path.resolve()  # a symlinked output is written through
    part = target.with_name(f".{target.name}.{uuid.uuid4().hex[:12]}.part")
    made: list[np.ndarray] = []

    def make(shape: tuple[int, ...]) -> np.ndarray:
        if path.exists() and not path.is_file():
            made.append(np.empty(shape, dtype=np.float32))
        elif path.suffix == ".npy":
            made.append(np.lib.format.open_memmap(
                part, mode="w+", dtype=np.float32, shape=shape
            ))
        else:
            made.append(np.memmap(part, dtype="<f4", mode="w+", shape=shape))
        return made[-1]

    try:
        yield make
        if made and isinstance(made[0], np.memmap):
            # not os.replace: renaming over a file makes ext4 write the new
            # one back at once (auto_da_alloc), which cost a 64 MiB decode
            # ~45 ms on a 2-core ext4 host
            target.unlink(missing_ok=True)
            os.rename(part, target)
            made[0].filename = str(target)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    if made and not isinstance(made[0], np.memmap):
        from repro.io import save_field

        save_field(path, made[0])


def _open_field_mmap(
    path: str | pathlib.Path, shape: tuple[int, ...] | None
) -> np.ndarray:
    """Open a field file without reading it into memory."""
    path = pathlib.Path(path)
    if path.suffix == ".npy":
        data = np.load(path, mmap_mode="r")
        if data.dtype not in (np.float32, np.float64):
            raise FormatError(
                f"{path.name}: expected a float field, got dtype {data.dtype}"
            )
        return data
    mm = np.memmap(path, dtype="<f4", mode="r")
    if shape is None:
        return mm
    expected = int(np.prod(shape))
    if mm.size != expected:
        raise FormatError(
            f"{path.name}: {mm.size} floats on disk, shape {shape} needs {expected}"
        )
    return mm.reshape(shape)
