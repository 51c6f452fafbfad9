"""Multi-process SpMV execution: real parallelism beyond the GIL.

:class:`ProcessParallelSpMV` is the multi-process sibling of
:class:`~repro.parallel.executor.ParallelSpMV`.  The matrix is sharded
once into a :class:`~repro.storage.shard.ShardStore` (one shard per
worker, same nnz-balanced row partition as the thread executor), and
each call ships nothing but a picklable shard *spec*: workers attach
the shard bytes directly -- a POSIX shared-memory segment for
``storage="mem"``, a re-opened ``np.memmap`` for ``storage="mmap"`` --
multiply into a shared output buffer, and return a small status dict.
No matrix data ever crosses the pickle channel.

Each shard has its own worker: worker *t* is one forked process that
serves only shard *t*, over its own duplex pipe, for the executor's
whole life -- the static thread-to-row-block ownership of the paper's
pinned threads.  A shard is therefore attached, CRC-verified and
planned once per worker, and a call is one pipe round trip per shard
with no feeder or manager thread in between.

The fault contract matches the thread executor exactly, crossing the
process boundary:

* every chunk outcome is collected; failures aggregate into one
  :class:`~repro.errors.ExecutionError` with per-chunk context;
* decode-class failures (:data:`~repro.parallel.executor.RETRYABLE`,
  which includes the CRC mismatch a poisoned shard raises at attach)
  get one retry after the parent rebuilds the shard from the source
  matrix -- ``rebuild_shard`` bumps the shard's generation, so the
  worker's attach cache cannot serve the stale bytes;
* ``chunk_timeout`` bounds the wait per chunk, and a worker that dies
  outright (its pipe reaches EOF) surfaces as an aggregated failure,
  not a hang -- the workers are retired and the shared x/y buffers
  rotated before the next call, so a straggler writing late cannot
  corrupt it.

Exceptions cross back as ``(type name, message)`` pairs -- errors with
keyword-only constructors (:class:`~repro.errors.IntegrityError`) do
not round-trip through pickle reliably -- and are reconstructed from
:mod:`repro.errors` / builtins in the parent, falling back to
:class:`RuntimeError`.
"""

from __future__ import annotations

import builtins
import multiprocessing
import os
import time
import traceback
import uuid
from collections import OrderedDict
from multiprocessing import get_context, shared_memory

import numpy as np

import repro.errors as _errors
from repro.compress.encode_cache import ConvertCache
from repro.errors import (
    BreakerOpenError,
    ExecutionError,
    FormatError,
    PartitionError,
    StorageError,
)
from repro.formats.base import SparseMatrix, check_out_aliasing
from repro.formats.conversions import to_csr
from repro.obs import core as obs
from repro.obs import xproc
from repro.parallel.executor import RETRYABLE, ChunkFailure, abandon_chunk
from repro.parallel.partition import RowPartition, row_partition
from repro.resilience import chaos
from repro.resilience.breaker import BreakerBoard
from repro.resilience.policy import DEFAULT_RETRY_POLICY, Deadline, RetryPolicy
from repro.storage.provider import _attach_shm, _detach_shm, _disarm_segment
from repro.storage.shard import ShardStore, attach_shard
from repro.telemetry import core as telemetry

__all__ = ["ProcessParallelSpMV"]

#: storage= values accepted by the process backend and the store kind
#: each maps to ("mem" means shared memory here: the in-RAM case that
#: workers can still reach).
_STORAGE_KINDS = {"mem": "shm", "shm": "shm", "mmap": "mmap"}


# ---------------------------------------------------------------------------
# Worker side (module level: must be picklable by reference)
# ---------------------------------------------------------------------------

#: Per-worker LRU cache of rebuilt shard matrices and their storage
#: handles, keyed (index, generation).  A rebuilt shard arrives with a
#: bumped generation, so stale bytes are never served after a
#: cache-invalidating retry, and the miss on the new generation drops
#: the older ones of that index (their attachment is released, not
#: left pinned until the cache fills).  Hits move to the back; over
#: capacity the oldest entry is evicted.
_SHARD_CACHE: "OrderedDict[tuple[int, int], tuple[SparseMatrix, dict]]" = (
    OrderedDict()
)

#: Shard-cache capacity per worker process.
_SHARD_CACHE_CAPACITY = 64

#: Per-worker cache of attached x/y vector segments, keyed by name.
_VEC_CACHE: dict[str, np.ndarray] = {}


def _attach_vector(name: str, size: int) -> np.ndarray:
    vec = _VEC_CACHE.get(name)
    if vec is None:
        seg = _attach_shm(name)
        vec = np.frombuffer(seg.buf, dtype=np.float64, count=size)
        if len(_VEC_CACHE) > 8:
            _VEC_CACHE.clear()
        _VEC_CACHE[name] = vec
    return vec


def _drop_cached(key: tuple[int, int]) -> None:
    """Evict one cache entry and release its shared-memory attachment."""
    _shard, handle = _SHARD_CACHE.pop(key)
    del _shard  # drop the views first, so the segment can unmap now
    if handle["kind"] == "shm":
        _detach_shm(handle["shm_name"])


def _cached_shard(spec: dict) -> SparseMatrix:
    """Shard for *spec* from the worker's LRU cache, attaching on miss.

    attach_shard verifies every field CRC: a poisoned shard raises
    IntegrityError here, which the parent sees as retryable.  The
    hit/miss marks flow through whatever telemetry/obs sinks are
    installed in this process -- the worker-scoped ones when a trace
    context enabled them, or the disabled fast path otherwise.
    """
    index, generation = spec["index"], spec["generation"]
    key = (index, generation)
    entry = _SHARD_CACHE.get(key)
    storage = spec["handle"]["kind"]
    if entry is not None:
        _SHARD_CACHE.move_to_end(key)
        telemetry.count(
            "storage.shard.cache.hit",
            1,
            extra={"index": index},
            storage=storage,
        )
        obs.mark("storage.shard.cache.hit", 1, storage=storage)
        return entry[0]
    # The miss is recorded before the attach so a failing attach still
    # counts as a miss.
    telemetry.count(
        "storage.shard.cache.miss",
        1,
        extra={"index": index},
        storage=storage,
    )
    obs.mark("storage.shard.cache.miss", 1, storage=storage)
    stale = [k for k in _SHARD_CACHE if k[0] == index and k[1] < generation]
    for old in stale:
        _drop_cached(old)
    shard = attach_shard(spec, verify=True)
    _SHARD_CACHE[key] = (shard, spec["handle"])
    while len(_SHARD_CACHE) > _SHARD_CACHE_CAPACITY:
        _drop_cached(next(iter(_SHARD_CACHE)))
    return shard


def _worker_spmv(
    spec: dict,
    x_name: str,
    ncols: int,
    y_name: str,
    nrows: int,
    lo: int,
    hi: int,
) -> dict:
    """Multiply one shard inside a shard worker; returns a status dict.

    The return value is deliberately plain (no exception objects):
    errors with keyword-only constructors break pickle, and the parent
    owns the retry decision anyway.  Failures carry the formatted
    worker traceback -- exception objects cannot cross the boundary,
    but the text can.

    When the spec carries a trace context (the parent had telemetry or
    obs enabled), the chunk runs under worker-scoped sinks and the
    status dict ships everything recorded -- spans, counters, metric
    shards -- back for the parent to merge (:mod:`repro.obs.xproc`).
    Without a context nothing here touches a collector or runtime.
    """
    t0 = time.perf_counter()
    ctx = spec.get("ctx")
    wt: xproc.WorkerTelemetry | None = None
    try:
        if ctx is not None:
            wt = xproc.WorkerTelemetry(ctx)
            wt.begin()
        try:
            with telemetry.span(
                "parallel.chunk",
                thread=wt.ctx.worker if wt else 0,
                lo=lo,
                hi=hi,
                nnz=wt.ctx.attrs.get("nnz", 0) if wt else 0,
                kind="row",
                backend="process",
                pid=os.getpid(),
                run_id=wt.ctx.run_id if wt else "",
            ):
                # Chaos seam (tools/smoke_chaos.py): faults armed in the
                # parent before the workers forked fire here -- a SIGKILL
                # lands mid-chunk, a sleep makes this worker the
                # straggler.  Empty registry = one truthiness check.
                chaos.trip(
                    "worker.chunk",
                    index=spec["index"],
                    generation=spec["generation"],
                    pid=os.getpid(),
                )
                x = _attach_vector(x_name, ncols)
                y = _attach_vector(y_name, nrows)
                with telemetry.span(
                    "worker.attach",
                    index=spec["index"],
                    generation=spec["generation"],
                ):
                    shard = _cached_shard(spec)
                with telemetry.span("worker.multiply", index=spec["index"]):
                    shard.spmv(x, out=y[lo:hi])
            seconds = time.perf_counter() - t0
            if wt is not None and wt.runtime is not None:
                wt.runtime.observe(
                    "spmv.chunk.seconds",
                    seconds,
                    format=wt.ctx.attrs.get("format", ""),
                    backend="process",
                )
            status = {"ok": True, "seconds": seconds}
        finally:
            if wt is not None:
                wt.end()
    except BaseException as exc:  # noqa: BLE001 - must not escape the worker
        status = {
            "ok": False,
            "seconds": time.perf_counter() - t0,
            "error_type": type(exc).__name__,
            "error": str(exc),
            "retryable": isinstance(exc, RETRYABLE),
            "traceback": traceback.format_exc(),
        }
    if wt is not None and wt.began:
        status["xproc"] = wt.payload()
    return status


def _serve(conn, inherited) -> None:
    """Main loop of one shard worker process.

    Each request is the argument tuple of :func:`_worker_spmv`; each
    answer is its status dict.  ``None`` asks the worker to exit, and
    so does a closed pipe (the parent retired this worker, or died).
    *inherited* are the parent's ends of every pipe that existed at the
    fork, this worker's own included: closing them here means each
    parent end lives only in the parent, so closing it there is seen as
    EOF by its worker.
    """
    for other in inherited:
        other.close()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            return
        status = _worker_spmv(*request)
        try:
            conn.send(status)
        except OSError:
            return


def _rebuild_error(status: dict) -> BaseException:
    """Parent-side reconstruction of a worker's reported exception."""
    name = status.get("error_type", "RuntimeError")
    message = status.get("error", "")
    cls = getattr(_errors, name, None) or getattr(builtins, name, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        return RuntimeError(f"{name}: {message}")
    try:
        return cls(message)
    except TypeError:
        return RuntimeError(f"{name}: {message}")


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _SharedVector:
    """A float64 vector in a shared-memory segment (parent-owned)."""

    def __init__(self, size: int):
        self.size = size
        self._seg = shared_memory.SharedMemory(
            create=True, size=max(size * 8, 1)
        )
        self.array = np.frombuffer(self._seg.buf, dtype=np.float64, count=size)

    @property
    def name(self) -> str:
        return self._seg.name

    def close(self) -> None:
        try:
            self._seg.unlink()
        except FileNotFoundError:
            pass
        # Release our view first or close() raises BufferError.
        self.array = None
        try:
            self._seg.close()
        except BufferError:
            _disarm_segment(self._seg)


#: Seconds :meth:`ProcessParallelSpMV.close` waits, in all, for its
#: workers to exit before it kills the survivors (a straggler past its
#: chunk timeout, say).
_JOIN_TIMEOUT_S = 1.0


class _ShardWorker:
    """One forked process serving one shard over its own duplex pipe."""

    def __init__(self, ctx, index: int, siblings: list["_ShardWorker"]):
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_serve,
            args=(child, [w.conn for w in siblings] + [self.conn]),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self.process.start()
        child.close()

    def retire(self) -> None:
        """Ask the worker to exit once idle; close the parent's end."""
        try:
            self.conn.send(None)
        except OSError:
            pass  # already dead
        self.conn.close()


class ProcessParallelSpMV:
    """Row-partitioned multi-process SpMV over sharded storage.

    Parameters
    ----------
    matrix:
        Source matrix (any format; normalized through CSR once).
    nworkers:
        Process count; one shard / output slice per worker.
    format_name, format_kwargs:
        Storage format of the shards, as in the thread executor.
    storage:
        ``"mem"`` -- shards live in POSIX shared memory (in-RAM case);
        ``"mmap"`` -- shards live in packed files under *directory*
        and workers re-open the memmap (out-of-core case).
    directory:
        Shard-file directory, required for ``storage="mmap"``.
    convert_cache:
        Cache for the shard encodes (shared with thread executors over
        the same matrix: the keying is identical).
    chunk_timeout:
        Seconds to wait per chunk and call; a chunk exceeding it is a
        :class:`TimeoutError` failure inside the aggregated
        :class:`~repro.errors.ExecutionError`, and the shared buffers
        are rotated so the straggler cannot corrupt the next call.
    mp_context:
        Multiprocessing start method (default ``"fork"`` where
        available, else the platform default): fork makes worker
        startup cheap and is safe here because workers only attach
        buffers and run NumPy kernels.
    retry_policy:
        :class:`~repro.resilience.policy.RetryPolicy` governing the
        rebuild-and-resubmit retry (default: one retry of decode-class
        failures, shared budget across the run).
    deadline:
        Optional :class:`~repro.resilience.policy.Deadline` capping
        every per-chunk wait at the run's remaining wall-clock budget.
    breaker_threshold, breaker_cooldown_s:
        Per-(shard, generation) circuit-breaker configuration: after
        *breaker_threshold* consecutive failures against one shard
        generation, further rebuild attempts are refused (a typed
        :class:`~repro.errors.BreakerOpenError` failure) until the
        cooldown admits a half-open probe.  A successful rebuild bumps
        the generation and therefore starts a fresh breaker.
    """

    backend = "process"

    def __init__(
        self,
        matrix: SparseMatrix,
        nworkers: int,
        *,
        format_name: str = "csr",
        storage: str = "mem",
        directory: str | None = None,
        convert_cache: ConvertCache | None = None,
        chunk_timeout: float | None = None,
        mp_context: str | None = None,
        retry_policy: RetryPolicy | None = None,
        deadline: Deadline | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        **format_kwargs,
    ):
        if nworkers < 1:
            raise PartitionError(f"nworkers must be >= 1, got {nworkers}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise PartitionError(
                f"chunk_timeout must be positive, got {chunk_timeout}"
            )
        if storage not in _STORAGE_KINDS:
            raise StorageError(
                f"unknown storage {storage!r} for the process backend; "
                f"choose from {sorted(_STORAGE_KINDS)}"
            )
        csr = to_csr(matrix)
        self.nrows, self.ncols = csr.shape
        self.nworkers = nworkers
        self.nthreads = nworkers  # parity with ParallelSpMV's attribute
        self.chunk_timeout = chunk_timeout
        self.retry_policy = (
            DEFAULT_RETRY_POLICY if retry_policy is None else retry_policy
        )
        self.deadline = deadline
        self._retry_budget = self.retry_policy.new_budget()
        self.breakers = BreakerBoard(
            failure_threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
        )
        self._format_name = format_name
        self.partition: RowPartition = row_partition(csr.row_ptr, nworkers)
        self.store = ShardStore.build(
            csr,
            format_name,
            nworkers,
            storage=_STORAGE_KINDS[storage],
            directory=directory,
            convert_cache=convert_cache,
            boundaries=self.partition.boundaries.tolist(),
            deadline=deadline,
            **format_kwargs,
        )
        if mp_context is None and "fork" in multiprocessing.get_all_start_methods():
            mp_context = "fork"
        self._ctx = get_context(mp_context) if mp_context else get_context()
        self._workers: list[_ShardWorker] = []
        self._retired_workers: list[_ShardWorker] = []
        self._run_id = uuid.uuid4().hex[:12]
        self._x = _SharedVector(self.ncols)
        self._y = _SharedVector(self.nrows)
        self._retired: list[_SharedVector] = []
        self._closed = False

    # -- worker / buffer lifecycle ----------------------------------------
    def _ensure_workers(self) -> None:
        """Fork the shard workers on first use (and after a rotation)."""
        if self._workers:
            return
        workers: list[_ShardWorker] = []
        try:
            for t in range(self.nworkers):
                workers.append(_ShardWorker(self._ctx, t, workers))
        except BaseException:
            for worker in workers:
                worker.retire()
            self._retired_workers.extend(workers)
            raise
        self._workers = workers

    def _rotate(self) -> None:
        """Retire the workers and replace the shared buffers.

        Called after a timeout, a dead worker or an interrupted call.  A
        timed-out worker may still be running and would eventually
        write into the old ``y`` segment; retiring the segments (they
        stay allocated until close) guarantees it cannot touch the
        buffers later calls read, and fresh workers mean no stale
        answer is left in a pipe.  Retired workers that already exited
        are reaped here; the rest are joined at close.
        """
        for worker in self._workers:
            worker.retire()
        self._retired_workers = [
            w for w in self._retired_workers if w.process.is_alive()
        ] + self._workers
        self._workers = []
        self._retired.extend([self._x, self._y])
        self._x = _SharedVector(self.ncols)
        self._y = _SharedVector(self.nrows)

    # -- the call ----------------------------------------------------------
    def _submit(self, t: int) -> None:
        lo, hi = self.partition.rows_of(t)
        # The spec dict is shared with the store's manifest, so the
        # trace context rides on a copy.  ctx is None when both
        # telemetry and obs are off -- the worker then makes zero
        # observability calls (the xproc zero-overhead contract).
        spec = dict(self.store.attach_spec(t))
        ctx = xproc.current_context(
            run_id=self._run_id,
            parent="parallel.spmv",
            worker=t,
            nnz=int(self.partition.nnz_per_thread[t]),
            format=self._format_name,
        )
        if ctx is not None:
            spec["ctx"] = ctx
        x, y = self._x, self._y
        request = (spec, x.name, self.ncols, y.name, self.nrows, lo, hi)
        try:
            self._workers[t].conn.send(request)
        except OSError:
            # A dead worker: its pipe reads EOF when the chunk is collected.
            pass

    def _chunk_result(self, t: int, *, retried: bool):
        """(failure | None, status | None, needs_rotation) for one chunk."""
        lo, hi = self.partition.rows_of(t)
        timeout = (
            self.chunk_timeout
            if self.deadline is None
            else self.deadline.cap(self.chunk_timeout)
        )
        conn = self._workers[t].conn
        try:
            status = conn.recv() if conn.poll(timeout) else None
        except (EOFError, OSError) as exc:
            return (
                ChunkFailure(
                    t,
                    lo,
                    hi,
                    RuntimeError(
                        f"worker process died: pipe closed "
                        f"({type(exc).__name__})"
                    ),
                    retried=retried,
                ),
                None,
                True,
            )
        if status is None:
            failure = abandon_chunk(
                t,
                lo,
                hi,
                timeout=timeout,
                kind="row",
                backend=self.backend,
            )
            if retried:
                failure = ChunkFailure(
                    t, lo, hi, failure.error, retried=True
                )
            return failure, None, True
        # Worker-side telemetry/metrics merge first (also for failed
        # chunks: their partial events show where worker time went).
        payload = status.get("xproc")
        if payload is not None:
            xproc.ingest_payload(payload)
        if status["ok"]:
            runtime = obs.get_runtime()
            # The worker already observed its chunk latency when its
            # context had obs on (shipped in the payload's shards);
            # observing here too would double-count, so the parent
            # records only for workers that ran without an obs scope.
            if runtime is not None and (
                payload is None or "shards" not in payload
            ):
                runtime.observe(
                    "spmv.chunk.seconds",
                    status["seconds"],
                    format=self._format_name,
                    backend=self.backend,
                )
            telemetry.count(
                "parallel.chunk",
                1,
                extra={
                    "thread": t,
                    "lo": lo,
                    "hi": hi,
                    "nnz": int(self.partition.nnz_per_thread[t]),
                    "kind": "row",
                    "backend": self.backend,
                    "seconds": status["seconds"],
                },
            )
            return None, status, False
        return None, status, False

    def _run_chunks(self) -> tuple[list[ChunkFailure], bool]:
        """Send every shard its chunk, collect, retry: (failures, rotate?)."""
        self._ensure_workers()
        failures: list[ChunkFailure] = []
        needs_rotation = False
        for t in range(self.nworkers):
            self._submit(t)
        retry: list[tuple[int, dict]] = []
        for t in range(self.nworkers):
            failure, status, rotate = self._chunk_result(t, retried=False)
            needs_rotation |= rotate
            if failure is not None:
                failures.append(failure)
            elif status is not None and not status["ok"]:
                retry.append((t, status))
        # Cache-invalidating retry, across the process boundary: the
        # parent rebuilds the shard (new generation, fresh bytes)
        # and resubmits -- gated by the retry policy (error class,
        # attempts, shared budget, deadline) and by the shard
        # generation's circuit breaker, so a shard that keeps
        # failing at the same bytes stops burning rebuild cycles.
        resubmitted: list[tuple[int, object]] = []
        for t, status in retry:
            lo, hi = self.partition.rows_of(t)
            exc = _rebuild_error(status)
            generation = self.store.attach_spec(t)["generation"]
            breaker = self.breakers.get(f"shard:{t}:g{generation}")
            breaker.record_failure()
            if not breaker.allow():
                failures.append(
                    ChunkFailure(
                        t,
                        lo,
                        hi,
                        BreakerOpenError(
                            f"shard {t} generation {generation} breaker "
                            f"open after repeated failures (last: "
                            f"{type(exc).__name__}: {exc})",
                            key=breaker.key,
                            retry_after_s=breaker.retry_after_s(),
                        ),
                        retried=False,
                        worker_traceback=status.get("traceback"),
                    )
                )
                continue
            if not self.retry_policy.should_retry(
                exc, 1, budget=self._retry_budget, deadline=self.deadline
            ):
                failures.append(
                    ChunkFailure(
                        t,
                        lo,
                        hi,
                        exc,
                        retried=False,
                        worker_traceback=status.get("traceback"),
                    )
                )
                continue
            telemetry.count(
                "executor.retry",
                1,
                extra={
                    "thread": t,
                    "lo": lo,
                    "hi": hi,
                    "error": status.get("error_type", ""),
                },
                format=self._format_name,
            )
            obs.mark("executor.retry", 1, format=self._format_name)
            try:
                self.store.rebuild_shard(t)
            except Exception as exc2:
                breaker.record_failure()
                failures.append(ChunkFailure(t, lo, hi, exc2, retried=True))
                continue
            self._submit(t)
            resubmitted.append((t, breaker))
        for t, breaker in resubmitted:
            lo, hi = self.partition.rows_of(t)
            failure, status, rotate = self._chunk_result(t, retried=True)
            needs_rotation |= rotate
            if failure is not None:
                breaker.record_failure()
                failures.append(failure)
            elif status is not None and not status["ok"]:
                breaker.record_failure()
                failures.append(
                    ChunkFailure(
                        t,
                        lo,
                        hi,
                        _rebuild_error(status),
                        retried=True,
                        worker_traceback=status.get("traceback"),
                    )
                )
            else:
                # The rebuilt generation works: close the breaker so
                # a half-open probe that succeeded re-admits traffic.
                breaker.record_success()
        return failures, needs_rotation

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``y = A x`` across the worker processes."""
        if self._closed:
            raise StorageError("executor is closed")
        if self.deadline is not None:
            self.deadline.check("parallel.call")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise FormatError(f"x has shape {x.shape}, expected ({self.ncols},)")
        if out is not None:
            check_out_aliasing(out, x)
        np.copyto(self._x.array, x)

        runtime = obs.get_runtime()
        call_t0 = time.perf_counter()
        with telemetry.span(
            "parallel.spmv", threads=self.nworkers, backend=self.backend
        ):
            try:
                failures, needs_rotation = self._run_chunks()
            except BaseException:
                # An interrupted call may leave answers in the pipes that
                # the next call would take for its own.
                self._rotate()
                raise
        y_view = self._y.array
        if out is not None:
            np.copyto(out, y_view)
            y = out
        else:
            y = np.array(y_view, copy=True)
        if needs_rotation:
            self._rotate()
        if runtime is not None:
            runtime.observe(
                "spmv.call.seconds",
                time.perf_counter() - call_t0,
                format=self._format_name,
                threads=self.nworkers,
                backend=self.backend,
            )
        if failures:
            failures.sort(key=lambda f: f.thread)
            detail = "; ".join(f.describe() for f in failures)
            raise ExecutionError(
                f"{len(failures)} of {self.nworkers} chunks failed: {detail}",
                failures=tuple(failures),
            )
        return y

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Stop the workers; release the shard store and shared buffers.

        Every worker, current or retired, is asked to exit and joined;
        any still alive after :data:`_JOIN_TIMEOUT_S` is killed.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.retire()
        workers = self._retired_workers + self._workers
        self._workers = []
        self._retired_workers = []
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.process.exitcode is None:
                worker.process.kill()
                worker.process.join()
        for vec in [self._x, self._y, *self._retired]:
            vec.close()
        self._retired = []
        self.store.close()

    def __enter__(self) -> "ProcessParallelSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
