"""Batch runners: one batch loop, three executors.

The measurement layer hands a runner a list of tasks (see
``runtime.tasks``).  :meth:`BatchRunner.run` is the only batch loop: it
plans each task's chunks, fetches journaled spans, submits the rest to
the venue's *executor*, consumes the results in plan order (folding
them with ``merge_partials``), checks the early-stop rule, and records
a :class:`~repro.runtime.stats.RunStats`.  The venues differ only in
their executor:

* :class:`SerialRunner` — :class:`SerialExecutor`, the in-process loop;
  also the fallback of the other two venues.
* :class:`ProcessPoolRunner` — :class:`PoolExecutor`, a forked
  ``concurrent.futures`` process pool (workers inherit the live task
  objects, so strategy factories built from closures need no pickling;
  work items are ``(task, start, stop)`` index triples, and results
  come back as picklable partials).  Tiny batches and platforms that
  cannot fork run serially.
* ``DistributedRunner`` (``runtime.distributed``) — TCP workers.

An executor offers ``submit(ti, start, stop, attempt) -> handle`` (``None``
when the venue can take no more work), ``result(handle) -> (partial,
instrumentation delta, worker id)`` (or raises), ``cancel(handle)`` and
``close()``.

Determinism contract: per-run randomness depends only on ``(seed, k)``
via ``Rng(seed).fork(f"run-{k}")`` inside the task, and partials are
merged in ascending chunk order, so every venue produces bit-identical
results for the same seed.

Failure semantics (see ``runtime.retry`` and docs/architecture.md): a
chunk attempt that raises, breaks its worker, or misses its deadline is
retried on the venue with bounded backoff; the final rung of the ladder
is trusted in-process replay with fault injection disabled and the
cache bypassed — so a worker crash can delay a batch but never bias or
lose it.  Every chunk leaves a :class:`~repro.runtime.stats.ChunkStats`
record, and the batch-wide ``RunStats`` is recorded in a ``finally`` so
``last_stats`` survives even a failing batch.

Backend selection: an explicit ``runner=`` argument wins; otherwise
``jobs`` (CLI ``--jobs`` / keyword) is consulted, falling back to the
``REPRO_JOBS`` environment variable, falling back to serial.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Sequence

from .cache import ChunkCache, instrumentation_delta, instrumentation_snapshot
from .early_stop import EarlyStopRule
from .journal import RunJournal
from .retry import ChunkTimeout, FaultSpec, RetryPolicy, run_task_chunk
from .stats import BatchLog, RunStats
from .tasks import merge_partials, plan_chunks
from .vectorized import BackendError, resolve_backend

#: Environment variable consulted when no explicit ``jobs`` is given.
REPRO_JOBS_ENV = "REPRO_JOBS"

#: Environment variable consulted when no explicit ``chunk_size`` is given.
ENV_CHUNK_SIZE = "REPRO_CHUNK_SIZE"

#: Batches smaller than this run serially even when a pool was requested.
SMALL_BATCH_THRESHOLD = 64

#: How many chunk deadlines a still-queued future may sit out before the
#: wait itself is treated as a timeout (guards against a pool whose every
#: worker is wedged on someone else's chunk).
_QUEUE_WAIT_DEADLINES = 20

#: Liveness backstop for pools run *without* a chunk deadline.  Executor
#: churn (one pool per batch) can very rarely starve a fresh pool: the
#: work-item handoff is lost inside the executor machinery, its workers
#: sit forever in ``call_queue.get()`` and ``future.result()`` would
#: block indefinitely.  If the awaited future has not even *started*
#: after this many seconds without any chunk resolving batch-wide, the
#: pool is declared wedged and respawned.  A chunk that is actually
#: running is never interrupted by this path.
_STARVATION_POLL_S = 15.0
_STARVATION_GRACE_S = 120.0


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit arg > ``REPRO_JOBS`` > 1.

    ``0`` (or the env value ``"auto"``) means "use every CPU".
    """
    if jobs is None:
        raw = os.environ.get(REPRO_JOBS_ENV, "").strip()
        if not raw:
            return 1
        if raw.lower() == "auto":
            jobs = os.cpu_count() or 1
        else:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{REPRO_JOBS_ENV} must be an integer or 'auto', got {raw!r}"
                )
            if jobs < 0:
                # Name the variable: this value came from the environment,
                # and "jobs must be non-negative" gives the operator no
                # clue *which* knob to fix (cf. REPRO_CHUNK_TIMEOUT).
                raise ValueError(
                    f"{REPRO_JOBS_ENV} must be non-negative or 'auto', "
                    f"got {raw!r}"
                )
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    return max(1, jobs)


def resolve_chunk_size(chunk_size: Optional[int] = None) -> Optional[int]:
    """Effective chunk size: explicit arg > ``REPRO_CHUNK_SIZE`` > ``None``
    (meaning "derive from ``n_runs``" — see ``default_chunk_size``).

    Mirrors the ``--chunk-size`` flag; non-numeric or non-positive
    environment values raise a ``ValueError`` naming the variable
    (cf. ``REPRO_JOBS``/``REPRO_CHUNK_TIMEOUT``).
    """
    if chunk_size is not None:
        if chunk_size <= 0:
            raise ValueError(
                f"chunk size must be positive, got {chunk_size}"
            )
        return chunk_size
    raw = os.environ.get(ENV_CHUNK_SIZE, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_CHUNK_SIZE} must be a positive integer, got {raw!r}"
        )
    if value <= 0:
        raise ValueError(
            f"{ENV_CHUNK_SIZE} must be a positive integer, got {raw!r}"
        )
    return value


def resolve_runner(
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    fault: Optional[FaultSpec] = None,
    cache: Optional[ChunkCache] = None,
    backend: Optional[str] = None,
    workers=None,
    journal: Optional[RunJournal] = None,
) -> "BatchRunner":
    """Build the runner implied by ``workers``/``jobs`` (serial if ≤ 1).

    Venue precedence: ``workers`` (CLI ``--workers`` / ``REPRO_WORKERS``
    — the distributed venue) > ``jobs``/``REPRO_JOBS`` (process pool) >
    serial.  ``retry``/``fault``/``cache``/``backend``/``journal``
    default to the ``REPRO_MAX_RETRIES`` / ``REPRO_CHUNK_TIMEOUT`` /
    ``REPRO_FAULT_*`` / ``REPRO_CACHE_DIR`` / ``REPRO_BACKEND`` /
    ``REPRO_JOURNAL_DIR`` environment knobs.
    """
    from .distributed import DistributedRunner, parse_workers

    common = dict(
        chunk_size=chunk_size, retry=retry, fault=fault, cache=cache,
        backend=backend, journal=journal,
    )
    addrs = parse_workers(workers)
    if addrs:
        return DistributedRunner(addrs, **common)
    n = resolve_jobs(jobs)
    if n <= 1:
        return SerialRunner(**common)
    return ProcessPoolRunner(n, **common)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class BatchRunner:
    """The batch loop, the retry ladder and the stats, for every venue."""

    backend = "abstract"
    jobs = 1

    def __init__(
        self,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault: Optional[FaultSpec] = None,
        cache: Optional[ChunkCache] = None,
        backend: Optional[str] = None,
        journal: Optional[RunJournal] = None,
    ):
        self.chunk_size = resolve_chunk_size(chunk_size)
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        fault = fault if fault is not None else FaultSpec.from_env()
        self.fault = fault if fault is not None and fault.active else None
        #: Persistent chunk-result cache; strictly opt-in (an explicit
        #: instance or the ``REPRO_CACHE_DIR`` environment knob).
        self.cache = cache if cache is not None else ChunkCache.from_env()
        #: Crash-safe run ledger (see ``runtime.journal``); opt-in like
        #: the cache (an explicit instance or ``REPRO_JOURNAL_DIR``).
        #: Completed chunks are always recorded; journaled spans are only
        #: *replayed* when the journal was opened with ``resume=True``.
        self.journal = journal if journal is not None else RunJournal.from_env()
        #: Execution engine policy (``auto``/``reference``/``vectorized``)
        #: — distinct from the venue (``self.backend``): the venue says
        #: *where* chunks run, the execution backend says *what* computes
        #: them.  Explicit argument > ``REPRO_BACKEND`` > ``auto``.
        self.exec_backend = resolve_backend(backend)
        self.last_stats: Optional[RunStats] = None
        #: Every batch's RunStats, oldest first (the CLI ``--stats`` dump).
        self.stats_history: List[RunStats] = []
        #: Optional callable invoked with each :class:`ChunkStats` as it
        #: resolves, mid-batch (see ``BatchLog.observer``).  The service
        #: venue sets this to stream chunk-granularity partials to
        #: clients; ``None`` (the default) costs nothing.
        self.chunk_observer = None

    def history_mark(self) -> int:
        """Bookmark the stats history before a multi-batch measurement."""
        return len(self.stats_history)

    def stats_since(self, mark: int) -> List[RunStats]:
        """Every batch recorded since :meth:`history_mark` returned
        ``mark`` — the verdict plumbing used by ``verify.checker`` to
        attribute chunk spans to the claim that spawned them."""
        return self.stats_history[mark:]

    def run_one(self, task, early_stop: Optional[EarlyStopRule] = None):
        """Convenience wrapper for single-task batches."""
        return self.run([task], early_stop=early_stop)[0]

    def _executor(self, tasks: Sequence):
        """The executor this batch runs on (venues override)."""
        return SerialExecutor(self, tasks)

    def _plan(self, task, ex, early_stop) -> List[tuple]:
        # The plan is a pure function of (task, chunk_size) so every venue
        # checks a stop rule at identical run indices and journal
        # fingerprints replay across venues.  The one exception: a serial
        # batch with nothing to check between chunks runs each task as a
        # single sweep (identical result, no merge overhead).  A cache or
        # journal forces planned chunks so stored spans match the other
        # venues'; an explicit chunk_size likewise, so every venue
        # accounts interrupts over the same span set.
        if (
            ex.label == "serial"
            and early_stop is None
            and self.cache is None
            and self.journal is None
            and self.chunk_size is None
        ):
            return [(0, task.n_runs)]
        return plan_chunks(task.n_runs, self.chunk_size)

    def run(self, tasks: Sequence, early_stop: Optional[EarlyStopRule] = None) -> List:
        """Run every task to completion; return one merged value per task.

        Also records a batch-wide :class:`RunStats` in ``self.last_stats``
        (even when the batch ultimately raises; an interrupt carries it
        as ``run_stats``).
        """
        tasks = list(tasks)
        t0 = time.perf_counter()
        requested = sum(t.n_runs for t in tasks)
        log = BatchLog(observer=self.chunk_observer)
        values: List = [None] * len(tasks)
        plans: List[List[tuple]] = []
        handles: dict = {}
        handled: set = set()
        stopped_any = False
        interrupted: Optional[BaseException] = None
        ex = self._executor(tasks)
        try:
            plans = [self._plan(task, ex, early_stop) for task in tasks]
            # Journaled spans resolve here, before anything is submitted:
            # a resumed span never occupies a venue slot.
            journaled = self._journal_fetch(tasks, plans, log)
            for ti, plan in enumerate(plans):
                for start, stop in plan:
                    if (ti, start, stop) not in journaled:
                        handles[ti, start, stop] = ex.submit(ti, start, stop, 0)
            # Consumption — and so merging, early stopping and every
            # result — is in plan order, whatever order the venue
            # finished the chunks in.
            for ti, plan in enumerate(plans):
                value = None
                stopped = False
                for start, stop in plan:
                    span = (ti, start, stop)
                    if stopped:
                        handle = handles.pop(span, None)
                        if handle is not None:
                            ex.cancel(handle)
                        log.chunk(ti, start, stop, 0, "cancelled", ex.label, 0.0)
                        handled.add(span)
                        continue
                    if span in journaled:
                        part = journaled.pop(span)
                        log.chunk(ti, start, stop, 0, "journaled", ex.label, 0.0)
                    else:
                        part = self._resolve(
                            ex, tasks[ti], span, handles.pop(span), log
                        )
                        if self.journal is not None and self.journal.record(
                            tasks[ti], ti, start, stop, part
                        ):
                            log.journal_appends += 1
                    handled.add(span)
                    value = part if value is None else merge_partials(value, part)
                    if early_stop is not None and early_stop.should_stop(value):
                        stopped = stopped_any = True
                values[ti] = value
        except KeyboardInterrupt as exc:
            interrupted = exc
            raise
        finally:
            for handle in handles.values():
                if handle is not None:
                    ex.cancel(handle)
            if interrupted is not None:
                # Ctrl-C: account every planned-but-unconsumed span as
                # cancelled, so partial stats never overstate coverage.
                for ti, plan in enumerate(plans):
                    for start, stop in plan:
                        if (ti, start, stop) not in handled:
                            log.chunk(
                                ti, start, stop, 0, "cancelled", ex.label, 0.0
                            )
            ex.close()
            log.worker_deaths = ex.worker_deaths
            self._record(ex, len(tasks), requested, t0, stopped_any, log)
            if interrupted is not None:
                interrupted.run_stats = self.last_stats
        return values

    def _resolve(self, ex, task, span, handle, log: BatchLog):
        """Resolve one span through the degradation ladder.

        Venue attempts ``0..max_retries`` with backoff; a venue that can
        take no more work ends them at once.  The final rung is trusted
        in-process replay, fault injection disabled and the cache
        bypassed — sound because ``run_chunk(start, stop)`` is a pure
        function of ``(task, seed, span)``.  A genuine task bug raises
        there and propagates (the stats are still recorded by ``run``).
        """
        ti, start, stop = span
        policy = self.retry
        t0 = time.perf_counter()
        attempt = 0
        while handle is not None:
            try:
                part, inst, worker = ex.result(handle)
            except BackendError:
                # A forced-``vectorized`` task with no kernel is a
                # configuration error, not a transient failure: retrying
                # (or degrading to the reference replay rung) would
                # silently void the caller's backend assertion.
                raise
            except ChunkTimeout:
                log.failed_attempts += 1
                log.timeouts += 1
            except Exception:
                log.failed_attempts += 1
            else:
                log.chunk(
                    ti, start, stop, attempt + 1,
                    "ok" if attempt == 0 else "retried", ex.label,
                    time.perf_counter() - t0, inst=inst, worker=worker,
                )
                return part
            attempt += 1
            if attempt > policy.max_retries or not ex.available:
                break
            log.retries += 1
            time.sleep(policy.backoff_for(attempt))
            handle = ex.submit(ti, start, stop, attempt)
        before = instrumentation_snapshot()
        part = task.run_chunk(start, stop)
        log.chunk(
            ti, start, stop, attempt + 1, "replayed", "serial",
            time.perf_counter() - t0, inst=instrumentation_delta(before),
        )
        return part

    def _journal_fetch(self, tasks, plans, log: BatchLog) -> dict:
        """``{span: partial}`` for every planned span the run ledger can
        replay; quarantine counts drain into the log.  Spans are logged
        as ``"journaled"`` only when consumed, so spans dropped by early
        stopping or an interrupt are accounted identically whether or
        not a record existed for them."""
        journaled: dict = {}
        if self.journal is None:
            return journaled
        for ti, plan in enumerate(plans):
            for start, stop in plan:
                hit, part = self.journal.fetch(tasks[ti], ti, start, stop)
                if hit:
                    journaled[ti, start, stop] = part
        drained = self.journal.drain_new_counts()
        log.journal_corrupt += drained["corrupt"]
        log.journal_stale += drained["stale"]
        return journaled

    def _record(self, ex, n_tasks, requested, t0, stopped, log: BatchLog) -> None:
        engines = {
            c.engine
            for c in log.chunks
            if c.outcome != "cancelled" and c.engine not in ("cache", "journal")
        }
        if not log.vectorized_runs:
            execution_backend = "reference"
        elif engines == {"vectorized"}:
            execution_backend = "vectorized"
        else:
            execution_backend = "mixed"
        self.last_stats = RunStats(
            backend=ex.venue,
            jobs=ex.jobs,
            n_tasks=n_tasks,
            n_chunks=log.n_chunks,
            requested=requested,
            executions=log.executions,
            wall_clock_s=time.perf_counter() - t0,
            stopped_early=stopped,
            failed_attempts=log.failed_attempts,
            retries=log.retries,
            timeouts=log.timeouts,
            serial_replays=log.serial_replays,
            cancelled_chunks=log.cancelled,
            worker_deaths=log.worker_deaths,
            journal_replayed_chunks=log.journal_replayed,
            journal_appended_chunks=log.journal_appends,
            journal_corrupt_records=log.journal_corrupt,
            journal_stale_records=log.journal_stale,
            cache_corrupt_entries=log.cache_corrupt,
            cache_write_errors=log.cache_write_errors,
            setup_s=log.setup_s,
            execute_s=log.execute_s,
            classify_s=log.classify_s,
            memo_hits=log.memo_hits,
            memo_misses=log.memo_misses,
            cache_hits=log.cache_hits,
            cache_misses=log.cache_misses,
            cache_stores=log.cache_stores,
            execution_backend=execution_backend,
            vectorized_runs=log.vectorized_runs,
            chunks=tuple(log.chunks),
        )
        self.stats_history.append(self.last_stats)


class SerialExecutor:
    """Runs a chunk in-process, when its result is asked for.

    Lazy on purpose: spans cancelled by early stopping never run.
    """

    venue = label = "serial"
    jobs = 1
    available = True
    worker_deaths = 0

    def __init__(self, runner: BatchRunner, tasks: Sequence):
        self.runner = runner
        self.tasks = tasks

    def submit(self, ti, start, stop, attempt):
        return ti, start, stop, attempt

    def result(self, handle):
        ti, start, stop, attempt = handle
        runner = self.runner
        before = instrumentation_snapshot()
        part = run_task_chunk(
            self.tasks[ti], ti, start, stop, attempt, runner.fault,
            in_worker=False, cache=runner.cache, backend=runner.exec_backend,
        )
        return part, instrumentation_delta(before), ""

    def cancel(self, handle) -> None:
        pass

    def close(self) -> None:
        pass


class SerialRunner(BatchRunner):
    """In-process execution; chunked only to honour early-stop cadence."""

    backend = "serial"


# -- process-pool worker side ------------------------------------------------
# Workers are forked, so they see the parent's task list through this
# module-level slot; submitted work items carry only index triples (plus
# the attempt number and fault spec, both picklable).

_WORKER_TASKS: Sequence = ()
_WORKER_CACHE: Optional[ChunkCache] = None
_WORKER_BACKEND: str = "auto"


def _worker_init(
    tasks: Sequence,
    cache: Optional[ChunkCache] = None,
    backend: str = "auto",
) -> None:
    global _WORKER_TASKS, _WORKER_CACHE, _WORKER_BACKEND
    _WORKER_TASKS = tasks
    _WORKER_CACHE = cache
    _WORKER_BACKEND = backend


def _worker_run_chunk(
    task_index: int,
    start: int,
    stop: int,
    attempt: int = 0,
    fault: Optional[FaultSpec] = None,
):
    """Worker-side chunk execution.

    Returns ``(partial, inst)`` — the instrumentation delta (phase
    seconds, memo/cache counter increments, vectorized-run counts)
    measured in *this* worker is shipped back with the result so the
    parent's batch totals aggregate across processes.
    """
    task = _WORKER_TASKS[task_index]
    before = instrumentation_snapshot()
    part = run_task_chunk(
        task, task_index, start, stop, attempt, fault,
        in_worker=True, cache=_WORKER_CACHE, backend=_WORKER_BACKEND,
    )
    return part, instrumentation_delta(before)


def _dispose_pool(pool) -> None:
    """Discard an executor whose results are no longer wanted.

    ``shutdown(wait=False)`` alone is not enough for a pool that still
    has a *running* chunk (a wedged straggler in a retired executor, or
    abandoned work after an early stop/interrupt): the executor's
    manager thread keeps waiting for that result, and at interpreter
    exit ``concurrent.futures``' atexit hook joins the manager thread —
    deadlocking shutdown.

    Disposal is therefore two-phase.  First a short graceful window: an
    idle pool's manager exits in milliseconds, and even a stuck one
    processes the shutdown flag — dropping cancelled work items, so the
    forced path below cannot race it into ``set_exception`` on an
    already-cancelled future.  If the manager is still alive after the
    grace period, the worker processes are killed — a wakeup the
    manager thread is guaranteed to see (it waits on the process
    sentinels and joins workers on exit) — and the manager reaped with a
    bounded join.  Results were already consumed or abandoned by the
    caller, and chunk-cache writes are atomic (write-to-temp + rename),
    so the kill cannot lose or corrupt state.
    """
    # Snapshot the worker list *before* shutdown: the manager thread may
    # clear its process table while tearing down, and a worker that
    # never receives its shutdown sentinel must still be killed.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    if manager is not None:
        manager.join(timeout=0.25)
        if not manager.is_alive():
            return
    for proc in processes:
        try:
            proc.kill()
        except Exception:
            pass
    if manager is not None:
        manager.join(timeout=5.0)


class PoolExecutor:
    """Chunks as futures of a forked process pool.

    A broken pool (a worker died) or one that refuses submissions makes
    the venue unavailable; a chunk running past its deadline, which
    ``cancel()`` cannot free, gets the executor respawned.
    """

    venue = "process-pool"
    label = "pool"
    worker_deaths = 0

    def __init__(self, runner: "ProcessPoolRunner", tasks: Sequence):
        self.jobs = runner.jobs
        self.fault = runner.fault
        self.timeout = runner.retry.chunk_timeout_s
        self.available = True
        self._pool_args = dict(
            max_workers=runner.jobs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=(tasks, runner.cache, runner.exec_backend),
        )
        self._pool = ProcessPoolExecutor(**self._pool_args)
        self._retired: List[ProcessPoolExecutor] = []
        self._last_progress = time.monotonic()

    def submit(self, ti, start, stop, attempt):
        """The chunk's future, or ``None`` once the pool is broken."""
        if self.available:
            try:
                return self._pool.submit(
                    _worker_run_chunk, ti, start, stop, attempt, self.fault
                )
            except RuntimeError:  # pool broken or already shutting down
                self.available = False
        return None

    def result(self, future):
        try:
            part, inst = self._await(future)
        except BrokenProcessPool:
            self.available = False
            raise
        except ChunkTimeout as exc:
            if exc.wedged:
                self._respawn()
            raise
        self._last_progress = time.monotonic()
        return part, inst, ""

    def cancel(self, future) -> None:
        future.cancel()

    def close(self) -> None:
        # The live pool and every executor retired by a respawn.
        for pool in (*self._retired, self._pool):
            _dispose_pool(pool)

    def _respawn(self) -> None:
        """Replace the executor after a running chunk wedged its slot.

        ``Future.cancel()`` is a no-op once a worker has started the
        chunk, so a wedged (e.g. sleep-faulted) execution permanently
        occupies a slot in the old pool.  A fresh executor restores full
        capacity immediately; the old one is retired without waiting —
        its queued futures are cancelled (surfacing as ``CancelledError``
        failed attempts that resubmit here), its running ones finish in
        orphaned processes and are consumed normally.
        """
        retired = self._pool
        self._retired.append(retired)
        self._pool = ProcessPoolExecutor(**self._pool_args)
        retired.shutdown(wait=False, cancel_futures=True)

    def _await(self, future):
        """``future.result()`` under the policy's per-chunk deadline.

        The deadline clock only runs against a chunk that has actually
        started: a future still sitting in the queue gets its wait
        extended (the pool is busy, not hung) — but only for a bounded
        number of deadlines, so a pool whose every worker is wedged still
        degrades instead of blocking forever.

        A timeout on a *running* future marks the raised
        :class:`ChunkTimeout` as ``wedged``: cancellation cannot reclaim
        that slot, so the caller respawns the executor.
        """
        timeout = self.timeout
        if timeout is None:
            # No per-chunk deadline — but never trust a *pending* future
            # unconditionally: a starved pool (see _STARVATION_GRACE_S)
            # would block this wait forever.  A future that is running is
            # waited on indefinitely; a future that has not started while
            # the whole batch made no progress for the grace period marks
            # the pool wedged so it is respawned.
            while True:
                try:
                    return future.result(timeout=_STARVATION_POLL_S)
                except FuturesTimeout:
                    if future.running():
                        continue
                    stalled = time.monotonic() - self._last_progress
                    if stalled <= _STARVATION_GRACE_S:
                        continue
                    future.cancel()
                    exc = ChunkTimeout(
                        f"pool made no progress for {stalled:.0f}s with "
                        "this chunk still queued — executor starved"
                    )
                    exc.wedged = True
                    raise exc from None
                except BaseException:
                    # A delivered failure is still delivery: the pool is
                    # feeding results, so reset the starvation clock.
                    self._last_progress = time.monotonic()
                    raise
        deadlines_waited = 0
        while True:
            try:
                return future.result(timeout=timeout)
            except FuturesTimeout:
                deadlines_waited += 1
                if future.running() or deadlines_waited >= _QUEUE_WAIT_DEADLINES:
                    wedged = future.running()
                    future.cancel()
                    exc = ChunkTimeout(
                        f"chunk missed its {timeout:.3f}s deadline"
                    )
                    exc.wedged = wedged
                    raise exc from None


class ProcessPoolRunner(BatchRunner):
    """Chunked fan-out over a forked process pool.

    All chunks of all tasks are submitted together (a strategy sweep
    parallelises across strategies *and* within each strategy's run
    range).  Runs serially when the batch is tiny, only one worker is
    available, or the platform cannot fork.
    """

    backend = "process-pool"

    def __init__(
        self,
        jobs: int,
        chunk_size: Optional[int] = None,
        min_parallel_runs: int = SMALL_BATCH_THRESHOLD,
        retry: Optional[RetryPolicy] = None,
        fault: Optional[FaultSpec] = None,
        cache: Optional[ChunkCache] = None,
        backend: Optional[str] = None,
        journal: Optional[RunJournal] = None,
    ):
        super().__init__(
            chunk_size=chunk_size, retry=retry, fault=fault, cache=cache,
            backend=backend, journal=journal,
        )
        if jobs < 1:
            raise ValueError("ProcessPoolRunner needs at least one worker")
        self.jobs = jobs
        self.min_parallel_runs = min_parallel_runs

    def _executor(self, tasks: Sequence):
        if (
            self.jobs <= 1
            or sum(t.n_runs for t in tasks) < self.min_parallel_runs
            or not _fork_available()
        ):
            return SerialExecutor(self, tasks)
        return PoolExecutor(self, tasks)
