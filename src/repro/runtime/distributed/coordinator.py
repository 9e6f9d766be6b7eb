"""Distributed coordinator: the third runner venue.

:class:`DistributedRunner` fans a batch's chunks out over TCP workers
(see :mod:`.worker`) instead of forked processes.  The batch loop, the
plan-order fold, early stopping and the retry ladder are
:meth:`~repro.runtime.runner.BatchRunner.run`'s, shared with the serial
and pool venues; this module supplies only the executor.  Every chunk
is a pure function of ``(task, seed, span)``, so the three venues
produce bit-identical results and this one can always fall back to
running a chunk in-process.

Scheduling is a work-stealing pull queue: workers announce ``ready`` and
the executor hands out the next queued attempt, so heterogeneous hosts
self-balance without any capacity declaration.  Tasks travel as
content-fingerprinted specs (:mod:`.codec`); a chunk of a task with no
spec (an opaque closure, active engine faults), or one that no live
worker can decode, runs coordinator-side exactly like a serial chunk —
shipping code is never an option.

Each submitted attempt is a handle stamped with a fresh *generation*;
the handle fails (and the batch loop's ladder retries the span) when:

* the worker reports an error, or its partial does not decode;
* the attempt misses its deadline while the worker still heartbeats
  (wedged) — a late result for that generation is recognised as stale
  and dropped, and the worker keeps serving;
* the worker dies (EOF, send failure, stale heartbeat) — its connection
  is retired and ``RunStats.worker_deaths`` counts the casualty.

With every worker lost, the remaining attempts run in-process.  Per-chunk
attribution lands in ``ChunkStats.worker`` so a slow or flaky host is
visible in the exported stats.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from ..retry import ChunkTimeout
from ..runner import BatchRunner, SerialExecutor
from ..vectorized import BackendError
from .codec import encode_task
from .wire import (
    PROTOCOL_VERSION,
    WireError,
    decode_partial,
    recv_frame,
    send_frame,
)
from .worker import fault_spec_to_dict, resolve_heartbeat

#: Environment variable listing worker addresses (``host:port,host:port``).
ENV_WORKERS = "REPRO_WORKERS"

#: A worker whose last heartbeat is older than this many heartbeat
#: periods is declared dead.
_STALE_HEARTBEATS = 4.0

#: Default per-chunk deadline (seconds) when the retry policy sets none.
#: Distribution cannot wait forever: a silently wedged worker would
#: stall the batch, and unlike the pool venue there is no child process
#: to join on.
DEFAULT_CHUNK_DEADLINE_S = 60.0


def parse_workers(spec) -> List[Tuple[str, int]]:
    """``host:port,host:port`` (string or iterable) → address list.

    Explicit argument wins; ``None`` consults :data:`ENV_WORKERS`; an
    empty result means "no distribution".
    """
    if spec is None:
        spec = os.environ.get(ENV_WORKERS, "")
    addrs: List[Tuple[str, int]] = []
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",") if p.strip()]
    else:
        parts = []
        for item in spec:
            if isinstance(item, (tuple, list)) and len(item) == 2:
                addrs.append((str(item[0]), int(item[1])))
            elif str(item).strip():
                parts.append(str(item).strip())
    for part in parts:
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"worker address {part!r} is not host:port (set --workers "
                f"or {ENV_WORKERS} to a comma-separated list)"
            )
        try:
            port_num = int(port)
        except ValueError:
            raise ValueError(
                f"worker address {part!r} (from --workers or {ENV_WORKERS}) "
                "has a non-integer port"
            )
        if not 1 <= port_num <= 65535:
            raise ValueError(
                f"worker address {part!r} (from --workers or {ENV_WORKERS}) "
                "has an out-of-range port (need 1-65535)"
            )
        addrs.append((host, port_num))
    return addrs


class _WorkerConn:
    """Coordinator-side view of one connected worker."""

    def __init__(self, addr: Tuple[str, int], conn: socket.socket,
                 worker_id: str, tasks_ok: Sequence[bool]):
        self.addr = addr
        self.conn = conn
        self.worker_id = worker_id
        self.tasks_ok = list(tasks_ok)
        self.last_seen = time.monotonic()
        self.wants_work = False
        self.assigned: Optional[_Attempt] = None
        self.dead = False
        self.thread: Optional[threading.Thread] = None

    def can_run(self, ti: int) -> bool:
        return ti < len(self.tasks_ok) and bool(self.tasks_ok[ti])


class _Attempt:
    """One submitted attempt of one span: the executor's handle.

    ``state`` walks ``queued → assigned → done`` on the happy path, or
    ends at ``failed`` (``outcome`` holds the exception) or
    ``cancelled``; ``local`` marks an attempt the coordinator runs
    itself.  ``gen`` is unique per executor, so a result from an earlier
    attempt of the same span can never be taken for this one.
    """

    __slots__ = ("ti", "start", "stop", "attempt", "gen", "state",
                 "deadline", "outcome", "settled")

    def __init__(self, ti: int, start: int, stop: int, attempt: int, gen: int):
        self.ti = ti
        self.start = start
        self.stop = stop
        self.attempt = attempt
        self.gen = gen
        self.state = "queued"
        self.deadline = 0.0
        self.outcome = None
        self.settled = threading.Event()


class DistributedRunner(BatchRunner):
    """Chunked fan-out over TCP workers (the third venue).

    ``workers`` is a list of ``(host, port)`` pairs or a
    ``host:port,host:port`` string (see :func:`parse_workers`).  Workers
    are dialled per batch; one that cannot be reached, dies mid-chunk,
    or refuses a task simply shrinks the fleet — the batch always
    completes, on the coordinator alone if necessary (serially when no
    worker answers at all), with bit-identical results.
    """

    backend = "distributed"

    def __init__(
        self,
        workers,
        chunk_size: Optional[int] = None,
        retry=None,
        fault=None,
        cache=None,
        backend: Optional[str] = None,
        connect_timeout_s: float = 5.0,
        heartbeat_s: Optional[float] = None,
        journal=None,
    ):
        super().__init__(
            chunk_size=chunk_size, retry=retry, fault=fault, cache=cache,
            backend=backend, journal=journal,
        )
        self.worker_addrs = parse_workers(workers)
        if not self.worker_addrs:
            raise ValueError("DistributedRunner needs at least one worker address")
        self.connect_timeout_s = connect_timeout_s
        # Explicit argument > REPRO_HEARTBEAT_S > default; both paths
        # validate (non-numeric or non-positive values raise, naming the
        # knob) instead of failing deep in the death detector.
        self.heartbeat_s = resolve_heartbeat(heartbeat_s)
        self.jobs = len(self.worker_addrs)

    def chunk_deadline_s(self) -> float:
        if self.retry.chunk_timeout_s is not None:
            return self.retry.chunk_timeout_s
        return DEFAULT_CHUNK_DEADLINE_S

    def _executor(self, tasks: Sequence):
        specs = [encode_task(t) for t in tasks]
        fleet = self._connect(specs)
        if not fleet:
            # Nobody answered the phone: the batch still runs, in process.
            return SerialExecutor(self, tasks)
        return DistributedExecutor(self, tasks, specs, fleet)

    def _connect(self, specs) -> List[_WorkerConn]:
        hello = {
            "type": "hello",
            "version": PROTOCOL_VERSION,
            "backend": self.exec_backend,
            "fault": fault_spec_to_dict(self.fault),
            "heartbeat_s": self.heartbeat_s,
            "tasks": specs,
        }
        fleet: List[_WorkerConn] = []
        for addr in self.worker_addrs:
            try:
                conn = socket.create_connection(addr, timeout=self.connect_timeout_s)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                send_frame(conn, hello)
                conn.settimeout(self.connect_timeout_s)
                ack = recv_frame(conn)
                if (
                    ack.get("type") != "hello-ack"
                    or ack.get("version") != PROTOCOL_VERSION
                ):
                    conn.close()
                    continue
                fleet.append(
                    _WorkerConn(
                        addr, conn,
                        ack.get("worker_id", f"{addr[0]}:{addr[1]}"),
                        ack.get("tasks_ok", []),
                    )
                )
            except (OSError, WireError):
                continue
        return fleet


class DistributedExecutor(SerialExecutor):
    """Attempts as entries of a pull queue served by worker threads.

    One thread per connection hands queued attempts to its worker and
    files the results; :meth:`result` waits for one attempt, sweeping
    for dead workers and missed deadlines while it waits.  Everything
    mutable is guarded by ``self.lock``.  The threads start at the first
    :meth:`result`, once the batch's initial attempts are queued: an
    idle worker thread only polls the queue every 50 ms.
    """

    venue = label = "distributed"

    def __init__(self, runner: DistributedRunner, tasks, specs, fleet):
        super().__init__(runner, tasks)
        self.jobs = runner.jobs
        self.specs = specs
        self.fleet: List[_WorkerConn] = fleet
        self.deadline_s = runner.chunk_deadline_s()
        self.stale_after = runner.heartbeat_s * _STALE_HEARTBEATS
        self.worker_deaths = 0
        self.lock = threading.Lock()
        self.pending: Deque[_Attempt] = deque()
        self.done = threading.Event()
        self._gens = itertools.count(1)

    # -- executor contract ---------------------------------------------------

    def submit(self, ti, start, stop, attempt):
        handle = _Attempt(ti, start, stop, attempt, next(self._gens))
        with self.lock:
            if self._shippable(ti):
                self.pending.append(handle)
            else:
                handle.state = "local"
        return handle

    def result(self, handle: _Attempt):
        for wc in self.fleet:
            if wc.thread is None:
                wc.thread = threading.Thread(
                    target=self._serve, args=(wc,), daemon=True
                )
                wc.thread.start()
        while True:
            with self.lock:
                if handle.state == "queued" and not self._shippable(handle.ti):
                    handle.state = "local"  # the fleet shrank under it
                if handle.state not in ("queued", "assigned"):
                    break
                self._sweep()
            # Only this attempt's own outcome wakes the wait early.
            handle.settled.wait(0.05)
        if handle.state == "local":
            return super().result(
                (handle.ti, handle.start, handle.stop, handle.attempt)
            )
        if handle.state == "failed":
            raise handle.outcome
        return handle.outcome

    def cancel(self, handle: _Attempt) -> None:
        # A queued attempt becomes a ghost the queue drops; an assigned
        # one's result will arrive stale and be dropped.
        with self.lock:
            if handle.state in ("queued", "assigned", "local"):
                handle.state = "cancelled"

    def close(self) -> None:
        self.done.set()
        for wc in self.fleet:
            if wc.thread is not None:
                wc.thread.join(timeout=2.0)
            try:
                wc.conn.close()
            except OSError:
                pass

    # -- bookkeeping (lock held) ---------------------------------------------

    def _shippable(self, ti: int) -> bool:
        return self.specs[ti] is not None and any(
            not wc.dead and wc.can_run(ti) for wc in self.fleet
        )

    def _fail(self, handle: _Attempt, exc: BaseException) -> None:
        handle.state = "failed"
        handle.outcome = exc
        handle.settled.set()

    def _sweep(self) -> None:
        now = time.monotonic()
        for wc in self.fleet:
            if not wc.dead and now - wc.last_seen > self.stale_after:
                self._on_death(wc)
            handle = wc.assigned
            if (
                handle is not None
                and handle.state == "assigned"
                and now > handle.deadline
            ):
                # Wedged, not dead: the worker keeps its connection and
                # its late result is dropped as stale.
                self._fail(handle, ChunkTimeout(
                    f"chunk missed its {self.deadline_s:.3f}s deadline "
                    f"on worker {wc.worker_id}"
                ))

    def _on_death(self, wc: _WorkerConn) -> None:
        if wc.dead:
            return
        wc.dead = True
        self.worker_deaths += 1
        try:
            wc.conn.close()
        except OSError:
            pass
        handle, wc.assigned = wc.assigned, None
        if handle is not None and handle.state == "assigned":
            self._fail(handle, ConnectionError(f"worker {wc.worker_id} died"))

    def _next_for(self, wc: _WorkerConn) -> Optional[_Attempt]:
        """Next queued attempt this worker can decode (work stealing: the
        first asker wins it)."""
        with self.lock:
            for _ in range(len(self.pending)):
                handle = self.pending.popleft()
                if handle.state != "queued":
                    continue  # cancelled or taken local: drop the ghost
                if wc.can_run(handle.ti):
                    handle.state = "assigned"
                    handle.deadline = time.monotonic() + self.deadline_s
                    wc.assigned = handle
                    return handle
                self.pending.append(handle)
            return None

    def _on_result(self, wc: _WorkerConn, msg: dict) -> None:
        with self.lock:
            handle, wc.assigned = wc.assigned, None
            if (
                handle is None
                or handle.state != "assigned"
                or msg.get("gen") != handle.gen
                or (msg.get("task"), msg.get("start"), msg.get("stop"))
                != (handle.ti, handle.start, handle.stop)
            ):
                return  # stale generation (deadline passed, cancelled)
            if not msg.get("ok"):
                # A forced-backend assertion is a configuration error
                # the ladder propagates; anything else is a failed attempt.
                error = msg.get("error", "")
                self._fail(handle, (
                    BackendError(error)
                    if msg.get("error_kind") == "BackendError"
                    else RuntimeError(f"worker {wc.worker_id}: {error}")
                ))
                return
            try:
                part = decode_partial(msg["partial"])
            except WireError as exc:
                self._fail(handle, exc)
                return
            handle.state = "done"
            handle.outcome = (part, msg.get("inst"), wc.worker_id)
            handle.settled.set()

    # -- one thread per worker connection ------------------------------------

    def _serve(self, wc: _WorkerConn) -> None:
        conn = wc.conn
        try:
            while not self.done.is_set():
                if wc.wants_work:
                    handle = self._next_for(wc)
                    if handle is not None:
                        send_frame(conn, {
                            "type": "chunk",
                            "task": handle.ti,
                            "start": handle.start,
                            "stop": handle.stop,
                            "attempt": handle.attempt,
                            "gen": handle.gen,
                        })
                        wc.wants_work = False
                        continue
                # Poll fast while a ready is outstanding (a retry can be
                # queued any moment); otherwise just drain heartbeats.
                conn.settimeout(0.05 if wc.wants_work else 0.25)
                try:
                    msg = recv_frame(conn)
                except socket.timeout:
                    continue
                wc.last_seen = time.monotonic()
                kind = msg.get("type")
                if kind == "ready":
                    wc.wants_work = True
                elif kind == "result":
                    self._on_result(wc, msg)
                elif kind == "error":
                    raise WireError(msg.get("error", "worker error"))
            # Batch over: a worker blocked in its pull loop is released.
            try:
                conn.settimeout(0.5)
                send_frame(conn, {"type": "shutdown"})
            except (OSError, WireError):
                pass
        except (WireError, OSError):  # EOF, send failure, garbage frame
            with self.lock:
                self._on_death(wc)
        except Exception:
            # A coordinator bug: retire the connection so the batch goes
            # on without it, and let the thread report the traceback.
            with self.lock:
                self._on_death(wc)
            raise
