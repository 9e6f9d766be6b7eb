"""``chunk-store``: one batch of many cheap tasks, in six passes.

The batch is the full standard strategy spaces of ``opt-2sfe``,
``single-round``, ``gradual-release``, ``pi1`` and ``pi2`` (88 tasks, some
on vectorized kernels) at a small chunk size, so per-chunk runtime cost
dominates.  One cycle runs the batch

1. plain, serial;
2. serial, recording every chunk to a fresh chunk cache and run journal;
3. serial, reading every chunk back from the cache (repeated, median);
4. serial, replaying every chunk from the journal with resume on
   (repeated, median);
5. on a ``ProcessPoolRunner`` with ``nproc`` workers;
6. on a ``DistributedRunner`` over ``nproc`` localhost ``repro worker``
   subprocesses (in-process worker threads in a traced run).

Every pass must return ``EventCounts`` bit-identical to the plain pass;
the read passes must serve every chunk from the store and find nothing
corrupt or stale.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import clock
import gates
from common import WORK_DIR, nproc, peak_rss_mb, spawn_announcing, stop
from stats import median
from workload import Result, e2e, layer_result, setup_samples, timed_loop, traced

NAME = "chunk-store"

PROTOCOLS = ("opt-2sfe", "single-round", "gradual-release", "pi1", "pi2")
RUNS_PER_TASK = 8
CHUNK_SIZE = 2
#: Each read pass is short, so a cycle repeats it and keeps the median.
READ_REPEATS = 5

PASSES = ("plain", "record", "cache_hit", "resume", "pool", "distributed")
#: The passes in ``latency_p50_ms``.  The record pass is left out: the
#: journal fsyncs every chunk it appends, so the pass runs at the disk's
#: pace, which the host-speed calibration cannot divide out (over 12
#: runs its medians spread 12%, against 4% for the other passes
#: together, and the whole cycle's spread reached 20%).  Its time is
#: printed as ``record_s`` and traced as ``cache.store_s`` and
#: ``journal.record_s``.
TIMED_PASSES = ("plain", "cache_hit", "resume", "pool", "distributed")


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class ChunkStore:
    name = NAME

    def __init__(self, seed: int):
        self.seed = seed
        self.workers: List = []
        self.addrs: List[Tuple[str, int]] = []

    # -- set-up -----------------------------------------------------------------

    def _tasks(self, runs: int, seed) -> List:
        from repro.adversaries import strategy_space_for_protocol
        from repro.cli import _protocol_registry
        from repro.runtime import ExecutionTask

        registry = _protocol_registry(2)
        return [
            ExecutionTask(registry[name], factory, runs, seed=(seed, name, i))
            for name in PROTOCOLS
            for i, factory in enumerate(
                strategy_space_for_protocol(registry[name])
            )
        ]

    def setup(self, in_process_workers: bool = False) -> None:
        from repro.runtime import SerialRunner, plan_chunks

        WORK_DIR.mkdir(exist_ok=True)
        self.tasks = self._tasks(RUNS_PER_TASK, self.seed)
        self.n_runs = sum(t.n_runs for t in self.tasks)
        self.n_chunks = sum(
            len(plan_chunks(t.n_runs, CHUNK_SIZE)) for t in self.tasks
        )
        self.in_process = in_process_workers
        if not in_process_workers:
            for _ in range(nproc()):
                proc, hello = spawn_announcing(
                    ["worker", "--listen", "127.0.0.1:0"]
                )
                self.workers.append(proc)
                self.addrs.append((hello["host"], hello["port"]))
        # Warm-up on other inputs: one run per task, serial and remote.
        warm = self._tasks(1, ("warm-up", self.seed))
        SerialRunner(chunk_size=CHUNK_SIZE).run(warm)
        self._distributed(warm)

    def teardown(self) -> None:
        for proc in self.workers:
            stop(proc)
        self.workers, self.addrs = [], []

    # -- passes -----------------------------------------------------------------

    def _distributed(self, tasks):
        from repro.runtime import DistributedRunner
        from repro.runtime.distributed import WorkerServer

        if not self.in_process:
            runner = DistributedRunner(self.addrs, chunk_size=CHUNK_SIZE)
            return runner.run(tasks), runner.last_stats
        servers, threads = [], []
        for _ in range(nproc()):
            server = WorkerServer("127.0.0.1", 0)
            server.bind()
            thread = threading.Thread(
                target=server.serve_forever, kwargs={"once": True},
                daemon=True,
            )
            thread.start()
            servers.append(server)
            threads.append(thread)
        try:
            runner = DistributedRunner(
                [("127.0.0.1", s.port) for s in servers], chunk_size=CHUNK_SIZE
            )
            return runner.run(tasks), runner.last_stats
        finally:
            for thread in threads:
                thread.join(30)

    def cycle(self) -> Tuple[Dict[str, float], Dict[str, float], int, Dict[str, int]]:
        """One cycle of the six passes: ``(wall seconds per pass,
        reference seconds per pass, failed passes, bytes the record pass
        stored)``.  Serial passes take host-speed samples inside them
        (``clock.Sampled``); the pool and distributed passes run in other
        processes, so they are scaled by the mean of the serial passes'
        samples of the same cycle."""
        from repro.runtime import (
            ChunkCache,
            ProcessPoolRunner,
            RunJournal,
            SerialRunner,
        )

        tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
        cache_dir, journal_dir = tmp / "cache", tmp / "journal"
        walls: Dict[str, List[float]] = {p: [] for p in PASSES}
        refs: Dict[str, List[float]] = {p: [] for p in PASSES}
        rounds: List[float] = []
        failed = 0

        def timed(label, build, check=None, serial=True):
            nonlocal failed
            if serial:
                with clock.Sampled() as sampled:
                    runner = build()
                    values = runner.run(self.tasks)
                walls[label].append(sampled.wall)
                refs[label].append(sampled.reference_s)
                rounds.extend(sampled.rounds)
            else:
                t0 = time.perf_counter()
                runner = build()
                values = runner.run(self.tasks)
                walls[label].append(time.perf_counter() - t0)
                refs[label].append(walls[label][-1] * clock.scale(rounds))
            stats = runner.last_stats
            if label == "plain":
                self.vectorized_share = stats.vectorized_runs / stats.executions
            bad = stats.backend != runner.backend
            if label != "plain":
                bad = bad or gates.counts_gate(plain, values) > 0
            if check is not None:
                bad = bad or check(stats) > 0
            failed += int(bad)
            return values

        try:
            plain = timed("plain", lambda: SerialRunner(chunk_size=CHUNK_SIZE))
            timed(
                "record",
                lambda: SerialRunner(
                    chunk_size=CHUNK_SIZE, cache=ChunkCache(cache_dir),
                    journal=RunJournal(journal_dir),
                ),
                lambda s: int(
                    s.cache_stores != self.n_chunks
                    or s.journal_appended_chunks != self.n_chunks
                ),
            )
            stored = {
                "cache": _dir_bytes(cache_dir),
                "journal": _dir_bytes(journal_dir),
            }
            for _ in range(READ_REPEATS):
                timed(
                    "cache_hit",
                    lambda: SerialRunner(
                        chunk_size=CHUNK_SIZE, cache=ChunkCache(cache_dir)
                    ),
                    lambda s: gates.read_pass_gate(s, self.n_chunks, "cache"),
                )
                timed(
                    "resume",
                    lambda: SerialRunner(
                        chunk_size=CHUNK_SIZE,
                        journal=RunJournal(journal_dir, resume=True),
                    ),
                    lambda s: gates.read_pass_gate(s, self.n_chunks, "journal"),
                )
            timed(
                "pool",
                lambda: ProcessPoolRunner(nproc(), chunk_size=CHUNK_SIZE),
                serial=False,
            )
            t0 = time.perf_counter()
            values, stats = self._distributed(self.tasks)
            walls["distributed"].append(time.perf_counter() - t0)
            refs["distributed"].append(
                walls["distributed"][-1] * clock.scale(rounds)
            )
            failed += int(
                stats.backend != "distributed"
                or gates.counts_gate(plain, values) > 0
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        # The read passes are short, so each is the median of its repeats.
        return (
            {p: median(v) for p, v in walls.items()},
            {p: median(v) for p, v in refs.items()},
            failed, stored,
        )

    # -- measuring --------------------------------------------------------------

    def measure(self, seconds: float) -> Result:
        try:
            self.setup()
            setup = setup_samples(NAME, self.seed)
            cycles = [value for _, value in timed_loop(seconds, self.cycle)]
        finally:
            self.teardown()
        walls = {p: [c[0][p] for c in cycles] for p in PASSES}
        refs = {p: [c[1][p] for c in cycles] for p in PASSES}
        metrics = e2e(
            setup,
            # The pool pass is scaled by its cycle's serial-pass rounds.
            median([c[1]["pool"] / c[0]["pool"] for c in cycles]),
            [sum(c[1][p] for p in TIMED_PASSES) * 1000.0 for c in cycles],
            [self.n_runs / r for r in refs["plain"]],
            peak_rss_mb(),
        )
        lines = [
            f"batch: {len(self.tasks)} tasks x {RUNS_PER_TASK} runs, chunk "
            f"{CHUNK_SIZE} -> {self.n_chunks} chunks; {len(cycles)} cycles, "
            f"read passes x{READ_REPEATS} per cycle; vectorized share "
            f"{self.vectorized_share:.3f}",
        ]
        lines += [
            f"{'wall' if p == 'plain' else p}_s: {median(refs[p]):.4f} s "
            f"(wall {median(walls[p]):.4f} s)"
            for p in PASSES
        ]
        failed = sum(c[2] for c in cycles)
        attempted = len(cycles) * (len(PASSES) + 2 * (READ_REPEATS - 1))
        return Result(metrics, attempted=attempted, failed=failed, lines=lines)

    def measure_traced(self, seconds: float) -> Result:
        self.setup(in_process_workers=True)
        uwalls, _, failed, _ = self.cycle()
        tracer, _, (twalls, _, tfailed, stored) = traced(self.cycle)
        extra = {"cache.bytes": stored["cache"], "journal.bytes": stored["journal"]}
        attempted = 2 * (len(PASSES) + 2 * (READ_REPEATS - 1))
        result = layer_result(
            NAME, tracer, sum(twalls.values()), sum(uwalls.values()), extra,
            attempted, failed + tfailed, basis="sum of pass wall times",
        )
        result.lines.insert(0, "traced pass walls: " + ", ".join(
            f"{p}={twalls[p]:.3f}s" for p in PASSES
        ))
        return result
