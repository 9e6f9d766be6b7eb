"""The layer table: which public calls are wrapped, and how the traced
spans, leaf counters and returned ``RunStats`` become per-layer metrics.

Each :class:`~spans.Target` names the workloads on which it must fire;
a traced run fails when one of them stays silent.  The same map, with
the end-to-end metric each layer should move, is in ``spec.json``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from spans import (
    WAIT_LAYER,
    Target,
    Tracer,
    layer_self_times,
    name_self_times,
    name_totals,
)

VERIFY = "verify-small"
SWEEP = "sweep-reference"
CHUNKS = "chunk-store"
SERVICE = "service-open-loop"

RUNNER_SPAN = "runtime.batch"


def _on_claim(tracer: Tracer, args, kwargs, check, span):
    tracer.add("verify.claims")
    if not check.passed:
        tracer.add("verify.violated")


def _on_batch(tracer: Tracer, args, kwargs, result, span):
    # Only the outermost runner of a thread reports, so a fallback runner
    # inside another runner's batch is not counted twice.
    if all(open_.name != RUNNER_SPAN for open_ in tracer.open_spans()):
        stats = args[0].last_stats
        if stats is not None:
            with tracer.lock:
                tracer.run_stats.append(stats)


def _on_execution(tracer: Tracer, args, kwargs, result, span):
    tracer.add("engine.executions")
    tracer.add("engine.rounds", result.rounds_used)
    tracer.add("engine.messages", len(result.transcript))


def _on_kernel_for(tracer: Tracer, args, kwargs, kernel, span):
    if kernel is None:
        return None
    target = Target("vectorized.kernel", "vectorized", "")
    timed = tracer.span_wrapper(kernel, target)

    def counted(start, stop):
        tracer.add("vectorized.runs", stop - start)
        return timed(start, stop)

    return counted


def _on_cache_fetch(tracer: Tracer, args, kwargs, result, span):
    tracer.add("cache.hits" if result[0] else "cache.misses")


def _on_cache_store(tracer: Tracer, args, kwargs, result, span):
    tracer.add("cache.stores")


def _on_journal_record(tracer: Tracer, args, kwargs, appended, span):
    if appended:
        tracer.add("journal.appended")


def _on_journal_fetch(tracer: Tracer, args, kwargs, result, span):
    if result[0]:
        tracer.add("journal.replayed")


def _on_send_frame(tracer: Tracer, args, kwargs, result, span):
    body = json.dumps(args[1], separators=(",", ":")).encode("utf-8")
    tracer.add("distributed.frames")
    tracer.add("distributed.bytes", 4 + len(body))


def _on_submit(tracer: Tracer, args, kwargs, result, span):
    job, deduped = result
    if not deduped:
        with tracer.lock:
            tracer.submitted.setdefault(job.key, tracer.clock())


def _on_job(tracer: Tracer, args, kwargs, result, span):
    with tracer.lock:
        submitted = tracer.submitted.get(args[1].key)
    if submitted is not None:
        tracer.add("service.queue_wait_s", max(0.0, span.start - submitted))


def _prg_size(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs.get("n", 0))


def targets() -> List[Target]:
    """Every wrapped public call, with the workloads it must fire on."""
    everywhere = (VERIFY, SWEEP, CHUNKS, SERVICE)
    return [
        Target("verify.check_claim", "verify",
               "repro.verify.checker:check_claim",
               on_return=_on_claim, required_on=(VERIFY,)),
        Target("analysis.run_batch", "analysis",
               "repro.analysis.estimator:run_batch", required_on=(VERIFY,)),
        Target("analysis.sweep_strategies", "analysis",
               "repro.analysis.estimator:sweep_strategies",
               required_on=(VERIFY, SWEEP)),
        Target("analysis.estimate_from_counts", "analysis",
               "repro.core.utility:estimate_from_counts",
               required_on=(VERIFY, SWEEP)),
        Target("analysis.measure_cost", "analysis",
               "repro.analysis.complexity:measure_cost", required_on=(VERIFY,)),
        Target(RUNNER_SPAN, "runtime",
               "repro.runtime.runner:BatchRunner.run",
               on_return=_on_batch, required_on=everywhere),
        Target("runtime.plan_chunks", "runtime",
               "repro.runtime.tasks:plan_chunks", required_on=(CHUNKS,)),
        Target("runtime.merge_partials", "runtime",
               "repro.runtime.tasks:merge_partials", required_on=(CHUNKS,)),
        Target("runtime.run_task_chunk", "runtime",
               "repro.runtime.retry:run_task_chunk",
               required_on=everywhere),
        Target("cache.fetch", "cache", "repro.runtime.cache:ChunkCache.fetch",
               on_return=_on_cache_fetch, required_on=(CHUNKS,)),
        Target("cache.store", "cache", "repro.runtime.cache:ChunkCache.store",
               on_return=_on_cache_store, required_on=(CHUNKS,)),
        Target("journal.record", "journal",
               "repro.runtime.journal:RunJournal.record",
               on_return=_on_journal_record, required_on=(CHUNKS,)),
        Target("journal.fetch", "journal",
               "repro.runtime.journal:RunJournal.fetch",
               on_return=_on_journal_fetch, required_on=(CHUNKS,)),
        Target("vectorized.kernel_for", "vectorized",
               "repro.runtime.vectorized.registry:kernel_for",
               on_return=_on_kernel_for, required_on=(VERIFY, CHUNKS)),
        Target("distributed.send_frame", "distributed",
               "repro.runtime.distributed.wire:send_frame",
               on_return=_on_send_frame, required_on=(CHUNKS,)),
        Target("distributed.recv_frame", WAIT_LAYER,
               "repro.runtime.distributed.wire:recv_frame",
               required_on=(CHUNKS,)),
        Target("distributed.encode_task", "distributed",
               "repro.runtime.distributed.codec:encode_task",
               required_on=(CHUNKS,)),
        Target("distributed.decode_task", "distributed",
               "repro.runtime.distributed.codec:decode_task",
               required_on=(CHUNKS,)),
        Target("distributed.encode_partial", "distributed",
               "repro.runtime.distributed.wire:encode_partial",
               required_on=(CHUNKS,)),
        Target("distributed.decode_partial", "distributed",
               "repro.runtime.distributed.wire:decode_partial",
               required_on=(CHUNKS,)),
        Target("engine.run", "engine",
               "repro.engine.execution:Execution.run",
               on_return=_on_execution, required_on=everywhere),
        Target("adversaries.coalition_probe", "adversaries",
               "repro.adversaries.base:MachineDrivingAdversary.coalition_probe",
               required_on=(SWEEP,)),
        Target("adversaries.clone", "adversaries",
               "repro.engine.party:HonestRunner.clone", required_on=(SWEEP,)),
        Target("adversaries.simulate_silent_completion", "adversaries",
               "repro.engine.party:HonestRunner.simulate_silent_completion",
               required_on=(SWEEP,)),
        Target("crypto.prg_read", "crypto", "repro.crypto.prf:Prg.read",
               leaf=True, size=_prg_size, required_on=(SWEEP,)),
        Target("crypto.sig_gen", "crypto", "repro.crypto.signature:gen",
               leaf=True, required_on=(SWEEP,)),
        Target("crypto.sig_sign", "crypto", "repro.crypto.signature:sign",
               leaf=True, required_on=(SWEEP,)),
        Target("crypto.sig_ver", "crypto", "repro.crypto.signature:ver",
               leaf=True, required_on=(SWEEP,)),
        Target("crypto.mac_tag", "crypto", "repro.crypto.mac:tag",
               leaf=True, required_on=(SWEEP,)),
        Target("crypto.mac_verify", "crypto", "repro.crypto.mac:verify",
               leaf=True, required_on=(SWEEP,)),
        Target("crypto.commit", "crypto", "repro.crypto.commitment:commit",
               leaf=True, required_on=(CHUNKS,)),
        Target("crypto.open_commitment", "crypto",
               "repro.crypto.commitment:open_commitment",
               leaf=True, required_on=(CHUNKS,)),
        Target("core.classify", "core", "repro.core.events:classify",
               required_on=(SWEEP,)),
        Target("service.handle_rpc", "service",
               "repro.service.server:ServiceServer.handle_rpc",
               required_on=(SERVICE,)),
        Target("service.do_post", "service",
               "repro.service.server:_Handler.do_POST",
               required_on=(SERVICE,)),
        Target("service.result_wait", WAIT_LAYER,
               "repro.service.server:ServiceServer._result",
               required_on=(SERVICE,)),
        Target("service.canonicalize", "service",
               "repro.service.canonical:canonicalize", required_on=(SERVICE,)),
        Target("service.job_key", "service",
               "repro.service.canonical:job_key_canonical",
               required_on=(SERVICE,)),
        Target("service.submit", "service",
               "repro.service.jobs:JobPool.submit",
               on_return=_on_submit, required_on=(SERVICE,)),
        Target("service.job", "service", "repro.service.jobs:JobPool._run",
               on_return=_on_job, required_on=(SERVICE,)),
        Target("service.run_method", "service",
               "repro.service.methods:run_method", required_on=(SERVICE,)),
    ]


#: Every per-layer metric: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("verify.claims", "count", "higher"),
    ("verify.violated", "count", "lower"),
    ("verify.self_s", "s", "lower"),
    ("analysis.batches", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("runtime.batches", "count", "lower"),
    ("runtime.chunks", "count", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("runtime.plan_s", "s", "lower"),
    ("runtime.merge_s", "s", "lower"),
    ("runtime.chunk_self_s", "s", "lower"),
    ("retry.attempts", "count", "lower"),
    ("retry.retries", "count", "lower"),
    ("retry.timeouts", "count", "lower"),
    ("retry.serial_replays", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.fetch_s", "s", "lower"),
    ("cache.store_s", "s", "lower"),
    ("cache.bytes", "B", "lower"),
    ("journal.appended", "count", "lower"),
    ("journal.replayed", "count", "higher"),
    ("journal.record_s", "s", "lower"),
    ("journal.fetch_s", "s", "lower"),
    ("journal.bytes", "B", "lower"),
    ("vectorized.runs", "count", "higher"),
    ("vectorized.share", "ratio", "higher"),
    ("vectorized.kernel_s", "s", "lower"),
    ("distributed.frames", "count", "lower"),
    ("distributed.bytes", "B", "lower"),
    ("distributed.codec_s", "s", "lower"),
    ("distributed.wait_s", "s", "lower"),
    ("distributed.worker_deaths", "count", "lower"),
    ("engine.executions", "count", "lower"),
    ("engine.rounds", "count", "lower"),
    ("engine.messages", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("adversaries.probes", "count", "lower"),
    ("adversaries.clones", "count", "lower"),
    ("adversaries.probe_s", "s", "lower"),
    ("crypto.prg_calls", "count", "lower"),
    ("crypto.prg_bytes", "B", "lower"),
    ("crypto.prg_s", "s", "lower"),
    ("crypto.sig_calls", "count", "lower"),
    ("crypto.sig_s", "s", "lower"),
    ("crypto.mac_calls", "count", "lower"),
    ("crypto.mac_s", "s", "lower"),
    ("crypto.commit_s", "s", "lower"),
    ("core.classified", "count", "lower"),
    ("core.classify_s", "s", "lower"),
    ("setup.memo_hits", "count", "higher"),
    ("setup.memo_misses", "count", "lower"),
    ("setup.phase_s", "s", "lower"),
    ("service.requests", "count", "lower"),
    ("service.canonicalize_s", "s", "lower"),
    ("service.key_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.http_s", "s", "lower"),
    ("service.dedup_hits", "count", "higher"),
    ("service.rate_limited", "count", "lower"),
    ("service.queue_full", "count", "lower"),
    ("service.shutdown_lost", "count", "lower"),
    ("loadgen.lag_ms", "ms", "lower"),
    ("loadgen.backlog", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

#: The layers whose self times the traced run prints and sums.
LAYERS = (
    "verify", "analysis", "runtime", "cache", "journal", "vectorized",
    "distributed", "engine", "adversaries", "crypto", "core", "service",
)


def per_layer(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Fold one traced operation into the :data:`PER_LAYER` metrics.

    ``extra`` supplies what the trace cannot see: on-disk bytes, the
    service pool's counters, the load generator's lag and backlog, the
    shutdown count and the tracing overhead."""
    spans = tracer.spans()
    selfs = name_self_times(spans)
    totals = name_totals(spans)
    counts = dict(tracer.counters)
    calls = tracer.calls()
    leaves = tracer.leaves()
    stats = tracer.run_stats

    def leaf(*names):
        return (
            sum(leaves.get(n, (0, 0.0, 0))[0] for n in names),
            sum(leaves.get(n, (0, 0.0, 0))[1] for n in names),
        )

    layer_s = layer_self_times(spans, tracer.leaf_layer_s())
    executions = sum(s.executions for s in stats)
    vec_runs = sum(s.vectorized_runs for s in stats)
    prg_calls, prg_s = leaf("crypto.prg_read")
    sig_calls, sig_s = leaf("crypto.sig_gen", "crypto.sig_sign", "crypto.sig_ver")
    mac_calls, mac_s = leaf("crypto.mac_tag", "crypto.mac_verify")
    _, commit_s = leaf("crypto.commit", "crypto.open_commitment")
    codec = (
        "distributed.encode_task", "distributed.decode_task",
        "distributed.encode_partial", "distributed.decode_partial",
    )
    out = {
        "verify.claims": counts.get("verify.claims", 0),
        "verify.violated": counts.get("verify.violated", 0),
        "verify.self_s": selfs.get("verify.check_claim", 0.0),
        "analysis.batches": calls.get("analysis.run_batch", 0)
        + calls.get("analysis.sweep_strategies", 0),
        "analysis.self_s": layer_s.get("analysis", 0.0),
        "runtime.batches": len(stats),
        "runtime.chunks": sum(s.n_chunks for s in stats),
        "runtime.self_s": selfs.get(RUNNER_SPAN, 0.0),
        "runtime.plan_s": totals.get("runtime.plan_chunks", 0.0),
        "runtime.merge_s": totals.get("runtime.merge_partials", 0.0),
        "runtime.chunk_self_s": selfs.get("runtime.run_task_chunk", 0.0),
        "retry.attempts": sum(c.attempts for s in stats for c in s.chunks),
        "retry.retries": sum(s.retries for s in stats),
        "retry.timeouts": sum(s.timeouts for s in stats),
        "retry.serial_replays": sum(s.serial_replays for s in stats),
        "cache.hits": counts.get("cache.hits", 0),
        "cache.misses": counts.get("cache.misses", 0),
        "cache.stores": counts.get("cache.stores", 0),
        "cache.fetch_s": totals.get("cache.fetch", 0.0),
        "cache.store_s": totals.get("cache.store", 0.0),
        "journal.appended": counts.get("journal.appended", 0),
        "journal.replayed": counts.get("journal.replayed", 0),
        "journal.record_s": totals.get("journal.record", 0.0),
        "journal.fetch_s": totals.get("journal.fetch", 0.0),
        "vectorized.runs": counts.get("vectorized.runs", 0),
        "vectorized.share": vec_runs / executions if executions else 0.0,
        "vectorized.kernel_s": totals.get("vectorized.kernel", 0.0),
        "distributed.frames": counts.get("distributed.frames", 0),
        "distributed.bytes": counts.get("distributed.bytes", 0),
        "distributed.codec_s": sum(totals.get(n, 0.0) for n in codec),
        "distributed.wait_s": totals.get("distributed.recv_frame", 0.0),
        "distributed.worker_deaths": sum(s.worker_deaths for s in stats),
        "engine.executions": counts.get("engine.executions", 0),
        "engine.rounds": counts.get("engine.rounds", 0),
        "engine.messages": counts.get("engine.messages", 0),
        "engine.self_s": selfs.get("engine.run", 0.0),
        "adversaries.probes": calls.get("adversaries.coalition_probe", 0),
        "adversaries.clones": calls.get("adversaries.clone", 0),
        "adversaries.probe_s": totals.get("adversaries.coalition_probe", 0.0),
        "crypto.prg_calls": prg_calls,
        "crypto.prg_bytes": leaves.get("crypto.prg_read", (0, 0.0, 0))[2],
        "crypto.prg_s": prg_s,
        "crypto.sig_calls": sig_calls,
        "crypto.sig_s": sig_s,
        "crypto.mac_calls": mac_calls,
        "crypto.mac_s": mac_s,
        "crypto.commit_s": commit_s,
        "core.classified": calls.get("core.classify", 0),
        "core.classify_s": totals.get("core.classify", 0.0),
        "setup.memo_hits": sum(s.memo_hits for s in stats),
        "setup.memo_misses": sum(s.memo_misses for s in stats),
        "setup.phase_s": sum(s.setup_s for s in stats),
        "service.requests": calls.get("service.handle_rpc", 0),
        "service.canonicalize_s": totals.get("service.canonicalize", 0.0),
        "service.key_s": totals.get("service.job_key", 0.0),
        "service.queue_wait_s": counts.get("service.queue_wait_s", 0.0),
        "service.run_s": totals.get("service.run_method", 0.0),
        "service.http_s": selfs.get("service.do_post", 0.0),
    }
    for name, _, _ in PER_LAYER:
        out.setdefault(name, 0)
    out.update(extra)
    return out


def layer_table(tracer: Tracer) -> Dict[str, float]:
    """Self time per layer, every layer listed."""
    layer_s = layer_self_times(tracer.spans(), tracer.leaf_layer_s())
    return {layer: layer_s.get(layer, 0.0) for layer in LAYERS}
