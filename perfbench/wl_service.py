"""``service-open-loop``: independent users of ``repro serve``.

``repro serve --listen 127.0.0.1:0`` runs as a subprocess (in-process, as
a ``ServiceServer`` thread, in a traced run).  One client process sends
seed-generated ``estimate_utility`` requests on cheap 2-party protocols,
plus a small share of ``sweep_strategies``, at each rate of a fixed
ladder; a fixed share repeats an earlier request of the same step (the
server must dedupe it), and requests rotate over a fixed set of
``X-Repro-Tenant`` ids.  Latency runs from when a request was due to
when its result arrived.  The server is stopped with the
``service.shutdown`` RPC (drain), outside the timed steps, and a lost
response to it is counted, not hidden.
"""

from __future__ import annotations

import json
import random
import subprocess
import threading
from typing import Dict, List, Tuple

import clock
import gates
import loadgen
from common import peak_rss_mb, spawn_announcing, stop
from stats import backlog_grows, latencies, max_backlog, median, send_lag, tail
from workload import Result, e2e, layer_result, setup_samples, traced

NAME = "service-open-loop"

PROTOCOLS = ("opt-2sfe", "single-round", "gradual-release", "pi1", "pi2")
RUNS = 16
SWEEP_PROTOCOL = "pi1"
SWEEP_RUNS = 4
SWEEP_SHARE = 0.05
REPEAT_SHARE = 0.2
TENANTS = 8
#: Offered load per step, requests per second, and each step's share of
#: the run's seconds.  The middle rate is the nominal one.
LADDER = (4.0, 8.0, 16.0)
STEP_SHARES = (0.2, 0.6, 0.2)
NOMINAL = 8.0
#: A step meets the limit when its tail latency is at most this.
LATENCY_LIMIT_MS = 250.0


def _key(method: str, params: dict) -> str:
    return method + ":" + json.dumps(params, sort_keys=True)


class ServiceOpenLoop:
    name = NAME

    def __init__(self, seed: int):
        self.seed = seed
        self.proc = None
        self.server = None
        self.shutdown_lost = 0

    # -- inputs -------------------------------------------------------------------

    def _spaces(self) -> Dict[str, list]:
        from repro.adversaries import strategy_space_for_protocol
        from repro.cli import _protocol_registry

        registry = _protocol_registry(2)
        return {
            name: [f.name for f in strategy_space_for_protocol(registry[name])]
            for name in PROTOCOLS
        }

    def _pairs(self) -> List[Tuple[str, str]]:
        """Every (protocol, strategy) pair, the protocols interleaved."""
        longest = max(len(space) for space in self.spaces.values())
        return [
            (p, self.spaces[p][j])
            for j in range(longest) for p in PROTOCOLS
            if j < len(self.spaces[p])
        ]

    def plan(self, ladder: int, step: int, n: int) -> List[loadgen.Planned]:
        """The requests of one ladder step, from the seed.

        The mix is fixed: fresh estimates walk one rotation over every
        (protocol, strategy) pair, so each step's composition depends on
        its size only; the seed sets the Monte-Carlo seeds, the order,
        which requests repeat, and the tenant rotation.  ``ladder``
        numbers the ladders of one run, so no two share a request."""
        rng = random.Random(f"{self.seed}:{ladder}:{step}")
        tenants = [f"tenant-{i}" for i in range(TENANTS)]
        rng.shuffle(tenants)
        n_repeat = round(n * REPEAT_SHARE)
        n_sweep = round(n * SWEEP_SHARE)
        fresh: List[Tuple[str, dict]] = []
        for k in range(n - n_repeat - n_sweep):
            protocol, strategy = self.pairs[k % len(self.pairs)]
            fresh.append(("estimate_utility", {
                "protocol": protocol, "strategy": strategy, "runs": RUNS,
                "seed": [self.seed, ladder, step, k],
            }))
        for k in range(n_sweep):
            fresh.append(("sweep_strategies", {
                "protocol": SWEEP_PROTOCOL, "runs": SWEEP_RUNS,
                "seed": [self.seed, ladder, step, "sweep", k],
            }))
        rng.shuffle(fresh)
        repeat_at = set(rng.sample(range(1, n), n_repeat))
        plan, sent = [], []
        for i in range(n):
            if i in repeat_at:
                method, params = rng.choice(sent)
                repeat = True
            else:
                method, params = fresh.pop()
                sent.append((method, params))
                repeat = False
            plan.append(loadgen.Planned(
                method, params, tenants[i % TENANTS], _key(method, params), repeat,
            ))
        return plan

    def expected(self, plans: List[List[loadgen.Planned]]) -> Dict[str, dict]:
        """In-process payloads for every distinct request, computed with
        the library entry points on a fresh serial runner."""
        from repro.adversaries import strategy_space_for_protocol
        from repro.analysis import assess_protocol, estimate_utility
        from repro.analysis.export import (
            assessment_to_dict,
            deterministic_payload,
            estimate_to_dict,
        )
        from repro.cli import _protocol_registry
        from repro.core.payoff import PayoffVector
        from repro.runtime import SerialRunner
        from repro.service.canonical import canonicalize

        registry = _protocol_registry(2)
        out = {}
        for planned in (p for plan in plans for p in plan if not p.repeat):
            canon = canonicalize(planned.method, planned.params)
            protocol = registry[canon["protocol"]]
            space = strategy_space_for_protocol(protocol)
            gamma = PayoffVector(*canon["gamma"])
            if planned.method == "estimate_utility":
                factory = next(f for f in space if f.name == canon["strategy"])
                artifact = estimate_to_dict(estimate_utility(
                    protocol, factory, gamma, n_runs=canon["runs"],
                    seed=canon["seed"], runner=SerialRunner(),
                ))
            else:
                artifact = assessment_to_dict(assess_protocol(
                    protocol, space, gamma, canon["runs"],
                    seed=canon["seed"], runner=SerialRunner(),
                ))
            out[planned.key] = deterministic_payload(artifact)
        return out

    # -- set-up -------------------------------------------------------------------

    def setup(self, in_process: bool = False) -> None:
        self.spaces = self._spaces()
        self.pairs = self._pairs()
        if in_process:
            from repro.service.server import ServiceServer

            self.server = ServiceServer("127.0.0.1", 0)
            self.port = self.server.bind()
            self.host = "127.0.0.1"
            self.thread = threading.Thread(
                target=self.server.serve_forever, daemon=True
            )
            self.thread.start()
        else:
            self.proc, hello = spawn_announcing(
                ["serve", "--listen", "127.0.0.1:0"]
            )
            self.host, self.port = hello["host"], hello["port"]
        # Warm-up, closed loop, on other seeds: every protocol once.
        warm = [
            loadgen.Planned("estimate_utility", {
                "protocol": p, "strategy": self.spaces[p][0], "runs": 2,
                "seed": ["warm-up", self.seed],
            }, "warm-up", f"warm-up-{p}")
            for p in PROTOCOLS
        ]
        for planned in warm:
            outcome = loadgen.run_step(self.host, self.port, [planned], 1.0)[0]
            if outcome.error is not None:
                raise RuntimeError(f"warm-up request failed: {outcome.error}")

    def teardown(self) -> None:
        if self.proc is None and self.server is None:
            return
        if not loadgen.shutdown(self.host, self.port):
            self.shutdown_lost += 1
        if self.proc is not None:
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                pass  # stop() below kills it
            stop(self.proc)
            self.proc = None
        if self.server is not None:
            self.thread.join(30)
            self.server.shutdown()
            self.server = None

    def counters(self) -> dict:
        client = loadgen.RpcClient(self.host, self.port)
        try:
            stats, error = client.call("service.stats", {}, "perfbench")
        finally:
            client.close()
        if error is not None:
            raise RuntimeError(f"service.stats failed: {error}")
        return stats

    # -- the ladder ---------------------------------------------------------------

    def ladder(self, seconds: float, ladder: int = 0):
        """Run the rate ladder: ``(plans, outcomes, calibration samples)``,
        one of each per step."""
        plans, steps, samples = [], [], []
        for step, (rate, share) in enumerate(zip(LADDER, STEP_SHARES)):
            # At least 20 requests, so even the shortest step has a tail.
            plan = self.plan(ladder, step, max(20, round(rate * seconds * share)))
            plans.append(plan)
            samples.append([])
            steps.append(loadgen.run_step(
                self.host, self.port, plan, rate, samples=samples[-1]
            ))
        return plans, steps, samples

    def judge(self, plans, steps, samples, before: dict, after: dict) -> Tuple[int, int, List[str], dict]:
        """Gate and summarize one ladder: ``(attempted, failed, lines,
        figures)``.  A step's latencies are scaled to reference seconds
        by the mean of the calibration rounds the client timed in the
        step's idle gaps (scaling each request by the rounds nearest to
        it tracks the host worse: the server runs on whichever CPU is
        free, and each CPU changes speed on its own); the rates are
        not scaled."""
        outcomes = [o for step in steps for o in step]
        repeats = sum(1 for o in outcomes if o.planned.repeat)
        results = {o.planned.key: o.payload for o in outcomes if o.request.ok}
        failed = sum(1 for o in outcomes if not o.request.ok)
        failed += gates.service_gate(
            results, self.expected(plans),
            after["dedup_hits"] - before["dedup_hits"], repeats,
        )
        lines, figures = [], {"max_rate": 0.0, "lag_ms": 0.0, "backlog": 0}
        for rate, step, step_samples in zip(LADDER, steps, samples):
            reqs = [o.request for o in step]
            step_scale = clock.scale(step_samples, clock.REFERENCE_CACHED_S)
            lat_ms = [x * 1000.0 * step_scale for x in latencies(reqs)]
            p50 = median(lat_ms)
            tail_pct, tail_ms, n = tail(lat_ms) or (None, float("nan"), len(lat_ms))
            done = [r.done for r in reqs if r.ok]
            span = max(done) - reqs[0].due
            jobs_per_s = len(done) / span
            runs = sum(
                (RUNS if o.planned.method == "estimate_utility"
                 else SWEEP_RUNS * len(self.spaces[SWEEP_PROTOCOL]))
                for o in step if o.request.ok and not o.planned.repeat
            )
            grows = backlog_grows(reqs)
            # Without a tail (too few samples) the limit applies to all.
            limited = tail_ms if tail_pct else max(lat_ms)
            meets = (
                limited <= LATENCY_LIMIT_MS and not grows
                and all(r.ok for r in reqs)
            )
            if meets:
                figures["max_rate"] = max(figures["max_rate"], rate)
            lag = max(send_lag(reqs)) * 1000.0
            backlog = max_backlog(reqs)
            figures["lag_ms"] = max(figures["lag_ms"], lag)
            figures["backlog"] = max(figures["backlog"], backlog)
            if rate == NOMINAL:
                figures["p50_ms"] = p50
                figures["tail"] = (tail_pct, tail_ms, n)
            if rate == LADDER[-1]:
                figures["jobs_per_s"] = jobs_per_s
                figures["runs_per_s"] = runs / span
            lines.append(
                f"  rate {rate:>5.1f}/s  n={n:<4} p50={p50:8.2f} ms  "
                + (f"p{tail_pct:g}={tail_ms:8.2f} ms  " if tail_pct else
                   "tail n/a (< 11 samples)  ")
                + f"jobs/s={jobs_per_s:6.2f}  "
                f"lag max={lag:7.2f} ms  backlog max={backlog:<3}"
                f"{' growing' if grows else ''}  "
                f"{'meets' if meets else 'misses'} {LATENCY_LIMIT_MS:g} ms  "
                f"(reference ms = wall ms x {step_scale:.3f})"
            )
        lines.append(
            f"dedup hits {after['dedup_hits'] - before['dedup_hits']} "
            f"(repeats sent {repeats}), rate-limited "
            f"{after['rate_limited'] - before['rate_limited']}, queue full "
            f"{after['queue_rejections'] - before['queue_rejections']}"
        )
        figures["service"] = {
            k: after[k] - before[k]
            for k in ("dedup_hits", "rate_limited", "queue_rejections")
        }
        return len(outcomes), failed, lines, figures

    # -- measuring ----------------------------------------------------------------

    def measure(self, seconds: float) -> Result:
        try:
            self.setup()
            setup = setup_samples(NAME, self.seed)
            before = self.counters()
            plans, steps, samples = self.ladder(seconds)
            after = self.counters()
        finally:
            self.teardown()
        attempted, failed, lines, fig = self.judge(
            plans, steps, samples, before, after
        )
        pct, tail_ms, n = fig["tail"]
        metrics = e2e(
            setup,
            clock.scale(
                [r for step in samples for r in step], clock.REFERENCE_CACHED_S
            ),
            [fig["p50_ms"]], [fig["runs_per_s"]], peak_rss_mb(),
        )
        lines = [
            f"ladder {LADDER} requests/s (nominal {NOMINAL:g}), "
            f"{TENANTS} tenants, {REPEAT_SHARE:.0%} repeats, "
            f"{SWEEP_SHARE:.0%} sweeps, latency limit {LATENCY_LIMIT_MS:g} ms",
            *lines,
            f"latency_p50_ms: {fig['p50_ms']:.3f} ms (nominal rate)",
            f"latency_tail_ms: {tail_ms:.3f} ms (p{pct:g} of {n} samples, "
            f"nominal rate)",
            f"jobs_per_s: {fig['jobs_per_s']:.3f} 1/s (top rate)",
            f"max_rate_jobs_per_s: {fig['max_rate']:g} 1/s",
            f"service.shutdown_lost: {self.shutdown_lost}",
        ]
        return Result(metrics, attempted=attempted, failed=failed, lines=lines)

    def measure_traced(self, seconds: float) -> Result:
        try:
            self.setup(in_process=True)
            before = self.counters()
            plans, steps, samples = self.ladder(seconds / 2)
            mid = self.counters()
            tracer, _, (tplans, tsteps, tsamples) = traced(
                lambda: self.ladder(seconds / 2, ladder=1)
            )
            after = self.counters()
        finally:
            self.teardown()
        a1, f1, _, fig = self.judge(plans, steps, samples, before, mid)
        a2, f2, lines, tfig = self.judge(tplans, tsteps, tsamples, mid, after)
        svc = tfig["service"]
        extra = {
            "service.dedup_hits": svc["dedup_hits"],
            "service.rate_limited": svc["rate_limited"],
            "service.queue_full": svc["queue_rejections"],
            "service.shutdown_lost": self.shutdown_lost,
            "loadgen.lag_ms": tfig["lag_ms"],
            "loadgen.backlog": tfig["backlog"],
        }
        # Open loop: the schedule fixes the wall time, so the overhead is
        # the ratio of median latencies at the nominal rate.
        result = layer_result(
            NAME, tracer, tfig["p50_ms"], fig["p50_ms"], extra, a1 + a2,
            f1 + f2, basis="median latency at the nominal rate, ms",
        )
        result.lines = lines + result.lines
        return result
