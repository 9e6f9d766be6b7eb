"""Open-loop JSON-RPC load generator for ``repro serve``.

One process, two threads, two keep-alive connections (no more than
``nproc`` on the hosts this benchmark targets): the *sender* submits each
request when it is due, whatever the server is doing; the *collector*
long-polls ``job.result`` for the submitted jobs in submission order.
So each request costs its tenant two RPCs (submit and one long poll, or
more polls if a poll times out), which keeps every tenant far under the
server's per-tenant token bucket.  A result that finished before an
earlier one is charged until the earlier one's result arrived — the
order a client needing results in order would see them.
"""

from __future__ import annotations

import http.client
import itertools
import json
import queue
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import clock as calibration
from stats import Request

#: Longest a single ``job.result`` long poll waits, seconds.
POLL_S = 30.0

#: Most host-speed calibration rounds the sender times in one idle gap.
GAP_ROUNDS = 3


class RpcClient:
    """A JSON-RPC 2.0 client on one keep-alive HTTP connection."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self._ids = itertools.count(1)

    def call(self, method: str, params: dict, tenant: str) -> Tuple[Optional[dict], Optional[dict]]:
        """``(result, error)`` of one call."""
        body = json.dumps({
            "jsonrpc": "2.0", "id": next(self._ids),
            "method": method, "params": params,
        })
        self.conn.request("POST", "/", body, {
            "Content-Type": "application/json", "X-Repro-Tenant": tenant,
        })
        reply = json.loads(self.conn.getresponse().read())
        return reply.get("result"), reply.get("error")

    def close(self) -> None:
        self.conn.close()


@dataclass(frozen=True)
class Planned:
    """One request of a step: what to send, as whom, and its identity
    (``key``) for the correctness gate."""

    method: str
    params: dict
    tenant: str
    key: str
    repeat: bool = False


@dataclass
class Outcome:
    request: Request
    planned: Planned
    payload: Optional[object] = None
    error: Optional[dict] = None


def run_step(host: str, port: int, plan: List[Planned], rate: float,
             clock=time.perf_counter,
             samples: Optional[List[float]] = None) -> List[Outcome]:
    """Send ``plan`` at ``rate`` requests per second; wait for every
    result.  Returns one outcome per planned request, in order.

    With a ``samples`` list, the sender also times a few host-speed
    calibration rounds (``calibration.calibrate``, in-cache half only)
    in each idle gap — no request outstanding and the next one not due
    for a while — and appends each round's seconds to it.  Nothing else
    runs then, so a round neither delays a send nor holds the
    interpreter lock the collector needs to time a result.  Only the
    in-cache half: between requests the server evicts the large half's
    table from the caches, so that half would time cold caches rather
    than the host (with it the nominal-rate medians of 10 seeds spread
    19%, against 6-11% without)."""
    sender, collector = RpcClient(host, port), RpcClient(host, port)
    submitted: "queue.Queue[Optional[Tuple[int, float, float, str]]]" = queue.Queue()
    outcomes: List[Optional[Outcome]] = [None] * len(plan)
    answered: List[int] = []  # appended by the collector, read by the sender
    progress = threading.Event()  # set by the collector on each result
    last_round = 0.005

    def idle_rounds(due: float, outstanding: int) -> None:
        """Before the send due at ``due``: wait for every outstanding
        result, then time up to :data:`GAP_ROUNDS` rounds, each only if
        it ends well before ``due``."""
        nonlocal last_round
        if samples is None:
            return
        while True:
            progress.clear()
            if due - clock() < 3 * last_round + 0.01:
                return
            if len(answered) >= outstanding:
                break
            progress.wait(due - clock() - (3 * last_round + 0.01))
        for _ in range(GAP_ROUNDS):
            if due - clock() < 3 * last_round + 0.01:
                return
            last_round = calibration.calibrate(cached_only=True)
            samples.append(last_round)

    def collect():
        while True:
            item = submitted.get()
            if item is None:
                return
            i, due, sent, job_id = item
            try:
                while True:
                    result, error = collector.call(
                        "job.result", {"job_id": job_id, "timeout_s": POLL_S},
                        plan[i].tenant,
                    )
                    if error is None or error.get("code") != -32002:
                        break
            except (http.client.HTTPException, OSError, ValueError) as exc:
                result, error = None, {"code": "transport", "message": str(exc)}
            done = clock()
            outcomes[i] = Outcome(
                Request(due, sent, done, ok=error is None), plan[i],
                payload=result.get("deterministic_payload") if result else None,
                error=error,
            )
            answered.append(i)
            progress.set()

    if samples is not None:
        calibration.calibrate(cached_only=True)  # warm-up, not kept
    thread = threading.Thread(target=collect, name="perfbench-collector")
    thread.start()
    try:
        t0 = clock() + 0.05
        outstanding = 0
        for i, planned in enumerate(plan):
            due = t0 + i / rate
            idle_rounds(due, outstanding)
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            sent = clock()
            try:
                result, error = sender.call(
                    planned.method, planned.params, planned.tenant
                )
            except (http.client.HTTPException, OSError, ValueError) as exc:
                result, error = None, {"code": "transport", "message": str(exc)}
            if error is not None:
                outcomes[i] = Outcome(
                    Request(due, sent, None, ok=False), planned, error=error
                )
                continue
            outstanding += 1
            submitted.put((i, due, sent, result["job_id"]))
    finally:
        submitted.put(None)
        thread.join()
        if samples is not None:
            samples.append(calibration.calibrate(cached_only=True))
        sender.close()
        collector.close()
    return outcomes


def shutdown(host: str, port: int) -> bool:
    """Ask the server to stop (drain).  ``False`` when the response to
    ``service.shutdown`` was lost — the race the benchmark keeps visible."""
    client = RpcClient(host, port, timeout=30.0)
    try:
        result, error = client.call("service.shutdown", {"drain": True}, "perfbench")
        return error is None and bool(result and result.get("stopping"))
    except (http.client.HTTPException, ConnectionError, OSError, ValueError):
        return False
    finally:
        client.close()
