"""Tests of the benchmark itself: statistics, the span fold, open-loop
accounting, the correctness gates and the wrapper machinery.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import clock
import gates
import layers
import loadgen
import run
from common import SetupError, check_environment
from spans import Span, Target, Tracer, layer_self_times, self_times, thread_budget_ok
from stats import Request, backlog_grows, latencies, send_lag, tail

ROOT = Path(__file__).resolve().parents[2]


# -- tail percentile -------------------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    # 100 samples: p90 has exactly 10 beyond it, p95 only 5.
    values = list(range(1, 101))
    assert tail(values) == (90.0, 90, 100)
    # 60 samples: p90 leaves 6 beyond, p75 leaves 15.
    assert tail(list(range(60)))[0] == 75.0
    # 1000 samples: p99 leaves 10 beyond.
    assert tail(list(range(1000)))[0] == 99.0


def test_tail_absent_when_too_few_samples():
    assert tail(list(range(15))) is None


def test_tail_counts_failures_as_late():
    values = [1.0] * 89 + [math.inf] * 11
    pct, value, _ = tail(values)
    assert pct == 90.0 and value == math.inf


# -- self-time fold --------------------------------------------------------------


def _span(sid, start, end, parent=None, layer="a", leaf_s=0.0, thread=1):
    return Span(sid, f"s{sid}", layer, start, parent, 1, thread, end, leaf_s)


def test_self_time_subtracts_children_and_leaves():
    spans = [
        _span(1, 0.0, 10.0, layer="runtime"),
        _span(2, 1.0, 4.0, parent=1, layer="engine", leaf_s=1.0),
        _span(3, 5.0, 6.0, parent=1, layer="engine"),
        _span(4, 2.0, 3.0, parent=2, layer="crypto"),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 6.0, 2: 1.0, 3: 1.0, 4: 1.0}
    per_layer = layer_self_times(spans, {1: {"crypto": 1.0}})
    assert per_layer == {"runtime": 6.0, "engine": 2.0, "crypto": 2.0}
    assert sum(per_layer.values()) == 10.0
    assert thread_budget_ok(spans, {1: {"crypto": 1.0}})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 5.0, parent=1),
        _span(3, 3.0, 7.0, parent=1),
    ]
    assert self_times(spans)[1] == 4.0


def test_budget_check_catches_double_counting():
    # A leaf total larger than the thread's spans is an overcount.
    spans = [_span(1, 0.0, 1.0)]
    assert not thread_budget_ok(spans, {1: {"crypto": 2.0}})


def test_wait_spans_belong_to_no_layer():
    spans = [_span(1, 0.0, 4.0, layer="runtime"),
             _span(2, 1.0, 3.0, parent=1, layer="wait")]
    assert layer_self_times(spans, {}) == {"runtime": 2.0}


# -- open-loop accounting --------------------------------------------------------


def test_latency_runs_from_due_time():
    # The server stalls until t=1.0; the client could only send each
    # request once the stalled call returned, but the wait counts.
    reqs = [Request(due=0.1 * i, sent=1.0, done=1.0 + 0.01 * i) for i in range(5)]
    assert latencies(reqs) == pytest.approx([1.0 + 0.01 * i - 0.1 * i for i in range(5)])
    assert send_lag(reqs) == pytest.approx([1.0 - 0.1 * i for i in range(5)])
    failed = Request(due=0.0, sent=0.0, done=None, ok=False)
    assert latencies([failed]) == [math.inf]


def test_backlog_growth():
    steady = [Request(i * 0.1, i * 0.1, i * 0.1 + 0.05) for i in range(20)]
    assert not backlog_grows(steady)
    falling_behind = [Request(i * 0.1, i * 0.1, 0.2 * i + 0.05) for i in range(20)]
    assert backlog_grows(falling_behind)


class _StallingRpc(BaseHTTPRequestHandler):
    """A stub service: submits return a job id at once, except that the
    first submit stalls for ``STALL_S``; every result is ready."""

    protocol_version = "HTTP/1.1"
    STALL_S = 0.5
    stalled = threading.Event()

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if body["method"] == "job.result":
            result = {"deterministic_payload": {"job": body["params"]["job_id"]}}
        else:
            if not self.stalled.is_set():
                self.stalled.set()
                threading.Event().wait(self.STALL_S)
            result = {"job_id": json.dumps(body["params"]), "deduped": False}
        data = json.dumps({"jsonrpc": "2.0", "id": body["id"], "result": result}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def test_stalled_server_charges_requests_queued_behind_it():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingRpc)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        plan = [
            loadgen.Planned("estimate_utility", {"k": i}, "t", str(i))
            for i in range(5)
        ]
        outcomes = loadgen.run_step("127.0.0.1", server.server_address[1], plan, rate=20.0)
    finally:
        server.shutdown()
        server.server_close()
    reqs = [o.request for o in outcomes]
    lat = latencies(reqs)
    # Requests 1..4 were due 50..200 ms after the first, but could not be
    # sent before the 0.5 s stall ended: each is charged the stall.
    for i in range(1, 5):
        assert reqs[i].sent - reqs[i].due > _StallingRpc.STALL_S - 0.05 * i - 0.05
        assert lat[i] >= _StallingRpc.STALL_S - 0.05 * i - 0.01
    assert all(o.payload == {"job": json.dumps({"k": i})} for i, o in enumerate(outcomes))


def test_sender_times_calibration_rounds_without_delaying_sends():
    _StallingRpc.stalled.set()  # no stall: every gap is idle
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingRpc)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    samples = []
    try:
        plan = [
            loadgen.Planned("estimate_utility", {"k": i}, "t", str(i))
            for i in range(4)
        ]
        outcomes = loadgen.run_step(
            "127.0.0.1", server.server_address[1], plan, rate=5.0,
            samples=samples,
        )
    finally:
        server.shutdown()
        server.server_close()
    reqs = [o.request for o in outcomes]
    assert all(r.ok for r in reqs)
    # Rounds in the 200-ms gaps and one after the step, none late.
    assert len(samples) >= 4 and all(s > 0 for s in samples)
    assert max(send_lag(reqs)) < 0.03


# -- correctness gates -----------------------------------------------------------


def test_verify_gate():
    good = [{"exit_code": 0, "payload_sha256": "a"}] * 3
    assert gates.verify_gate(good) == 0
    assert gates.verify_gate(good + [{"exit_code": 1, "payload_sha256": "a"}]) == 1
    assert gates.verify_gate(good + [{"exit_code": 0, "payload_sha256": "b"}]) == 1


def _counts(n_e11, corrupted=(0,)):
    from repro.core.events import FairnessEvent
    from repro.core.utility import EventCounts

    counts = EventCounts()
    for _ in range(n_e11):
        counts.record(list(FairnessEvent)[0], corrupted)
    return counts


def test_counts_gate():
    ref = [_counts(3), _counts(5)]
    assert gates.counts_gate(ref, [_counts(3), _counts(5)]) == 0
    assert gates.counts_gate(ref, [_counts(3), _counts(4)]) == 1
    assert gates.counts_gate(ref, [_counts(3), _counts(5, corrupted=(1,))]) == 1
    assert gates.counts_gate(ref, [_counts(3)]) == 2


class _Stats:
    def __init__(self, **kw):
        base = dict(
            cache_hits=8, cache_misses=0, cache_corrupt_entries=0,
            journal_replayed_chunks=8, journal_corrupt_records=0,
            journal_stale_records=0,
        )
        base.update(kw)
        self.__dict__.update(base)


def test_read_pass_gate():
    assert gates.read_pass_gate(_Stats(), 8, "cache") == 0
    assert gates.read_pass_gate(_Stats(), 8, "journal") == 0
    assert gates.read_pass_gate(_Stats(cache_hits=7, cache_misses=1), 8, "cache") == 1
    assert gates.read_pass_gate(_Stats(cache_corrupt_entries=1), 8, "cache") == 1
    assert gates.read_pass_gate(_Stats(journal_replayed_chunks=7), 8, "journal") == 1
    assert gates.read_pass_gate(_Stats(journal_stale_records=1), 8, "journal") == 1


def test_service_gate():
    expected = {"a": {"mean": 0.5}, "b": {"mean": 0.25}}
    assert gates.service_gate(dict(expected), expected, 2, 2) == 0
    assert gates.service_gate({"a": {"mean": 0.5}, "b": {"mean": 0.3}}, expected, 2, 2) == 1
    assert gates.service_gate({"a": {"mean": 0.5}, "b": None}, expected, 2, 2) == 1
    assert gates.service_gate(dict(expected), expected, 1, 2) == 1


# -- wrappers --------------------------------------------------------------------


def test_wrappers_reach_by_name_imports_and_uninstall():
    import repro.crypto.mac as mac
    import repro.protocols.gradual_release as gradual

    original = mac.tag
    assert gradual.tag is original
    tracer = Tracer()
    tracer.install([Target("crypto.mac_tag", "crypto", "repro.crypto.mac:tag", leaf=True)])
    try:
        assert gradual.tag is not original and mac.tag is gradual.tag
        key = mac.gen_mac_key(__import__("repro.crypto.prf", fromlist=["Rng"]).Rng(1))
        gradual.tag(b"m", key)
    finally:
        tracer.uninstall()
    assert gradual.tag is original and mac.tag is original
    assert tracer.calls() == {"crypto.mac_tag": 1}


def test_wrappers_cover_overriding_subclasses():
    from repro.runtime import DistributedRunner, ProcessPoolRunner, SerialRunner

    originals = [cls.__dict__["run"] for cls in (SerialRunner, ProcessPoolRunner, DistributedRunner)]
    tracer = Tracer()
    tracer.install([Target("runtime.batch", "runtime", "repro.runtime.runner:BatchRunner.run")])
    try:
        for cls, original in zip((SerialRunner, ProcessPoolRunner, DistributedRunner), originals):
            assert cls.__dict__["run"] is not original
    finally:
        tracer.uninstall()
    for cls, original in zip((SerialRunner, ProcessPoolRunner, DistributedRunner), originals):
        assert cls.__dict__["run"] is original


def test_every_target_resolves():
    from spans import _resolve

    for target in layers.targets():
        owner, attr = _resolve(target.where)
        assert attr in owner.__dict__, target.where


# -- host-speed calibration ------------------------------------------------------


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampled_takes_rounds_inside_and_out_of_the_wall_time():
    t0 = time.perf_counter()
    with clock.Sampled() as sampled:
        _busy(0.3)
    elapsed = time.perf_counter() - t0
    # Two outer rounds plus one per period inside.
    assert len(sampled.rounds) >= 4
    assert sampled.paused > 0
    # The busy loop ends 0.3 s after it started, rounds included: the
    # rounds' time is what the wall time leaves out.
    assert sampled.wall + sampled.paused == pytest.approx(0.3, abs=0.02)
    assert sampled.wall + sampled.paused <= elapsed
    assert sampled.reference_s == pytest.approx(
        sampled.wall * clock.REFERENCE_S / (sum(sampled.rounds) / len(sampled.rounds))
    )


def test_sampled_takes_no_round_inside_when_disabled():
    clock.Sampled.enabled = False
    try:
        with clock.Sampled() as sampled:
            _busy(0.15)
    finally:
        clock.Sampled.enabled = True
    assert len(sampled.rounds) == 2 and sampled.paused == 0


def test_scale_is_reference_over_mean_round():
    assert clock.scale([clock.REFERENCE_S]) == 1.0
    # A host twice as slow (rounds twice as long) halves every time.
    assert clock.scale([clock.REFERENCE_S, 3 * clock.REFERENCE_S]) == 0.5


# -- configuration ---------------------------------------------------------------


def test_environment_guard():
    check_environment({"PATH": "/bin"})
    with pytest.raises(SetupError, match="REPRO_BACKEND"):
        check_environment({"REPRO_BACKEND": "reference"})


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    described = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    assert set(described["workloads"]) == set(run.WORKLOADS)
    listed = {m for row in described["layers"] for m in row["metrics"]}
    assert listed == {name for name, _, _ in layers.PER_LAYER}
