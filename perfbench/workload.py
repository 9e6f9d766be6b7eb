"""What every workload shares: its result, set-up sampling, the timed
loop and the traced run."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import clock
import layers
from common import (
    BENCH_DIR,
    ROOT,
    WORK_DIR,
    SetupError,
    child_env,
    process_age_s,
    use_source,
)
from spans import Tracer, thread_budget_ok
from stats import median

#: Extra fresh processes timed per run for ``setup_s``, besides the
#: measuring process itself.
SETUP_SAMPLES = 2


@dataclass
class Result:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool = True
    lines: List[str] = field(default_factory=list)


def setup_samples(workload: str, seed: int, k: int = SETUP_SAMPLES) -> List[float]:
    """Set-up times: this process's age now (call it right after its own
    set-up), then ``k`` fresh processes timed from spawn until the
    workload's set-up is done (interpreter start, imports, registry,
    spawned servers or workers, warm-up); each then tears down and
    exits."""
    samples = [process_age_s()]
    for _ in range(k):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            code = proc.wait(120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise SetupError(f"set-up of {workload} failed (exit {code})")
        samples.append(elapsed)
    return samples


def timed_loop(seconds: float, op: Callable[[], object], min_reps: int = 3) -> List[Tuple[float, object]]:
    """Repeat ``op`` until ``seconds`` have passed (and at least
    ``min_reps`` times); returns ``(wall_s, value)`` per repetition."""
    out = []
    start = time.perf_counter()
    while len(out) < min_reps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        value = op()
        out.append((time.perf_counter() - t0, value))
    return out


def import_program() -> None:
    """Import every ``repro`` module, so wrappers reach every call site
    before the traced operation starts."""
    use_source()
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def traced(op: Callable[[], object]) -> Tuple[Tracer, float, object]:
    """Run ``op`` once with every layer wrapped."""
    import_program()
    tracer = Tracer()
    tracer.install(layers.targets())
    clock.Sampled.enabled = False  # no calibration round inside a span
    t0 = time.perf_counter()
    try:
        value = op()
    finally:
        wall = time.perf_counter() - t0
        clock.Sampled.enabled = True
        tracer.uninstall()
    return tracer, wall, value


def layer_result(
    workload: str, tracer: Tracer, traced_wall: float, untraced_wall: float,
    extra: Dict[str, float], attempted: int, failed: int,
    basis: str = "wall time",
) -> Result:
    """The per-layer metrics and table of one traced operation; the run
    fails when a wrapper its workload must exercise never fired, or when
    the self-time fold overcounts a thread.  ``trace.overhead`` is the
    traced over the untraced ``basis`` (normally the operation's wall
    time, in seconds)."""
    extra = dict(extra, **{"trace.overhead": traced_wall / untraced_wall})
    metrics = layers.per_layer(tracer, extra)
    table = layers.layer_table(tracer)
    WORK_DIR.mkdir(exist_ok=True)
    span_file = WORK_DIR / f"spans-{workload}.jsonl"
    tracer.dump(span_file)
    missing = tracer.never_fired(workload)
    budget_ok = thread_budget_ok(tracer.spans(), tracer.leaf_layer_s())
    lines = [f"  {'layer':<12} {'self_s':>10}"]
    lines += [f"  {name:<12} {secs:>10.4f}" for name, secs in table.items()]
    lines.append(
        f"  {'sum':<12} {sum(table.values()):>10.4f}  (over all threads)"
    )
    lines.append(
        f"trace.overhead: {extra['trace.overhead']:.3f}x ({basis}: traced "
        f"{traced_wall:.4f}, untraced {untraced_wall:.4f})"
    )
    lines.append(f"spans: {span_file.relative_to(ROOT)}")
    if missing:
        lines.append("wrappers that never fired: " + ", ".join(missing))
    if not budget_ok:
        lines.append("self-time fold exceeds a thread's traced time")
    return Result(
        metrics=metrics, attempted=attempted, failed=failed,
        correct=failed == 0 and not missing and budget_ok, lines=lines,
    )


def e2e(setup: List[float], setup_scale: float, latency_ms: List[float],
        runs_per_s: List[float], peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics every workload reports.  ``setup`` holds
    wall times; ``setup_scale`` is the run's mean factor from wall to
    reference seconds (``clock.py``), taken from the many calibration
    rounds of its measured work: scaling each set-up by rounds around it
    alone made set-up times noisier, while unscaled medians drifted by a
    quarter between sets of runs an hour apart."""
    return {
        "setup_s": median(setup) * setup_scale,
        "latency_p50_ms": median(latency_ms),
        "runs_per_s": median(runs_per_s),
        "peak_rss_mb": peak_rss_mb,
    }
