"""``verify-small``: time to a verdict over all 28 claims (E1–E21).

Each operation is ``verify_claims("all", budget="small", seed=S)``,
serial, as the first call in a fresh process (``verify_child.py``),
because every ``repro verify`` user pays the lazy set-up.  It mixes the
reference engine, vectorized kernels (E10/E12/E13/E20) and non-batch
work (E21 ``measure_cost``, the analytic side).  Operations run one after
another (one caller); all use the run's seed, so their
``deterministic_payload`` hashes must agree and every exit code be 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Optional

import gates
from common import BENCH_DIR, ROOT, SetupError, child_env, peak_rss_mb
from stats import median
from workload import Result, e2e, timed_loop

NAME = "verify-small"

#: Each verdict takes 5-7 s with its fresh process, so a run keeps going
#: past ``--seconds`` until it has this many: the median of three moved
#: by 9-13% between runs of different seeds, against 5% for the other
#: serial workloads.
MIN_REPEATS = 4


class VerifySmall:
    name = NAME

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass  # each operation is its own fresh process

    def teardown(self) -> None:
        pass

    def child(self, untraced_wall: Optional[float] = None) -> dict:
        argv = [sys.executable, str(BENCH_DIR / "verify_child.py"),
                "--seed", str(self.seed), "--spawned-at", repr(time.time())]
        if untraced_wall is not None:
            argv += ["--trace", repr(untraced_wall)]
        out = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=170,
        )
        if out.returncode != 0:
            raise SetupError(f"verify child failed: {out.stderr[-2000:]}")
        return json.loads(out.stdout.strip().splitlines()[-1])

    def measure(self, seconds: float) -> Result:
        children = [
            child for _, child in timed_loop(seconds, self.child, MIN_REPEATS)
        ]
        metrics = e2e(
            [c["setup_s"] for c in children],
            median([c["reference_s"] / c["wall_s"] for c in children]),
            [c["reference_s"] * 1000.0 for c in children],
            [c["executions"] / c["reference_s"] for c in children],
            peak_rss_mb(),
        )
        first = children[0]
        lines = [
            f"operation: verify_claims(all, small) in a fresh process, "
            f"{len(children)} repeats; {first['claims']} claims, "
            f"{first['executions']} Monte-Carlo runs",
            f"wall_s: {median([c['wall_s'] for c in children]):.4f} s "
            f"(median time to verdict, not scaled to the reference host)",
            f"payload sha256: {first['payload_sha256']}",
        ]
        return Result(
            metrics, attempted=len(children),
            failed=gates.verify_gate(children), lines=lines,
        )

    def measure_traced(self, seconds: float) -> Result:
        plain = self.child()
        traced = self.child(untraced_wall=plain["wall_s"])
        failed = gates.verify_gate([plain, traced])
        return Result(
            traced["layers"], attempted=2, failed=failed,
            correct=failed == 0 and traced["trace_ok"], lines=traced["lines"],
        )
