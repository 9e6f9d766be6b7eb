#!/usr/bin/env python3
"""Run every workload once and print all their figures.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own ``run.py`` process; its output (host
record, the workload's own figures, every metric by name and unit, and
the JSON result line) is printed under a header.  Exits non-zero when a
workload fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, ROOT  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        print(f"=== {workload}", flush=True)
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        print(out.stdout, end="", flush=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            ok = False
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
