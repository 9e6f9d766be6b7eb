#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's median and
spread (interquartile distance over median), the steadiness check the
bounds in ``BENCHMARK.json`` are set against.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, ROOT  # noqa: E402
from stats import median, spread  # noqa: E402


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect or failed: {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
        ), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        print(f"{name:<16} median {median(vals):12.5g}  spread "
              f"{spread(vals):.4f}  bound {bounds.get(name, float('nan'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
