#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics (tracing off);
with ``--trace 1`` it runs the operation once untraced and once with
every layer wrapped, and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Human-readable lines (host record, per-workload figures, the layer
table) come before it.  The workloads, their inputs and the
layer-to-metric map are described in ``perfbench/spec.json``.  The
program is taken from ``src/`` next to this directory; the benchmark
refuses to run when it is missing or when a ``REPRO_*`` variable is set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SetupError, check_environment, check_source, host_record, use_source  # noqa: E402

WORKLOADS = {
    "verify-small": ("wl_verify", "VerifySmall"),
    "sweep-reference": ("wl_sweep", "SweepReference"),
    "chunk-store": ("wl_chunks", "ChunkStore"),
    "service-open-loop": ("wl_service", "ServiceOpenLoop"),
}

#: (name, unit) of every metric, in BENCHMARK.json's order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _workload(name: str, seed: int):
    import importlib

    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed)


def _report(result, units) -> str:
    return json.dumps({
        # A gate that fails counts as a failed operation, and the run's
        # outputs are then not correct.
        "correct": bool(result.correct) and result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in units
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print 'ready', tear down (times setup_s samples)",
    )
    args = parser.parse_args(argv)
    try:
        check_source()
        check_environment()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    use_source()
    workload = _workload(args.workload, args.seed)

    if args.setup_only:
        try:
            workload.setup()
            print("ready", flush=True)
        finally:
            workload.teardown()
        return 0

    from layers import PER_LAYER

    try:
        if args.trace:
            result = workload.measure_traced(args.seconds)
            units = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            result = workload.measure(args.seconds)
            units = list(END_TO_END)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("host: " + json.dumps(host_record(), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    for line in result.lines:
        print(line)
    if not args.trace:
        for name, unit in END_TO_END:
            print(f"{name}: {result.metrics[name]:.6g} {unit}")
    print(f"failed_share: {result.failed / max(1, result.attempted):.6g}")
    print(_report(result, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
