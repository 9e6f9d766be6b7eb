#!/usr/bin/env python3
"""One ``verify_claims("all", budget="small")`` caller in a fresh process.

    python3 perfbench/verify_child.py --seed N --spawned-at T [--trace U]

``T`` is the parent's ``time.time()`` just before the spawn, so the
child can report its set-up time (interpreter start and imports) as
well as the verify call's time (wall, and in reference seconds, see
``clock.py``).  Prints one JSON line.  With
``--trace U`` the call runs with every layer wrapped and the line also
carries the per-layer metrics; ``U`` is an untraced child's wall time,
the base of the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=float, metavar="UNTRACED_WALL_S")
    args = parser.parse_args()

    from common import use_source

    use_source()
    import repro.verify
    from repro.analysis.export import deterministic_payload, report_to_dict

    import clock
    import gates

    setup_s = time.time() - args.spawned_at

    def op():
        # Looked up per call, so a traced run sees the wrapped function.
        return repro.verify.verify_claims("all", budget="small", seed=args.seed)

    out = {"setup_s": setup_s}
    if args.trace is not None:
        from workload import layer_result, traced

        tracer, wall, report = traced(op)
        reference = wall
    else:
        with clock.Sampled() as sampled:
            report = op()
        wall, reference = sampled.wall, sampled.reference_s
    out.update(
        wall_s=wall,
        reference_s=reference,
        exit_code=report.exit_code,
        payload_sha256=gates.payload_sha256(
            deterministic_payload(report_to_dict(report))
        ),
        claims=len(report.checks),
        executions=sum(
            stats.executions for check in report.checks
            for stats in check.run_stats
        ),
    )
    if args.trace is not None:
        result = layer_result("verify-small", tracer, wall, args.trace, {}, 1, 0)
        out.update(layers=result.metrics, lines=result.lines,
                   trace_ok=result.correct)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
