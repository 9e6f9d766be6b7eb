"""``sweep-reference``: serial strategy sweeps on the reference engine.

One operation sweeps the full standard strategy spaces of ``gk-and-p2``
(176 strategies) and ``opt-nsfe`` (42), one chunk per strategy.  Nearly
all the time is the engine's round loop, adversary probing (``clone``)
and Lamport/PRG crypto; no vectorized kernel matches these spaces.
Every repetition uses the same seed, so the per-strategy ``EventCounts``
must repeat exactly.
"""

from __future__ import annotations

from typing import List, Tuple

import clock
import gates
from common import peak_rss_mb
from stats import median
from workload import Result, e2e, layer_result, setup_samples, timed_loop, traced

NAME = "sweep-reference"

#: (registry parties, protocol, runs per strategy).  The run counts give
#: the two protocols comparable shares of the operation.
SWEEPS = (
    (2, "gk-and-p2", 1),
    (3, "opt-nsfe", 8),
)


def keeping_runner():
    """A ``SerialRunner`` that keeps each batch's merged ``EventCounts``
    in ``.kept`` (``sweep_strategies`` returns only estimates)."""
    from repro.runtime import SerialRunner

    class KeepingRunner(SerialRunner):
        def run(self, tasks, early_stop=None):
            values = super().run(tasks, early_stop=early_stop)
            self.kept.append(values)
            return values

    runner = KeepingRunner()
    runner.kept = []
    return runner


class SweepReference:
    name = NAME

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro.adversaries import strategy_space_for_protocol
        from repro.analysis import sweep_strategies
        from repro.cli import _protocol_registry
        from repro.core import STANDARD_GAMMA

        self._gamma = STANDARD_GAMMA
        self.sweeps = []
        for parties, name, runs in SWEEPS:
            protocol = _protocol_registry(parties)[name]
            space = strategy_space_for_protocol(protocol)
            self.sweeps.append((name, protocol, space, runs))
        # Warm-up: one run of one strategy per protocol, a different seed.
        for name, protocol, space, _ in self.sweeps:
            sweep_strategies(protocol, space[:1], STANDARD_GAMMA, 1,
                             seed=("warm-up", name))

    def teardown(self) -> None:
        pass

    @property
    def runs_per_op(self) -> int:
        return sum(len(space) * runs for _, _, space, runs in self.sweeps)

    def op(self) -> Tuple[float, float, List]:
        """One sweep of both spaces: ``(wall_s, reference_s, counts)``."""
        import repro.analysis  # looked up per call, so a traced run sees it

        runner = keeping_runner()
        with clock.Sampled() as sampled:
            for name, protocol, space, runs in self.sweeps:
                repro.analysis.sweep_strategies(
                    protocol, space, self._gamma, runs, seed=(self.seed, name),
                    runner=runner,
                )
        counts = [counts for batch in runner.kept for counts in batch]
        return sampled.wall, sampled.reference_s, counts

    def measure(self, seconds: float) -> Result:
        self.setup()
        setup = setup_samples(NAME, self.seed)
        reps = [value for _, value in timed_loop(seconds, self.op)]
        reference = reps[0][2]
        failed = sum(
            1 for _, _, counts in reps[1:]
            if gates.counts_gate(reference, counts)
        )
        refs = [ref for _, ref, _ in reps]
        metrics = e2e(
            setup, median([ref / wall for wall, ref, _ in reps]),
            [r * 1000.0 for r in refs],
            [self.runs_per_op / r for r in refs],
            peak_rss_mb(),
        )
        lines = [
            f"operation: {len(reps)} sweeps of {self.runs_per_op} runs "
            f"({', '.join(f'{n}: {len(s)} strategies x {r}' for n, _, s, r in self.sweeps)})",
            f"wall_s: {median([w for w, _, _ in reps]):.4f} s (median sweep, "
            f"not scaled to the reference host)",
        ]
        return Result(metrics, attempted=len(reps), failed=failed, lines=lines)

    def measure_traced(self, seconds: float) -> Result:
        self.setup()
        untraced_wall, _, reference = self.op()
        tracer, _, (wall, _, counts) = traced(self.op)
        failed = 1 if gates.counts_gate(reference, counts) else 0
        return layer_result(NAME, tracer, wall, untraced_wall, {}, 2, failed)
