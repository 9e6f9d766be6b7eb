"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, n)`` for the highest percentile of
    :data:`TAIL_PERCENTILES` with at least :data:`TAIL_MIN_BEYOND`
    samples strictly above its rank, or ``None`` when even the median
    has fewer than that beyond it.  ``inf`` samples (refused or failed
    requests) sort last, so they count as beyond any finite limit."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, nearest_rank(values, pct), n
    return None


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


@dataclass(frozen=True)
class Request:
    """One open-loop request: when it was due, when the client actually
    sent it, and when its result arrived (``None`` when it never did)."""

    due: float
    sent: float
    done: Optional[float]
    ok: bool = True


def latencies(requests: Sequence[Request]) -> List[float]:
    """Due-to-result latency per request.

    Timing starts at the *due* time, not the send time: a stalled server
    (or client) delays every request queued behind the stall, and that
    wait is charged to each of them.  A refused, failed or lost request
    is ``inf``, so it misses any latency limit."""
    return [
        (r.done - r.due) if r.ok and r.done is not None else math.inf
        for r in requests
    ]


def send_lag(requests: Sequence[Request]) -> List[float]:
    """How late the generator sent each request."""
    return [max(0.0, r.sent - r.due) for r in requests]


def max_backlog(requests: Sequence[Request]) -> int:
    """Most requests due but not yet answered at any due time."""
    worst = 0
    for r in requests:
        pending = sum(
            1 for o in requests
            if o.due <= r.due and (o.done is None or o.done > r.due)
        )
        worst = max(worst, pending)
    return worst


def backlog_grows(requests: Sequence[Request]) -> bool:
    """Whether the backlog at due times grows from the first half of a
    step to the second — the sign of a rate above capacity."""
    if len(requests) < 4:
        return False

    def pending_at(t: float) -> int:
        return sum(
            1 for o in requests
            if o.due <= t and (o.done is None or o.done > t)
        )

    half = len(requests) // 2
    first = sum(pending_at(r.due) for r in requests[:half]) / half
    second = sum(pending_at(r.due) for r in requests[half:]) / (
        len(requests) - half
    )
    return second > first + 1.0
