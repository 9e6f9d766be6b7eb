"""Correctness gates.  Each returns the number of failed operations it
found, so a workload adds it to ``failed`` (and ``failed_share``)."""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Optional, Sequence


def payload_sha256(payload) -> str:
    """sha256 of a ``deterministic_payload`` in canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def counts_bytes(counts) -> str:
    """Order-preserving encoding of one ``EventCounts`` (the wire codec's
    form), so "bit-identical" includes dictionary order."""
    from repro.runtime.distributed.wire import encode_partial

    return json.dumps(encode_partial(counts), separators=(",", ":"))


def verify_gate(children: Sequence[Mapping]) -> int:
    """``repro verify`` repeats of one seed: every exit code is 0 and
    every ``deterministic_payload`` hash equals the first one's."""
    failed = 0
    first = children[0]["payload_sha256"] if children else None
    for child in children:
        if child.get("exit_code") != 0 or child.get("payload_sha256") != first:
            failed += 1
    return failed


def counts_gate(reference: Sequence, observed: Sequence) -> int:
    """Per-task ``EventCounts`` must equal the reference, task by task.
    Returns the number of tasks that differ (all of them on a length
    mismatch)."""
    if len(reference) != len(observed):
        return max(len(reference), len(observed))
    return sum(
        1 for ref, got in zip(reference, observed)
        if counts_bytes(ref) != counts_bytes(got)
    )


def read_pass_gate(stats, n_chunks: int, via: str) -> int:
    """A cache-hit or resume pass must serve every chunk from the store
    and find nothing corrupt or stale.  ``via`` is ``"cache"`` or
    ``"journal"``.  Returns 1 when the pass fails, else 0."""
    if via == "cache":
        served = stats.cache_hits
        clean = stats.cache_corrupt_entries == 0 and stats.cache_misses == 0
    elif via == "journal":
        served = stats.journal_replayed_chunks
        clean = (
            stats.journal_corrupt_records == 0
            and stats.journal_stale_records == 0
        )
    else:
        raise ValueError(f"unknown store {via!r}")
    return 0 if served == n_chunks and clean else 1


def service_gate(
    results: Mapping[str, Optional[dict]],
    expected: Mapping[str, dict],
    dedup_hits: int,
    repeats_sent: int,
) -> int:
    """Every job's ``deterministic_payload`` must equal the in-process
    result for the same canonical request, and the server must report
    exactly one dedupe hit per repeat sent.

    ``results`` maps a request key to the payload the service returned
    (``None`` when it never arrived); ``expected`` maps the same keys to
    the in-process payloads.  Returns the number of wrong jobs, plus one
    when the dedupe count is off."""
    failed = sum(
        1 for key, want in expected.items()
        if results.get(key) is None
        or payload_sha256(results[key]) != payload_sha256(want)
    )
    if dedup_hits != repeats_sent:
        failed += 1
    return failed

