"""The benchmark's own arithmetic: percentiles, open-loop timing, the rate
ladder, steadiness spreads and span self time.

Everything here is pure (no I/O, no clock) so ``selftest.py`` can pin it
on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first. A timing reports its median
#: plus the highest of these that still has at least ``MIN_BEYOND``
#: samples strictly above it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10

#: The serving latency limit a ladder rung must meet at its p99.
LADDER_LIMIT_MS = 20.0


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with >= ``MIN_BEYOND`` samples beyond it.

    With ``n`` samples, ``floor(n * (1 - p/100))`` of them lie beyond the
    p-th percentile. ``None`` when even the lowest candidate has too few.
    """
    for p in TAIL_PERCENTILES:
        if math.floor(n * (100.0 - p) / 100.0 + 1e-9) >= MIN_BEYOND:
            return p
    return None


def summarize(values: list[float]) -> dict:
    """Median, the reportable tail percentile and the sample count."""
    out = {"n": len(values), "p50": percentile(values, 50.0) if values else None}
    p = tail_percentile(len(values))
    out["tail_p"] = p
    out["tail"] = percentile(values, p) if p is not None else None
    return out


def open_loop_timings(
    due: list[float], sent: list[float], done: list[float]
) -> tuple[list[float], list[float]]:
    """Per-request latency timed from the due time, and generator lateness.

    Latency counts the wait a stalled request imposes on the requests
    scheduled behind it (no coordinated omission); lateness is how far
    behind its schedule the generator actually sent.
    """
    latency = [d - t for t, d in zip(due, done)]
    late = [max(0.0, s - t) for t, s in zip(due, sent)]
    return latency, late


def backlog_grows(backlog: list[int]) -> bool:
    """Whether the generator's due-but-unsent count grew over a phase.

    Compares the mean backlog of the last third against the first third;
    a sustainable rate keeps it flat (small jitter allowed), an overload
    makes it climb for the whole phase.
    """
    if len(backlog) < 3:
        return False
    third = len(backlog) // 3
    head = sum(backlog[:third]) / third
    tail = sum(backlog[-third:]) / third
    return tail > head + 1.0


def rung_passes(latency_ms: list[float], failed: int, backlog: list[int]) -> bool:
    """The ladder rule for one rung: p99 within the limit, nothing failed,
    and a generator backlog that does not grow."""
    if failed or not latency_ms:
        return False
    if percentile(latency_ms, 99.0) > LADDER_LIMIT_MS:
        return False
    return not backlog_grows(backlog)


def max_rate(rungs: list[tuple[float, bool]]) -> float | None:
    """Highest passing rate of a ladder climbed in order, stopping at the
    first failure. ``rungs`` is ``[(rate, passed), ...]`` in climb order."""
    best = None
    for rate, passed in rungs:
        if not passed:
            break
        best = rate
    return best


def steps_to_verify(phases: list[list[tuple[float, float, int | None]]]) -> int:
    """How many leading horizon steps a served run must account for.

    ``phases`` lists, phase by phase in the order they ran, each
    request's ``(sent, done, step)``; ``step`` is None for a failed
    request. A failed request may still have taken a step the client
    never learns, so only steps served before the first failure are
    owed: every step of the phases before it, and in its phase every
    step of a request that was answered before the failed one was sent.
    """
    need = 0
    for requests in phases:
        failures = [sent for sent, _, step in requests if step is None]
        cutoff = min(failures) if failures else math.inf
        owed = [step for _, done, step in requests if step is not None and done < cutoff]
        need = max([need, *(step + 1 for step in owed)])
        if failures:
            break
    return need


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Spans are dicts with ``id``, ``parent``, ``start`` and ``end``.
    Overlapping children (threads, concurrent tasks) count once: the
    covered part is the union of the child intervals clipped to the
    parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
