"""The benchmark's arithmetic: percentiles, tails, shares and span self time."""
from __future__ import annotations

import math

MIN_BEYOND = 10   # samples a reported percentile must leave above it


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_reportable(n: int, p: float) -> bool:
    """A percentile is reported only with at least MIN_BEYOND samples above it."""
    return samples_beyond(n, p) >= MIN_BEYOND


def fail_share(failed: int, attempted: int) -> float:
    """Failed operations as a share of those attempted; 0 when none were."""
    if failed < 0 or failed > attempted:
        raise ValueError(f"failed {failed} outside 0..{attempted}")
    return failed / attempted if attempted else 0.0


def collapse(parents, keep):
    """Re-parent each kept span to its nearest kept ancestor.

    parents[i] is the index of span i's parent, or -1 for a root. Spans
    must be listed parent before child, as a tracer that records on entry
    lists them. Returns the new parent list: -1 for a kept span with no
    kept ancestor, and for every span not in keep, so that an unkept span's
    time stays in its kept ancestor's self time.
    """
    nearest = []
    for i, parent in enumerate(parents):
        while parent >= 0 and parent not in keep:
            parent = parents[parent]
        nearest.append(parent if i in keep else -1)
    return nearest


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    result = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(i, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result
