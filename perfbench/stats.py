"""Summary statistics for the serving benchmark.

Every timing is reported as a median and a *tail*: the highest percentile
that still has at least :data:`TAIL_MIN_BEYOND` samples beyond it, so a
tail is never read off one or two outliers.  The chosen percentile is
recorded next to the value.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(count: int, min_beyond: int = TAIL_MIN_BEYOND) -> float:
    """The highest percentile with at least ``min_beyond`` of ``count`` samples beyond it.

    ``count * (1 - p/100) >= min_beyond`` gives ``p = 100 * (1 - min_beyond/count)``.
    Below ``2 * min_beyond`` samples that would fall under the median, so
    the tail degrades to the median (50) rather than to a lower percentile.
    """
    if count < 1:
        raise ValueError("tail of an empty sample")
    return max(50.0, 100.0 * (1.0 - min_beyond / count))


@dataclass(frozen=True)
class Summary:
    """Median and tail of one latency sample, in the sample's own unit."""

    count: int
    p50: float
    tail: float
    tail_pct: float


def summarize(values: Sequence[float]) -> Summary:
    pct = tail_percentile(len(values))
    return Summary(
        count=len(values),
        p50=statistics.median(values),
        tail=percentile(values, pct),
        tail_pct=pct,
    )


def open_loop_latencies(
    due: Sequence[float], completed: Sequence[float]
) -> list[float]:
    """Open-loop latency: each operation timed from when it was *due*.

    Timing from the send instead would hide the wait a stall imposes on
    every later operation (coordinated omission).  Units follow the input.
    """
    if len(due) != len(completed):
        raise ValueError("due and completed times must pair up")
    return [done - when for when, done in zip(due, completed)]
