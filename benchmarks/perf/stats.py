"""Summary statistics and comparison rules shared by the perf harness.

Everything here is pure arithmetic over lists of numbers so the rules the
benchmark is judged by can be unit-tested on their own:

- :func:`median` / :func:`tail` — a timing is reported as its median and
  its tail, the highest whole percentile that still has at least
  :data:`TAIL_BEYOND` samples above it (never below the median);
- :func:`union_length` / :func:`subtract` — interval arithmetic used for
  self time, so overlapping pool-thread spans are counted once;
- :func:`quartiles` / :func:`spread` — run-to-run spread, the distance
  between the first and third quartile as a share of the median;
- :func:`verdict` — the paired-comparison rule: a gain needs the change to
  win at least nine tenths of the pairs *and* a median gap wider than the
  parent's own spread; a loss is a median worse by more than the bound.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: Samples that must lie above the tail percentile.
TAIL_BEYOND = 10

Interval = Tuple[float, float]


def median(values: Sequence[float]) -> float:
    """The median (0.0 for no samples)."""
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(count: int) -> int:
    """The highest whole percentile with ``TAIL_BEYOND`` samples above it.

    With too few samples for any such percentile above the median, the
    median (p50) is reported instead.
    """
    if count <= 0:
        return 50
    return max(50, math.floor(100 * (count - TAIL_BEYOND) / count))


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """``(value, percentile, sample count)`` of the tail of ``values``.

    The value is the nearest-rank percentile: the sample at rank
    ``ceil(p/100 * n)``, so at least ``TAIL_BEYOND`` samples sit above it.
    At p50 it is the median itself.
    """
    ordered = sorted(values)
    count = len(ordered)
    percentile = tail_percentile(count)
    if percentile == 50:
        return median(ordered), percentile, count
    rank = math.ceil(percentile / 100 * count)
    return float(ordered[rank - 1]), percentile, count


def union_length(intervals: Sequence[Interval]) -> float:
    """Total length covered by the union of ``intervals``."""
    return sum(end - start for start, end in merge(intervals))


def merge(intervals: Sequence[Interval]) -> List[Interval]:
    """Sorted, disjoint intervals covering the same points."""
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def subtract(span: Interval, holes: Sequence[Interval]) -> List[Interval]:
    """The parts of ``span`` that no interval in ``holes`` covers."""
    start, end = span
    pieces: List[Interval] = []
    cursor = start
    for hole_start, hole_end in merge(holes):
        if hole_end <= cursor or hole_start >= end:
            continue
        if hole_start > cursor:
            pieces.append((cursor, hole_start))
        cursor = max(cursor, hole_end)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of parent.

    Negative when the change is better.
    """
    if not parent:
        return 0.0
    gap = (change - parent) / parent
    return gap if better == "lower" else -gap


def within_bound(parent: float, change: float, better: str,
                 bound: float) -> bool:
    """Whether ``change`` is no worse than ``parent`` by more than ``bound``."""
    return worse_by(parent, change, better) <= bound


def verdict(pairs: Sequence[Tuple[float, float]], better: str,
            bound: float) -> str:
    """improved / worse / unchanged / unresolved for ``(parent, change)`` pairs.

    - *improved*: the change wins at least 9/10 of the pairs (ties count
      for neither side) and the medians differ by more than the parent's
      inter-quartile distance;
    - *worse*: the change's median is worse than the parent's by more
      than ``bound``;
    - *unresolved*: the parent's spread is wider than ``bound`` — unless
      every change run beats every parent run — so "no regression" cannot
      be shown;
    - *unchanged* otherwise.
    """
    if not pairs:
        return "unresolved"
    parents = [parent for parent, _ in pairs]
    changes = [change for _, change in pairs]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for parent, change in pairs
               if sign * (parent - change) > 0)
    q1, parent_median, q3 = quartiles(parents)
    change_median = median(changes)
    gap = sign * (parent_median - change_median)
    if wins * 10 >= 9 * len(pairs) and gap > (q3 - q1):
        return "improved"
    if not within_bound(parent_median, change_median, better, bound):
        return "worse"
    all_better = all(sign * (parent - change) > 0
                     for parent in parents for change in changes)
    if spread(parents) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with 0.0 for an empty base."""
    return numerator / denominator if denominator else 0.0
