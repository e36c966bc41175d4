"""Summary statistics and the gain/regression rule for sets of runs."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence, Tuple

#: Pairs a gain claim needs (choosing-metrics §8: at least ten pairs, and
#: the change wins at least nine tenths of them).
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


@dataclass(frozen=True)
class Verdict:
    """One metric's comparison between parent runs and change runs."""

    verdict: str  # better | worse | unchanged | unresolved
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    worse_by: float  # signed share of the parent median; > 0 is worse
    wins: int
    pairs: int
    reason: str = ""


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Verdict:
    """Apply the gain and no-regression rules to one metric.

    * worse: the change's median is worse than the parent's by more than
      ``bound`` (a share of the parent median).
    * better: at least ten pairs, the change wins at least nine tenths of
      them (ties count for neither side), and the medians differ by more
      than the parent's interquartile range.
    * unresolved: the parent's own spread is wider than ``bound`` (unless
      every change run beats every parent run), or a gain is indicated by
      fewer than ten pairs.
    * unchanged: otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    p = quartiles(parent)
    c = quartiles(change)
    worse_by = sign * (c[1] - p[1]) / abs(p[1]) if p[1] else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) < 0)
    if worse_by > bound:
        return Verdict("worse", p, c, worse_by, wins, len(pairs),
                       f"median worse by more than the bound {bound:g}")
    gain_shape = (
        bool(pairs)
        and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
        and abs(c[1] - p[1]) > p[2] - p[0]
        and worse_by < 0
    )
    if gain_shape and len(pairs) >= MIN_PAIRS_FOR_GAIN:
        return Verdict("better", p, c, worse_by, wins, len(pairs))
    if gain_shape:
        return Verdict("unresolved", p, c, worse_by, wins, len(pairs),
                       f"a gain needs at least {MIN_PAIRS_FOR_GAIN} pairs")
    every_better = bool(parent) and bool(change) and all(
        sign * (new - old) < 0 for new in change for old in parent
    )
    if spread(parent) > bound and not every_better:
        return Verdict("unresolved", p, c, worse_by, wins, len(pairs),
                       "parent spread wider than the bound")
    return Verdict("unchanged", p, c, worse_by, wins, len(pairs))


def failure_rate(attempted: Sequence[int], failed: Sequence[int]) -> float:
    total = sum(attempted)
    return sum(failed) / total if total else 0.0
