"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[k - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest percentile that still has ten samples beyond it, as
    (percent, value); None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return math.floor(100.0 * (n - 10) / n), ordered[n - 11]


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile over the median;
    None when the median is 0."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else None
