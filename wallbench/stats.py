"""Order statistics used by the benchmark (stdlib only)."""

from __future__ import annotations

import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer makes the tail one or two lucky statements.
MIN_BEYOND = 10


def supports(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least :data:`MIN_BEYOND` beyond ``q``."""
    return n * (1.0 - q / 100.0) >= MIN_BEYOND


def percentile(values, q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order stats."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values) -> dict:
    """Median, quartiles, and interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def _ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation (ties take their average rank)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("spearman needs two equal-length samples of >= 2")
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5
