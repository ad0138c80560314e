"""The few statistics perfbench reports, in one place.

Quartiles are ``statistics.quantiles(values, n=4)``, the same call the
driver uses for its spreads, so a spread computed here and one computed
there agree.
"""

from __future__ import annotations

import statistics

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def quartiles(values) -> tuple[float, float]:
    """First and third quartile; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def tail(values) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has
    at least :data:`TAIL_BEYOND` samples beyond it.

    With fewer than ``2 * TAIL_BEYOND`` samples no such percentile lies
    above the median, and the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 100.0, float(ordered[-1])
    return 100.0 * (n - TAIL_BEYOND) / n, float(ordered[n - TAIL_BEYOND - 1])


def harmonic_mean(values) -> float:
    values = list(values)
    return len(values) / sum(1.0 / v for v in values)


def summary(values) -> dict:
    """Median with the numbers recorded beside it.

    ``value`` is what the metric reports: the median, unless the caller
    puts another statistic of the same samples there.
    """
    values = [float(v) for v in values]
    q1, q3 = quartiles(values)
    pct, tail_value = tail(values)
    median = float(statistics.median(values))
    return {
        "value": median,
        "median": median,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "tail_percentile": pct,
        "tail_value": tail_value,
    }
