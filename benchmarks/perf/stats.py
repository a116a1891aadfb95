"""Statistics the benchmark reports: quiet time, geometric mean, the
tail-percentile rule, the run-to-run spread, and self time from nested
spans. Pure functions over plain lists, so they are unit-tested without
the system under test (``benchmarks/perf/tests``)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: Index of each field in a span record (see ``spans.Tracer``). A span
#: is a list so the tracer can fill ``END`` and ``FOLDED`` in place.
NAME, START, END, PARENT, OP, FOLDED, TID = range(7)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between the
    two nearest order statistics (numpy's default rule)."""
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def q10(values: Sequence[float]) -> float:
    """Quiet time: the 10th percentile of the samples. On a shared
    sandbox interference only ever adds time, so the low tail is what
    the code costs on an undisturbed core; the 10th percentile rather
    than the minimum keeps one lucky sample from setting the value."""
    return quantile(values, 0.10)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.50)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; every value weighs the same whatever its size."""
    logs = [math.log(value) for value in values]
    if not logs:
        raise ValueError("geomean of no samples")
    return math.exp(sum(logs) / len(logs))


def tail_percentile(
    values: Sequence[float], cap: float = 95.0, beyond: int = 10
) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile, at most
    ``cap``, that still has at least ``beyond`` samples above it. With
    fewer than ``2 * beyond`` samples no percentile above the median
    qualifies and the median itself is returned."""
    count = len(values)
    if count == 0:
        raise ValueError("tail percentile of no samples")
    percentile = min(cap, 100.0 * (1.0 - beyond / count))
    percentile = max(percentile, 50.0)
    return percentile, quantile(values, percentile / 100.0)


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as the benchmark contract defines it: the
    distance between the first and third quartile
    (``statistics.quantiles(values, n=4)``) as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def span_self_seconds(spans: Sequence[list]) -> List[float]:
    """Self time of each span in ``spans``: its duration minus what
    its direct children cover, children being both the recorded spans
    whose ``PARENT`` it is and the calls *folded* into it (``FOLDED``:
    name -> [count, seconds], hot leaf calls kept as a total instead
    of one record each)."""
    covered: Dict[int, float] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            covered[id(parent)] = (
                covered.get(id(parent), 0.0) + span[END] - span[START]
            )
    return [
        span[END] - span[START] - covered.get(id(span), 0.0)
        - sum(seconds for _, seconds in (span[FOLDED] or {}).values())
        for span in spans
    ]


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Seconds of self time per span name. Folded calls have no
    children, so their total is their self time."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, span_self_seconds(spans)):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
        for name, (_, seconds) in (span[FOLDED] or {}).items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def call_counts(spans: Iterable[list]) -> Dict[str, int]:
    """Number of calls per span name, folded calls included."""
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span[NAME]] = counts.get(span[NAME], 0) + 1
        for name, (count, _) in (span[FOLDED] or {}).items():
            counts[name] = counts.get(name, 0) + count
    return counts


def summarize_kinds(
    samples: Dict[str, List[float]],
    weights: Dict[str, int],
    quiet_speed: float = 1.0,
    typical_speed: float = 1.0,
) -> Dict[str, float]:
    """The timing metrics every workload shares, from per-kind op
    times in seconds. ``weights`` is how many ops of each kind one
    pass executes. Statistics built on quiet times are divided by
    ``quiet_speed`` and those built on medians by ``typical_speed``:
    how much slower than nominal the machine ran, by the same
    statistic of the run's speed probe (1.0 = not corrected)."""
    quiet = {kind: q10(times) for kind, times in samples.items()}
    return {
        "pass_ms": 1e3 / quiet_speed * sum(
            quiet[kind] * weights[kind] for kind in quiet
        ),
        "op_ms_geomean": 1e3 / quiet_speed * geomean(quiet.values()),
        "typical_pass_ms": 1e3 / typical_speed * sum(
            median(times) * weights[kind] for kind, times in samples.items()
        ),
    }
