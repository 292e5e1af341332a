"""Order statistics for benchmark samples.

A tail percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer, the number is one or two outliers and says nothing
about the tail. Runs are sized so that the named percentiles have enough
samples, and the sample count is printed beside them.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count with at least ``min_beyond`` values above the
    q-quantile (q in [0, 1))."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"quantile must be in [0, 1), got {q}")
    if q == 0.5:
        return 1
    return math.ceil(min_beyond / (1.0 - q) - 1e-9)


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Linear-interpolated q-quantile of ``values``.

    The median needs one sample; any other quantile needs at least
    ``min_beyond`` samples beyond it, else ``TooFewSamples`` is raised.
    """
    xs = sorted(values)
    n = len(xs)
    if n < min_samples(q, min_beyond):
        raise TooFewSamples(
            f"p{round(q * 100)} needs {min_samples(q, min_beyond)} samples, got {n}")
    if n == 0:
        raise TooFewSamples("no samples")
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def rate(counts, seconds) -> float:
    """Summed counts over summed seconds, so that every sample, periodic
    garbage collection included, weighs by its share of the time."""
    if len(counts) != len(seconds):
        raise ValueError("counts and seconds differ in length")
    if not counts:
        raise TooFewSamples("a rate needs samples")
    return sum(counts) / sum(seconds)
