"""Violation parameters: distance between an observed digit histogram and a
reference digit law.

Three metrics. MeanDeviation sums |O_D - E_D| / E_D over digits and is
scale-free because each term is a ratio of counts. StandardDeviation and
Bhattacharya are computed on relative frequencies, so their values do not
depend on the sample size either.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import EmptyHistogramError
from .firstdigit import DigitHistogram, ReferenceDistribution, expected_counts, probabilities


class Metric(enum.Enum):
    MEAN_DEVIATION = "mean"
    STANDARD_DEVIATION = "sd"
    BHATTACHARYA = "bhattacharya"


def violation(hist: DigitHistogram, dist: ReferenceDistribution, metric: Metric) -> float:
    """Nonnegative distance of hist from dist under the chosen metric."""
    if hist.total == 0:
        raise EmptyHistogramError("violation undefined for an empty histogram")
    observed = np.asarray(hist.counts, dtype=float)
    if metric is Metric.MEAN_DEVIATION:
        expected = expected_counts(dist, hist.total)
        return float((np.abs(observed - expected) / expected).sum())
    o = observed / hist.total
    q = probabilities(dist)
    if metric is Metric.STANDARD_DEVIATION:
        return float(np.sqrt(((o - q) ** 2).sum()) / 3.0)
    if metric is Metric.BHATTACHARYA:
        # sum of sqrt(o q) <= 1 for frequencies by Cauchy-Schwarz; clamp the
        # float residue so a perfect match reports exactly 0
        return max(0.0, float(-np.log(np.sqrt(o * q).sum())))
    raise TypeError(f"unknown metric: {metric!r}")
