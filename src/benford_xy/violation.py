"""Violation parameters: distance between observed digit histograms and a
reference digit law.

Three metrics. MeanDeviation sums |O_D - E_D| / E_D over digits and is
scale-free because each term is a ratio of counts. StandardDeviation and
Bhattacharya are computed on relative frequencies, so their values do not
depend on the sample size either. violations scores digit histograms given
as rows of 9 counts: the window stage's (windows x 9) matrix row by row, or
the digits report's one row.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import EmptyHistogramError
from .firstdigit import ReferenceDistribution, expected_counts, probabilities


class Metric(enum.Enum):
    MEAN_DEVIATION = "mean"
    STANDARD_DEVIATION = "sd"
    BHATTACHARYA = "bhattacharya"


def violations(counts, dist: ReferenceDistribution, metric: Metric) -> np.ndarray:
    """Nonnegative distance from dist, under the chosen metric, of each
    histogram given as a row of 9 digit counts (W x 9), whose total is the
    row sum.

    Each row is reduced on its own, over 9 contiguous values, so a row's
    value is that of the same sums over that row alone, bit for bit.
    """
    counts = np.asarray(counts).reshape(-1, 9)
    n = counts.sum(axis=1, keepdims=True)
    observed = counts.astype(float)
    if (n == 0).any():
        raise EmptyHistogramError("violation undefined for an empty histogram")
    if metric is Metric.MEAN_DEVIATION:
        expected = expected_counts(dist, n)
        return (np.abs(observed - expected) / expected).sum(axis=1)
    o = observed / n
    q = probabilities(dist)
    if metric is Metric.STANDARD_DEVIATION:
        return np.sqrt(((o - q) ** 2).sum(axis=1)) / 3.0
    if metric is Metric.BHATTACHARYA:
        # sum of sqrt(o q) <= 1 for frequencies by Cauchy-Schwarz; clamp the
        # float residue so a perfect match reports exactly 0
        return np.maximum(0.0, -np.log(np.sqrt(o * q).sum(axis=1)))
    raise TypeError(f"unknown metric: {metric!r}")
