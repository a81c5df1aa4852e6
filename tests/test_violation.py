import math

import numpy as np
import pytest

from benford_xy.errors import EmptyHistogramError
from benford_xy.firstdigit import DistKind, ReferenceDistribution, probabilities
from benford_xy.violation import Metric, violations

BENFORD_P = [math.log10(1.0 + 1.0 / d) for d in range(1, 10)]


def _hist(counts):
    return np.asarray(counts, dtype=np.int64)


def _score(counts, dist, metric):
    """The score of one histogram, given as a row of 9 counts."""
    return float(violations(counts, dist, metric)[0])


class TestMetricValues:
    def test_uniform_counts_against_uniform_law_all_zero(self):
        h = _hist([100] * 9)
        u = ReferenceDistribution(DistKind.UNIFORM)
        for m in Metric:
            assert _score(h, u, m) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_counts_against_benford(self):
        h = _hist([100] * 9)
        b = ReferenceDistribution.benford()
        mean_ref = sum(abs(100.0 - 900.0 * p) / (900.0 * p) for p in BENFORD_P)
        sd_ref = math.sqrt(sum((1.0 / 9.0 - p) ** 2 for p in BENFORD_P)) / 3.0
        bd_ref = -math.log(sum(math.sqrt(p / 9.0) for p in BENFORD_P))
        assert _score(h, b, Metric.MEAN_DEVIATION) == pytest.approx(mean_ref, rel=1e-12)
        assert _score(h, b, Metric.STANDARD_DEVIATION) == pytest.approx(sd_ref, rel=1e-12)
        assert _score(h, b, Metric.BHATTACHARYA) == pytest.approx(bd_ref, rel=1e-12)
        assert mean_ref == pytest.approx(5.8365, abs=1e-4)

    def test_empty_histogram_rejected(self):
        h = _hist([0] * 9)
        for m in Metric:
            with pytest.raises(EmptyHistogramError):
                _score(h, ReferenceDistribution.benford(), m)

    def test_near_perfect_benford_sample_scores_near_zero(self):
        n = 9_000_000
        counts = [round(p * n) for p in BENFORD_P]
        h = _hist(counts)
        b = ReferenceDistribution.benford()
        assert _score(h, b, Metric.MEAN_DEVIATION) < 1e-5
        assert _score(h, b, Metric.STANDARD_DEVIATION) < 1e-7
        assert _score(h, b, Metric.BHATTACHARYA) < 1e-12


class TestScaleInvariance:
    @pytest.mark.parametrize("metric", list(Metric))
    def test_sevenfold_sample_size(self, metric):
        counts = [120, 80, 64, 50, 44, 38, 33, 30, 27]
        h1 = _hist(counts)
        h7 = _hist([7 * c for c in counts])
        b = ReferenceDistribution.benford()
        assert _score(h7, b, metric) == pytest.approx(_score(h1, b, metric), rel=1e-12)


class TestAxioms:
    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_nonnegative_on_random_histograms(self, metric, seed):
        rng = np.random.default_rng(seed)
        h = _hist(rng.integers(1, 500, 9))
        for dist in (
            ReferenceDistribution.benford(),
            ReferenceDistribution(DistKind.UNIFORM),
            ReferenceDistribution(DistKind.POISSON, 4.0),
        ):
            assert _score(h, dist, metric) >= 0.0

    @pytest.mark.parametrize("metric", list(Metric))
    def test_zero_iff_match_for_uniform(self, metric):
        u = ReferenceDistribution(DistKind.UNIFORM)
        assert _score(_hist([50] * 9), u, metric) == pytest.approx(0.0, abs=1e-12)
        off = [50] * 9
        off[0], off[8] = 60, 40
        assert _score(_hist(off), u, metric) > 1e-3

    def test_bhattacharya_grows_as_mass_concentrates(self):
        b = ReferenceDistribution.benford()
        values = []
        for k in range(5):
            counts = [100 - 20 * k] * 8 + [100 + 160 * k]
            values.append(_score(_hist(counts), b, Metric.BHATTACHARYA))
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_mean_deviation_dominates_for_coarse_histograms(self):
        # the count-ratio metric reacts to the rare digits much more strongly
        h = _hist([200, 100, 60, 40, 30, 25, 20, 15, 10])
        b = ReferenceDistribution.benford()
        assert _score(h, b, Metric.MEAN_DEVIATION) > _score(
            h, b, Metric.STANDARD_DEVIATION
        )
        assert _score(h, b, Metric.MEAN_DEVIATION) > _score(h, b, Metric.BHATTACHARYA)


def _one_row(counts, dist, metric):
    """The metrics on one histogram, reduced as 1-D arrays."""
    observed = np.asarray(counts, dtype=float)
    total = int(sum(counts))
    q = probabilities(dist)
    if metric is Metric.MEAN_DEVIATION:
        expected = total * q
        return float((np.abs(observed - expected) / expected).sum())
    o = observed / total
    if metric is Metric.STANDARD_DEVIATION:
        return float(np.sqrt(((o - q) ** 2).sum()) / 3.0)
    return max(0.0, float(-np.log(np.sqrt(o * q).sum())))


class TestViolations:
    DISTS = [
        ReferenceDistribution.benford(),
        ReferenceDistribution(DistKind.UNIFORM),
        ReferenceDistribution(DistKind.POISSON, 5.0),
    ]

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.label())
    def test_rows_equal_violation_bit_for_bit(self, metric, dist):
        rng = np.random.default_rng(7)
        counts = np.concatenate([
            rng.integers(0, 10, (40, 9)),
            rng.integers(0, 10_000, (40, 9)),
            np.outer(rng.integers(1, 1000, 20), 1000 * probabilities(dist)).round(),
        ]).astype(np.int64)
        counts[counts.sum(axis=1) == 0, 0] = 1
        rows = violations(counts, dist, metric)
        assert rows.shape == (counts.shape[0],)
        for c, got in zip(counts.tolist(), rows.tolist()):
            want = _score(_hist(c), dist, metric)
            assert got == want == _one_row(c, dist, metric)

    def test_no_rows(self):
        got = violations(np.empty((0, 9), dtype=np.int64), ReferenceDistribution.benford(),
                         Metric.MEAN_DEVIATION)
        assert got.shape == (0,)

    def test_unknown_metric_rejected(self):
        with pytest.raises(TypeError, match="unknown metric"):
            violations([[1] * 9], ReferenceDistribution.benford(), "mean")

    def test_an_empty_row_is_rejected(self):
        counts = [[1] * 9, [0] * 9]
        with pytest.raises(EmptyHistogramError):
            violations(counts, ReferenceDistribution.benford(), Metric.BHATTACHARYA)
