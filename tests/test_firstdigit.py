import math

import numpy as np
import pytest

from benford_xy import firstdigit
from benford_xy.errors import ConfigurationError, DegenerateWindowError, DomainError
from benford_xy.firstdigit import (
    DigitHistogram,
    ReferenceDistribution,
    expected_counts,
    histogram,
    probabilities,
    rescale_unit,
)


class TestFirstSignificantDigit:
    @pytest.mark.parametrize(
        "x,digit",
        [(0.00345, 3), (1.0, 1), (999_999.0, 9), (-273.15, 2), (7e-30, 7), (9.999e20, 9)],
    )
    def test_examples(self, x, digit):
        assert firstdigit.digits_of([x])[0] == digit

    def test_zero_has_no_digit(self):
        assert firstdigit.digits_of([0.0])[0] == 0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, x):
        with pytest.raises(DomainError):
            firstdigit.digits_of([x])

    def test_decade_and_sign_invariance_sampled(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.integers(-12, 12, 20_000)
        x = x[x != 0.0]
        d = firstdigit.digits_of(x)
        assert np.array_equal(d, firstdigit.digits_of(10.0 * x))
        assert np.array_equal(d, firstdigit.digits_of(-x))
        assert np.all((d >= 1) & (d <= 9))


class TestRescaleUnit:
    def test_affine_map(self):
        assert rescale_unit([2.0, 3.0, 4.0]) == pytest.approx([0.0, 0.5, 1.0])

    def test_negative_inputs(self):
        assert rescale_unit([-1.0, 0.0, 1.0]) == pytest.approx([0.0, 0.5, 1.0])

    def test_order_preserved_and_endpoints_hit(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=100)
        r = rescale_unit(v)
        assert np.array_equal(np.argsort(r), np.argsort(v))
        assert r.min() == 0.0 and r.max() == 1.0

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateWindowError):
            rescale_unit([5.0, 5.0, 5.0])

    def test_too_few_values(self):
        with pytest.raises(DegenerateWindowError):
            rescale_unit([1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            rescale_unit([0.0, math.nan, 1.0])


class TestHistogram:
    def test_direct_tally(self):
        h = histogram([0.1, 0.25, 1.7, 0.0])
        assert h.counts == (2, 1, 0, 0, 0, 0, 0, 0, 0)
        assert h.total == 3
        assert h.skipped == 1

    def test_rescaled_distinct_values(self):
        v = rescale_unit(np.linspace(3.0, 9.0, 50))
        h = histogram(v)
        assert h.total == 49
        assert h.skipped == 1

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(0.1, 99.0, 500)
        assert histogram(v) == histogram(v[::-1])

    def test_additive_over_concatenation(self):
        a = [0.1, 2.0, 35.0]
        b = [0.4, 0.0, 9.1]
        ha, hb, hab = histogram(a), histogram(b), histogram(a + b)
        assert tuple(x + y for x, y in zip(ha.counts, hb.counts)) == hab.counts
        assert ha.skipped + hb.skipped == hab.skipped

    def test_log_mantissa_follows_benford(self):
        rng = np.random.default_rng(0)
        h = histogram(10.0 ** rng.random(10_000))
        freq = np.asarray(h.counts) / h.total
        assert np.all(np.abs(freq - probabilities(ReferenceDistribution.benford())) < 0.01)

    def test_invariants_enforced(self):
        with pytest.raises(ConfigurationError):
            DigitHistogram(counts=(1,) * 9, total=8, skipped=0)
        with pytest.raises(ConfigurationError):
            DigitHistogram(counts=(1,) * 8, total=8, skipped=0)


class TestReferenceDistributions:
    def test_benford_leading_probability(self):
        assert probabilities(ReferenceDistribution.benford())[0] == pytest.approx(
            math.log10(2.0), abs=1e-12
        )

    def test_uniform(self):
        assert probabilities(ReferenceDistribution.uniform()) == pytest.approx([1 / 9] * 9)

    def test_poisson_kappa_one_leading(self):
        p = probabilities(ReferenceDistribution.poisson(1.0))
        norm = sum(1.0 / math.factorial(d) for d in range(1, 10))
        assert p[0] == pytest.approx(1.0 / norm, abs=1e-12)
        assert p[0] == pytest.approx(0.58198, abs=5e-6)

    def test_poisson_kappa_five_peaks_at_four_five_tie(self):
        p = probabilities(ReferenceDistribution.poisson(5.0))
        assert p[3] == pytest.approx(p[4], rel=1e-12)  # digits 4 and 5 tie
        assert np.all(np.diff(p[:4]) > 0) and np.all(np.diff(p[4:]) < 0)

    def test_poisson_kappa_ten_increasing(self):
        p = probabilities(ReferenceDistribution.poisson(10.0))
        assert np.all(np.diff(p) > 0)

    def test_benford_strictly_decreasing(self):
        assert np.all(np.diff(probabilities(ReferenceDistribution.benford())) < 0)

    @pytest.mark.parametrize("kappa", np.geomspace(0.1, 20.0, 7).tolist())
    def test_positive_and_normalized(self, kappa):
        for dist in (
            ReferenceDistribution.benford(),
            ReferenceDistribution.uniform(),
            ReferenceDistribution.poisson(kappa),
        ):
            p = probabilities(dist)
            assert np.all(p > 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_poisson_requires_kappa(self):
        with pytest.raises(ConfigurationError):
            ReferenceDistribution(firstdigit.DistKind.POISSON)
        with pytest.raises(ConfigurationError):
            ReferenceDistribution.poisson(0.0)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_poisson_requires_finite_kappa(self, kappa):
        with pytest.raises(ConfigurationError):
            ReferenceDistribution.poisson(kappa)

    def test_kappa_rejected_elsewhere(self):
        with pytest.raises(ConfigurationError):
            ReferenceDistribution(firstdigit.DistKind.BENFORD, kappa=2.0)


class TestExpectedCounts:
    def test_benford_900(self):
        e = expected_counts(ReferenceDistribution.benford(), 900)
        assert e[0] == pytest.approx(900 * math.log10(2.0), abs=1e-9)
        assert e[0] == pytest.approx(270.93, abs=0.01)

    def test_uniform_900(self):
        assert expected_counts(ReferenceDistribution.uniform(), 900) == pytest.approx([100.0] * 9)

    @pytest.mark.parametrize("n", [1, 10, 12345])
    def test_sums_to_n(self, n):
        for dist in (ReferenceDistribution.benford(), ReferenceDistribution.poisson(3.0)):
            assert expected_counts(dist, n).sum() == pytest.approx(n, abs=1e-9)

    def test_requires_positive_n(self):
        with pytest.raises(DomainError):
            expected_counts(ReferenceDistribution.benford(), 0)
