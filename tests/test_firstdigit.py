import math
from decimal import Decimal

import numpy as np
import pytest

from benford_xy import cli, firstdigit, windowscan, xy_exact
from benford_xy.criticality import crossover_lines
from benford_xy.errors import ConfigurationError, DegenerateWindowError, DomainError
from benford_xy.firstdigit import (
    DistKind,
    ReferenceDistribution,
    expected_counts,
    histogram,
    probabilities,
    rescale_unit,
    unit_histograms,
)
from benford_xy.violation import Metric, violations
from benford_xy.windowscan import (
    Observable,
    ScanConfig,
    WindowLattice,
    evaluate,
    scan,
    scan_chains,
)


class TestFirstSignificantDigit:
    @pytest.mark.parametrize(
        "x,digit",
        [(0.00345, 3), (1.0, 1), (999_999.0, 9), (-273.15, 2), (7e-30, 7), (9.999e20, 9)],
    )
    def test_examples(self, x, digit):
        assert firstdigit.digits_of([x])[0] == digit

    @pytest.mark.parametrize("x", [5e-324, 1e-320, 2.5e-310, 2.2250738585072014e-308])
    def test_subnormal_and_smallest_normal(self, x):
        # the exact binary value, not the decimal literal: 5e-324 is 4.94e-324
        digit = Decimal(x).as_tuple().digits[0]
        assert list(firstdigit.digits_of([x, -x])) == [digit, digit]

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
        assert h.dtype == np.int64
        assert h.tolist() == [2, 1, 0, 0, 0, 0, 0, 0, 0]

    def test_rescaled_distinct_values(self):
        v = rescale_unit(np.linspace(3.0, 9.0, 50))
        assert histogram(v).sum() == 49

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(0.1, 99.0, 500)
        assert np.array_equal(histogram(v), histogram(v[::-1]))

    def test_additive_over_concatenation(self):
        a = [0.1, 2.0, 35.0]
        b = [0.4, 0.0, 9.1]
        assert np.array_equal(histogram(a) + histogram(b), histogram(a + b))

    def test_log_mantissa_follows_benford(self):
        rng = np.random.default_rng(0)
        h = histogram(10.0 ** rng.random(10_000))
        freq = h / h.sum()
        assert np.all(np.abs(freq - probabilities(ReferenceDistribution.benford())) < 0.01)


def _reference(values):
    """histogram(rescale_unit(values)) as a list, or 9 zeros where the
    window is degenerate: the row the window stage must give."""
    try:
        return histogram(rescale_unit(values)).tolist()
    except DegenerateWindowError:
        return [0] * 9


def _row(values):
    """The unit_histograms row of values counted as one window, as a list."""
    v = np.asarray(values, dtype=float)
    return unit_histograms(v, [0], [v.size])[0].tolist()


def _near_thresholds(k_min, ulps):
    """Sorted values in [0, 1] holding each d * 10**k (k_min <= k < 0) and 1,
    the points ulps either side of them, and the same around the edges of the
    margin inside which the bisection defers to digits_of."""
    points = {0.0, 1.0}
    for k in range(k_min, 1):
        for d in range(1, 10 if k < 0 else 2):
            t = d * 10.0**k
            for c in (t, t * (1 - firstdigit._MARGIN), t * (1 + firstdigit._MARGIN)):
                up = down = c
                for _ in range(ulps):
                    up, down = np.nextafter(up, 2.0), np.nextafter(down, -1.0)
                    points |= {float(up), float(down)}
                points.add(c)
    return np.array(sorted(p for p in points if 0.0 <= p <= 1.0))


class TestUnitHistogram:
    """The unit_histograms row of one window v must equal
    histogram(rescale_unit(v)) exactly."""

    @pytest.mark.parametrize("gamma,n_sites", [(0.1, 14), (0.5, 20), (0.5, 40), (1.0, 30)])
    @pytest.mark.parametrize("center", [0.9, 0.99, 1.0, 1.05])
    def test_finite_chain_windows(self, gamma, n_sites, center):
        lams = np.linspace(center - 0.01, center + 0.01, 10_000)
        v = xy_exact.mz_finite_many(lams, gamma, [n_sites], 0.0)[0]
        assert _row(v) == _reference(v)
        assert _row(v[::-1]) == _reference(v[::-1])

    @pytest.mark.parametrize("center", [0.95, 1.0, 1.003])
    def test_zero_temperature_czz_windows(self, center):
        config = ScanConfig(Observable.CZZ, 1.0, (0.8, 1.2))
        v = evaluate([config], np.linspace(center - 0.01, center + 0.01, 10_000))
        assert _row(v) == _reference(v)

    @pytest.mark.parametrize("center", [1.0 - 3e-4, 1.0, 1.0 + 6e-4])
    def test_thermal_windows(self, center):
        t = 3e-4
        v = xy_exact.mz_infinite_many(np.linspace(center - t / 2, center + t / 2, 3000), 1.0, t)
        assert _row(v) == _reference(v)

    @pytest.mark.parametrize("ulps", [1, 2, 3])
    def test_values_next_to_every_threshold(self, ulps):
        v = _near_thresholds(-15, ulps)
        for w in (v, v[::-1]):
            assert _row(w) == _reference(w)
        assert sum(_row(v)) == np.count_nonzero(v)

    @pytest.mark.parametrize("ulps_below_one", [1, 2, 700, 9000])
    def test_values_just_below_one(self, ulps_below_one):
        # the run next to 1.0 is counted without digits_of: 1.0 as a 1, the
        # rest of it (1 - 1e-12 and up) as 9s
        top = 1.0 - ulps_below_one * 2.0**-53
        v = np.array([0.0, 0.02, np.nextafter(0.3, 1.0), 0.5, 0.999999999999 * (1 - 1e-15),
                      0.999999999999, top, np.nextafter(1.0, 0.0), 1.0, 1.0])
        for w in (v, v[::-1], 3.0 * v - 7.0):
            assert _row(w) == _reference(w)

    def test_only_the_maximum_near_a_threshold_skips_digits_of(self, monkeypatch):
        v = np.array([0.0, 0.15, 0.25, 0.45, 0.999, 1.0 - 1e-13, 1.0])
        want = _reference(v)
        calls = []
        monkeypatch.setattr(firstdigit, "digits_of", calls.append)
        assert _row(v) == want and calls == []

    def test_several_exact_minima(self):
        v = np.concatenate([np.zeros(3), np.linspace(1e-6, 1.0, 997)])
        h = _row(v)
        # the three exact zeros have no digit
        assert h == _reference(v) and sum(h) == 997
        assert _row(v[::-1]) == h
        assert _row(5.0 - 2.0 * v) == _reference(5.0 - 2.0 * v)

    @pytest.mark.parametrize("v", [[1.0, 2.0], [2.0, 1.0], [3.0, -5.0], [-1e300, 1e300]])
    def test_two_values(self, v):
        assert _row(v) == _reference(v) == [1] + [0] * 8

    @pytest.mark.parametrize(
        "v",
        [
            [0.0, 1.5e-299, 2e-150, 0.3, 1.0],  # bisected, thresholds down to 1e-300
            [0.0, 5e-324, 1e-320, 2.5e-310, 1e-200, 0.3, 1.0],  # counted by histogram
        ],
    )
    def test_tiny_positive_values(self, v):
        assert _row(v) == _reference(v)
        assert _row(v[::-1]) == _reference(v)

    def test_non_monotone_windows(self):
        rng = np.random.default_rng(5)
        for v in (rng.normal(size=1000), np.sin(np.linspace(0.0, 7.0, 5000))):
            assert _row(v) == _reference(v)
        v = np.linspace(0.0, 1.0, 100)
        v[50] = v[52]
        assert _row(v) == _reference(v)

    @pytest.mark.parametrize("v", [[5.0, 5.0, 5.0], [1.0], []])
    def test_flat_or_short_window_is_degenerate(self, v):
        assert _row(v) == [0] * 9

    @pytest.mark.parametrize(
        "v", [[0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [math.inf, 1.0, 0.0], [-math.inf, 0.0]]
    )
    def test_nonfinite_window_rejected(self, v):
        with pytest.raises(DomainError):
            _row(v)

    def test_monotone_window_is_bisected(self, monkeypatch):
        seen = []
        digits_of = firstdigit.digits_of

        def spy(values):
            seen.append(np.size(values))
            return digits_of(values)

        v = xy_exact.mz_finite_many(np.linspace(0.99, 1.01, 10_000), 0.5, [20], 0.0)[0]
        want = _reference(v)
        monkeypatch.setattr(firstdigit, "digits_of", spy)
        # a rising window, and the same window falling, read reversed
        for values in (v, v[::-1]):
            seen.clear()
            assert _row(values) == want
            assert sum(seen) < 1000


def _lattice_rows(values, samples, stride, lo=0, hi=None, count=None):
    """WindowLattice.histograms of `count` windows of `samples` points,
    `stride` apart, inside [lo, hi) of a lattice whose point k holds
    values[k], as a list of rows, and the reference row of each window w
    (_reference(w)). By default the windows fill the lattice."""
    values = np.asarray(values, dtype=float)
    lattice = WindowLattice(step=float(stride), width=float(samples), samples=samples)
    assert lattice.stride == stride and lattice.spacing == 1.0
    hi = values.size if hi is None else hi
    count = (hi - samples) // stride + 1 if count is None else count

    def evaluate(x):
        return values[np.rint(x + 0.5 * (samples - 1)).astype(int)]

    got = lattice.histograms(count, evaluate, 1, lo, hi)[0]
    assert got.shape == (count, 9) and got.dtype == np.int64
    want = [_reference(values[max(i * stride, lo) : min(i * stride + samples, hi)])
            for i in range(count)]
    return got.tolist(), want


class TestBatchedCounts:
    """WindowLattice.histograms counts the windows in fixed batches, one
    unit_histograms call each; the row of every window w must equal
    histogram(rescale_unit(w)), and be zero if w is degenerate."""

    LAMS = 0.95 + 1e-5 * np.arange(12_000)

    def mz(self, gamma=0.5, n_sites=20):
        return xy_exact.mz_finite_many(self.LAMS, gamma, [n_sites], 0.0)[0]

    @pytest.mark.parametrize("gamma,n_sites", [(0.1, 14), (0.5, 20), (1.0, 30)])
    def test_finite_chain_lattice(self, gamma, n_sites):
        v = self.mz(gamma, n_sites)
        for values in (v, v[::-1]):
            got, want = _lattice_rows(values, 2000, 200)
            assert len(got) == 51 and got == want

    def test_zero_temperature_czz_lattice(self):
        config = ScanConfig(Observable.CZZ, 1.0, (0.8, 1.2))
        v = evaluate([config], 0.97 + 1e-5 * np.arange(6000))
        for values in (v, v[::-1]):
            got, want = _lattice_rows(values, 1000, 100)
            assert got == want

    def test_thermal_lattice(self):
        t = 3e-4
        v = xy_exact.mz_infinite_many(1.0 + t * np.linspace(-3.0, 3.0, 3000), 1.0, t)
        for values in (v, v[::-1]):
            got, want = _lattice_rows(values, 600, 75)
            assert got == want

    def test_flat_steps_and_flat_windows(self):
        v = np.round(self.mz(), 3)
        assert (np.diff(v) == 0).mean() > 0.9
        got, want = _lattice_rows(v, 2000, 200)
        assert got == want
        # a plateau longer than a window: flat windows are zero rows
        v = np.minimum(self.mz(), np.quantile(self.mz(), 0.3))
        for values in (v, v[::-1]):
            got, want = _lattice_rows(values, 2000, 200)
            assert got == want and 0 < got.count([0] * 9) < len(got)

    def test_direction_changes_within_a_batch(self):
        for v in ((self.LAMS - 1.0) ** 2, np.abs(np.sin(300.0 * self.LAMS)),
                  np.concatenate([self.mz()[:6000], self.mz()[6000::-1]])):
            got, want = _lattice_rows(v, 2000, 200)
            assert got == want

    def test_clipped_end_windows(self):
        v = self.mz()
        # window 0 keeps its last 1850 points; the last window keeps one point
        got, want = _lattice_rows(v, 2000, 200, lo=150, hi=10_001, count=51)
        assert len(got) == 51 and got == want
        assert sum(got[0]) == np.count_nonzero(rescale_unit(v[150:2000]))
        assert got[-1] == [0] * 9

    @pytest.mark.parametrize("ulps", [1, 3])
    def test_rounding_in_raw_values(self, ulps):
        # 1e3 + 1e-9 v rounds the rescaled values next to every threshold
        v = 1e3 + 1e-9 * _near_thresholds(-15, ulps)
        for values in (v, v[::-1]):
            got, want = _lattice_rows(values, values.size, 1)
            assert got == want
            got, want = _lattice_rows(values, values.size // 2, values.size // 16)
            assert got == want

    def test_monotone_windows_apart(self):
        # two rising windows with a fall between them, two falling ones with a
        # rise between them, and windows that hold the steps between; the
        # batch both rises and falls, so every window goes through histogram
        up = self.mz()[:3000]
        v = np.concatenate([up, up - 0.01, up[::-1], up[::-1] + 0.01])
        starts = [0, 3000, 6000, 9000, 0, 2500, 1000]
        stops = [3000, 6000, 9000, 12_000, 6000, 3500, 2000]
        got = unit_histograms(v, starts, stops)
        assert got.tolist() == [_reference(v[a:b]) for a, b in zip(starts, stops)]

    def test_flat_window_in_a_batch_that_rises_and_falls(self):
        v = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
        got = unit_histograms(v, [0, 2], [3, 5])
        assert got.tolist() == [_reference(v[:3]), [0] * 9]

    def test_nonfinite_point_rejected(self):
        v = self.mz()
        v[5000] = math.nan
        with pytest.raises(DomainError):
            _lattice_rows(v, 2000, 200)

    def test_windows_are_counted_in_fixed_batches(self, monkeypatch):
        batches, kept, calls = [], [], []
        count = windowscan.unit_histograms

        def spy(values, starts, stops):
            batches.append(len(starts))
            kept.append(values.size)
            return count(values, starts, stops)

        v = self.mz()
        want = _lattice_rows(v, 2000, 200)[1]
        monkeypatch.setattr(windowscan, "unit_histograms", spy)
        got = WindowLattice(200.0, 2000.0, 2000).histograms(
            51, lambda x: calls.append(x.size) or v[np.rint(x + 999.5).astype(int)], 1)[0]
        assert got.tolist() == want
        # _KEPT_WINDOWS * samples // stride + 1 windows a batch, and the rest
        per = windowscan._KEPT_WINDOWS * 2000 // 200 + 1
        assert batches == [per, 51 - per]
        # one window of points a call, each point once; the points kept stay
        # within two windows of _KEPT_WINDOWS windows' worth
        assert calls == [2000] * 6
        assert max(kept) <= (windowscan._KEPT_WINDOWS + 2) * 2000

    def test_windows_with_gaps_are_counted_one_by_one(self, monkeypatch):
        batches, calls = [], []
        count = windowscan.unit_histograms

        def spy(values, starts, stops):
            batches.append(len(starts))
            return count(values, starts, stops)

        v = self.mz()
        want = _lattice_rows(v, 100, 200, count=60)[1]
        monkeypatch.setattr(windowscan, "unit_histograms", spy)
        got = WindowLattice(200.0, 100.0, 100).histograms(
            60, lambda x: calls.append(x.size) or v[np.rint(x + 49.5).astype(int)], 1)[0]
        assert got.tolist() == want
        # the points between windows are never evaluated
        assert batches == [1] * 60 and calls == [100] * 60


class TestRisingCounts:
    """rising_counts reads a strictly rising sequence only where a count
    needs it; each row must equal histogram(rescale_unit(w)) of its window
    w, and be zero if w has fewer than 2 values."""

    @staticmethod
    def counted(values, starts, stops):
        """rising_counts of the windows of values, and the indices it read."""
        reads = []

        def value_at(k):
            reads.append(k.copy())
            return values[k]

        rows = firstdigit.rising_counts(value_at, starts, stops)
        assert rows.shape == (len(starts), 9) and rows.dtype == np.int64
        return rows.tolist(), reads

    @pytest.mark.parametrize(
        "values",
        [
            np.exp(np.linspace(-3.0, 3.0, 60_000)),
            np.linspace(-2.0, 5.0, 60_000) ** 3 + np.linspace(-2.0, 5.0, 60_000),
            # a sequence whose digit thresholds fall on its values
            np.arange(60_000) * 1e-4,
            xy_exact.mz_finite_many(0.8 + 1e-5 * np.arange(60_000), 0.5, [20])[0],
        ],
        ids=["exp", "cubic", "on-thresholds", "mz-chain"],
    )
    def test_rows_equal_histogram_of_each_window(self, values):
        starts = np.arange(0, 50_001, 1000)
        stops = starts + 10_000
        rows, reads = self.counted(values, starts, stops)
        assert rows == [_reference(values[a:b]) for a, b in zip(starts, stops)]
        # the first read is sorted and without repeats; all read far fewer
        # values than the windows hold
        assert (np.diff(reads[0]) > 0).all()
        assert sum(k.size for k in reads) < 60_000 // 2

    def test_short_and_gapped_windows(self):
        values = np.exp(np.linspace(0.0, 1.0, 1000))
        starts, stops = [0, 10, 11, 500, 990], [0, 11, 300, 505, 1000]
        rows, _ = self.counted(values, starts, stops)
        assert rows[:2] == [[0] * 9] * 2
        assert rows[2:] == [_reference(values[a:b]) for a, b in zip(starts[2:], stops[2:])]

    def test_windows_of_tiny_values_go_through_histogram(self, monkeypatch):
        # below 1e-290 the thresholds near the subnormals lose bits
        values = 1e-295 * np.linspace(1.0, 2.0, 500)
        calls = []
        monkeypatch.setattr(firstdigit, "histogram", lambda v: calls.append(v.size) or histogram(v))
        rows, _ = self.counted(values, [0, 250], [300, 500])
        assert calls == [300, 250]
        assert rows == [_reference(values[:300]), _reference(values[250:])]


def _default_chains(gamma):
    """scale's default walk: every chain of its --n-list on the default grid."""
    n_list = cli.build_parser().parse_args(["scale"]).n_list
    return scan_chains(ScanConfig(Observable.MZ, gamma, (0.8, 1.2), n_sites=n_list[0]), n_list)


# The runs the benchmark measures: each batch of the lattice walk's windows is
# monotone, which is what lets unit_histograms test a batch once and bisect it
# whole; Mz at T = 0, of the lattice or of scale's chains, is counted from its
# crossings instead, all 201 windows of a row in one rising_counts call
@pytest.mark.parametrize(
    "run, crossings",
    [
        (lambda: scan(ScanConfig(Observable.MZ, 1.0, (0.8, 1.2))), [201]),
        (lambda: scan(ScanConfig(Observable.CZZ, 1.0, (0.8, 1.2))), []),
        (lambda: _default_chains(0.1), [201] * 6),
        (lambda: _default_chains(0.5), [201] * 6),
        (lambda: crossover_lines("bvp", 1.0, [1e-4, 3e-4, 5e-4], samples=3000), []),
    ],
    ids=["scan mz", "scan czz", "scale gamma 0.1", "scale gamma 0.5", "crossover bvp"],
)
def test_measured_runs_never_count_window_by_window(monkeypatch, run, crossings):
    batches, rising, fallbacks = [], [], []
    count, rise, histogram = windowscan.unit_histograms, windowscan.rising_counts, firstdigit.histogram

    def count_spy(values, starts, stops):
        batches.append(len(starts))
        return count(values, starts, stops)

    def rise_spy(value_at, starts, stops):
        rising.append(len(starts))
        return rise(value_at, starts, stops)

    def histogram_spy(values):
        fallbacks.append(np.size(values))
        return histogram(values)

    monkeypatch.setattr(windowscan, "unit_histograms", count_spy)
    monkeypatch.setattr(windowscan, "rising_counts", rise_spy)
    monkeypatch.setattr(firstdigit, "histogram", histogram_spy)
    run()
    assert rising == crossings
    assert bool(batches) != bool(crossings)
    assert fallbacks == []


class TestReferenceDistributions:
    def test_benford_leading_probability(self):
        assert probabilities(ReferenceDistribution.benford())[0] == pytest.approx(
            math.log10(2.0), abs=1e-12
        )

    def test_uniform(self):
        uniform = ReferenceDistribution(DistKind.UNIFORM)
        assert probabilities(uniform) == pytest.approx([1 / 9] * 9)

    def test_poisson_kappa_one_leading(self):
        p = probabilities(ReferenceDistribution(DistKind.POISSON, 1.0))
        norm = sum(1.0 / math.factorial(d) for d in range(1, 10))
        assert p[0] == pytest.approx(1.0 / norm, abs=1e-12)
        assert p[0] == pytest.approx(0.58198, abs=5e-6)

    def test_poisson_kappa_five_peaks_at_four_five_tie(self):
        p = probabilities(ReferenceDistribution(DistKind.POISSON, 5.0))
        assert p[3] == pytest.approx(p[4], rel=1e-12)  # digits 4 and 5 tie
        assert np.all(np.diff(p[:4]) > 0) and np.all(np.diff(p[4:]) < 0)

    def test_poisson_kappa_ten_increasing(self):
        p = probabilities(ReferenceDistribution(DistKind.POISSON, 10.0))
        assert np.all(np.diff(p) > 0)

    def test_benford_strictly_decreasing(self):
        assert np.all(np.diff(probabilities(ReferenceDistribution.benford())) < 0)

    @pytest.mark.parametrize("kappa", np.geomspace(0.1, 20.0, 7).tolist())
    def test_positive_and_normalized(self, kappa):
        for dist in (
            ReferenceDistribution.benford(),
            ReferenceDistribution(DistKind.UNIFORM),
            ReferenceDistribution(DistKind.POISSON, kappa),
        ):
            p = probabilities(dist)
            assert np.all(p > 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_poisson_requires_kappa(self):
        with pytest.raises(ConfigurationError):
            ReferenceDistribution(DistKind.POISSON)
        with pytest.raises(ConfigurationError):
            ReferenceDistribution(DistKind.POISSON, 0.0)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_poisson_requires_finite_kappa(self, kappa):
        with pytest.raises(ConfigurationError):
            ReferenceDistribution(DistKind.POISSON, kappa)

    def test_kappa_rejected_elsewhere(self):
        with pytest.raises(ConfigurationError):
            ReferenceDistribution(DistKind.BENFORD, kappa=2.0)

    @pytest.mark.parametrize("kappa", [1e-300, 1e300])
    def test_poisson_whose_digit_probabilities_underflow_rejected(self, kappa):
        # P(9) (small kappa) or P(1) (large kappa) is 0.0 in floats, and the
        # mean deviation divides by it
        with pytest.raises(ConfigurationError, match="probability below 1e-300"):
            ReferenceDistribution(DistKind.POISSON, kappa)

    @pytest.mark.parametrize("kappa", [1.7e-37, 1.5e38])
    def test_most_lopsided_poisson_laws_score_finitely(self, kappa):
        # next to either end of the accepted kappa: one count of the least
        # likely digit gives the largest mean deviation
        dist = ReferenceDistribution(DistKind.POISSON, kappa)
        p = probabilities(dist)
        assert 1e-300 <= p.min() < 1e-299
        counts = np.eye(9, dtype=np.int64)[np.argmin(p)]
        for metric in Metric:
            assert np.isfinite(violations(counts, dist, metric)).all()


class TestExpectedCounts:
    def test_benford_900(self):
        e = expected_counts(ReferenceDistribution.benford(), 900)
        assert e[0] == pytest.approx(900 * math.log10(2.0), abs=1e-9)
        assert e[0] == pytest.approx(270.93, abs=0.01)

    def test_uniform_900(self):
        uniform = ReferenceDistribution(DistKind.UNIFORM)
        assert expected_counts(uniform, 900) == pytest.approx([100.0] * 9)

    @pytest.mark.parametrize("n", [1, 10, 12345])
    def test_sums_to_n(self, n):
        for dist in (ReferenceDistribution.benford(),
                     ReferenceDistribution(DistKind.POISSON, 3.0)):
            assert expected_counts(dist, n).sum() == pytest.approx(n, abs=1e-9)

    def test_requires_positive_n(self):
        with pytest.raises(DomainError):
            expected_counts(ReferenceDistribution.benford(), 0)
