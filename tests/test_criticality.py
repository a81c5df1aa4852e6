import math

import numpy as np
import pytest

from benford_xy import criticality, xy_exact
from benford_xy.criticality import (
    RIDGE_SPAN,
    RIDGE_STEP,
    CrossoverQuantity,
    Signature,
    auto_fit_range,
    crossover_lines,
    local_slopes,
    locate_transition,
    scaling_exponent,
)
from benford_xy.errors import (
    ConfigurationError,
    DegenerateWindowError,
    InsufficientRidgeError,
    MixedSideError,
    NoTransitionError,
)
from benford_xy.firstdigit import DistKind, ReferenceDistribution, histogram, rescale_unit
from benford_xy.violation import violations
from benford_xy.windowscan import (
    Observable,
    ScanConfig,
    ScanResult,
    WindowLattice,
)
from benford_xy.xy_exact import mz_infinite_many


UNIFORM = ReferenceDistribution(DistKind.UNIFORM)
LAWS = [UNIFORM, ReferenceDistribution.benford(), ReferenceDistribution(DistKind.POISSON, 5.0)]


def synthetic_result(mids, f, lambda_range=(0.9, 1.06), dist=ReferenceDistribution.benford()):
    config = ScanConfig(
        observable=Observable.MZ,
        gamma=1.0,
        lambda_range=lambda_range,
        lambda_step=0.005,
        n_sites=30,
        dist=dist,
    )
    mids = np.asarray(mids, dtype=float)
    return ScanResult(config, mids, np.asarray(f(mids), dtype=float), np.empty(0))


GRID = np.arange(0.93, 1.03 + 1e-9, 0.005)


class TestLawPicksLocator:
    # a dip at 0.99 and a steepness flip at 0.98 in one cubic
    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind.value)
    def test_uniform_finds_the_dip_others_the_flip(self, dist):
        r = synthetic_result(GRID, lambda x: (x - 0.98) ** 3 - 3e-4 * (x - 0.98), dist=dist)
        est = locate_transition(r, (0.93, 1.03))
        if dist is UNIFORM:
            assert est.signature is Signature.MINIMUM
            assert est.lambda_c_n == pytest.approx(0.99, abs=1e-9)
        else:
            assert est.signature is Signature.DERIVATIVE_MIN
            assert est.lambda_c_n == pytest.approx(0.98, abs=1e-9)

    # a dip at 0.94 and the steepest region at 1
    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind.value)
    def test_fit_range_centres_on_the_dip_or_the_flip(self, dist):
        mids = np.arange(0.9, 1.06 + 1e-9, 0.004)
        r = synthetic_result(
            mids, lambda x: 0.5 * np.tanh((x - 1.0) / 0.01) + 200.0 * (x - 0.94) ** 2, dist=dist
        )
        lo, hi = auto_fit_range(r)
        if dist is UNIFORM:
            assert (lo + hi) / 2 == pytest.approx(0.94, abs=1e-9)
        else:
            assert abs((lo + hi) / 2 - 1.0) < 0.01


class TestLocalSlopes:
    def test_recovers_line_slope(self):
        x = np.arange(0.0, 1.0001, 0.05)
        s = local_slopes(x, 2.0 * x + 1.0, half=0.12)
        assert np.allclose(s[np.isfinite(s)], 2.0, atol=1e-12)

    def test_nan_where_fewer_than_four_neighbours(self):
        x = np.arange(0.0, 1.0001, 0.1)
        s = local_slopes(x, x.copy(), half=0.25)
        assert math.isnan(s[0]) and not math.isnan(s[5])

    @staticmethod
    def per_point_slopes(x, y, half):
        # one neighbourhood at a time, each a 1-D slice
        s = np.full(x.size, np.nan)
        for i in range(x.size):
            lo = np.searchsorted(x, x[i] - half, side="left")
            hi = np.searchsorted(x, x[i] + half, side="right")
            if hi - lo >= 4:
                xs, ys = x[lo:hi], y[lo:hi]
                dx = xs - xs.mean()
                with np.errstate(invalid="ignore"):
                    s[i] = (dx * (ys - ys.mean())).sum() / (dx * dx).sum()
        return s

    # irregular and regular x, repeated x, half wider than the range (1.0),
    # and neighbourhoods of fewer than 4 points, NaN in the reference
    @pytest.mark.parametrize("seed", range(40))
    def test_bits_equal_per_point_slopes(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 120))
        if seed % 4 == 0:
            x = 0.9 + 0.002 * np.arange(size)
        else:
            x = np.sort(rng.uniform(0.8, 1.2, size))
        if seed % 4 == 1:
            # repeated x values
            x = np.sort(np.concatenate([x, x[rng.integers(0, size, size // 3 + 1)]]))
        y = rng.normal(size=x.size).cumsum()
        for half in (0.003, 0.01, 0.03, 0.05, 1.0):
            want = self.per_point_slopes(x, y, half)
            got = local_slopes(x, y, half)
            assert np.array_equal(got, want, equal_nan=True), half


class TestLocateTransition:
    def test_cubic_derivative_minimum(self):
        r = synthetic_result(GRID, lambda x: (x - 0.98) ** 3 - 0.01 * (x - 0.98))
        est = locate_transition(r, (0.93, 1.03))
        assert est.lambda_c_n == pytest.approx(0.98, abs=1e-9)
        assert est.signature is Signature.DERIVATIVE_MIN

    def test_mirrored_cubic_derivative_maximum(self):
        r = synthetic_result(GRID, lambda x: -((x - 0.98) ** 3) + 0.01 * (x - 0.98))
        est = locate_transition(r, (0.93, 1.03))
        assert est.lambda_c_n == pytest.approx(0.98, abs=1e-9)
        assert est.signature is Signature.DERIVATIVE_MAX

    def test_parabola_minimum(self):
        grid = np.arange(0.96, 1.06 + 1e-9, 0.005)
        r = synthetic_result(grid, lambda x: (x - 1.01) ** 2, dist=UNIFORM)
        est = locate_transition(r, (0.96, 1.06))
        assert est.lambda_c_n == pytest.approx(1.01, abs=1e-9)
        assert est.signature is Signature.MINIMUM

    def test_tilted_minimum(self):
        r = synthetic_result(GRID, lambda x: (x - 1.0) ** 2 + 0.5 * (x - 1.0) ** 3, dist=UNIFORM)
        est = locate_transition(r, (0.95, 1.03))
        assert est.lambda_c_n == pytest.approx(1.0, abs=1e-9)

    def test_shift_equivariance(self):
        f = lambda x: (x - 0.98) ** 3 - 0.01 * (x - 0.98)
        r1 = synthetic_result(GRID, f)
        r2 = synthetic_result(GRID + 0.1, lambda x: f(x - 0.1), lambda_range=(1.0, 1.16))
        e1 = locate_transition(r1, (0.93, 1.03))
        e2 = locate_transition(r2, (1.03, 1.13))
        assert e2.lambda_c_n - e1.lambda_c_n == pytest.approx(0.1, abs=1e-9)

    def test_reported_fit_is_in_centred_coordinates(self):
        f = lambda x: (x - 0.985) ** 3 - 0.01 * (x - 0.985)
        r = synthetic_result(GRID, f)
        est = locate_transition(r, (0.93, 1.03))
        c0, c1, c2, c3 = est.fit.coefficients
        assert est.fit_center + -c2 / (3.0 * c3) == pytest.approx(est.lambda_c_n, rel=1e-12)
        u = GRID - est.fit_center
        assert np.polynomial.polynomial.polyval(u, est.fit.coefficients) == pytest.approx(
            f(GRID), abs=1e-12
        )
        assert est.fit.rms_residual < 1e-12

    def test_inflection_outside_range_rejected(self):
        r = synthetic_result(GRID, lambda x: (x - 2.0) ** 3)
        with pytest.raises(NoTransitionError):
            locate_transition(r, (0.93, 1.03))

    def test_pure_parabola_has_no_derivative_extremum(self):
        r = synthetic_result(GRID, lambda x: (x - 1.0) ** 2)
        with pytest.raises(NoTransitionError):
            locate_transition(r, (0.93, 1.03))

    def test_line_has_no_minimum(self):
        r = synthetic_result(GRID, lambda x: 2.0 * x + 1.0, dist=UNIFORM)
        with pytest.raises(NoTransitionError):
            locate_transition(r, (0.93, 1.03))

    @pytest.mark.parametrize("dist, message", [
        (UNIFORM, "no curvature"),
        (ReferenceDistribution.benford(), "degenerated to a parabola"),
    ], ids=["uniform", "benford"])
    def test_flat_curve_has_no_transition(self, dist, message):
        r = synthetic_result(GRID, np.zeros_like, dist=dist)
        with pytest.raises(NoTransitionError, match=message):
            locate_transition(r, (0.93, 1.03))

    def test_too_few_points(self):
        r = synthetic_result(GRID, lambda x: x)
        with pytest.raises(ConfigurationError):
            locate_transition(r, (0.93, 0.96))

    def test_inverted_range(self):
        r = synthetic_result(GRID, lambda x: x)
        with pytest.raises(ConfigurationError):
            locate_transition(r, (1.03, 0.93))


class TestAutoFitRange:
    def test_centers_on_steepest_region(self):
        mids = np.arange(0.9, 1.06 + 1e-9, 0.004)
        r = synthetic_result(mids, lambda x: np.tanh((x - 1.0) / 0.01))
        lo, hi = auto_fit_range(r)
        assert lo == pytest.approx(0.95, abs=1e-9)
        assert hi == pytest.approx(1.05, abs=1e-9)

    def test_centers_on_interior_minimum(self):
        mids = np.arange(0.9, 1.06 + 1e-9, 0.004)
        r = synthetic_result(mids, lambda x: (x - 1.004) ** 2, dist=UNIFORM)
        lo, hi = auto_fit_range(r, fit_half=0.03)
        assert lo == pytest.approx(1.004 - 0.03, abs=1e-9)
        assert hi == pytest.approx(1.004 + 0.03, abs=1e-9)

    def test_clipped_edge_windows_are_ignored(self):
        # fake a steep wall inside the clipped edge zone; the centre must not move there
        mids = np.arange(0.9, 1.06 + 1e-9, 0.004)

        def f(x):
            return np.tanh((x - 1.0) / 0.01) + 50.0 * np.clip(0.905 - x, 0.0, None)

        r = synthetic_result(mids, f)
        lo, hi = auto_fit_range(r)
        assert lo == pytest.approx(0.95, abs=0.02)

    def test_too_few_interior_points(self):
        mids = np.array([0.986, 0.99, 0.995, 1.0, 1.005, 1.014])
        r = synthetic_result(
            mids, lambda x: x, lambda_range=(0.985, 1.015)
        )
        with pytest.raises(NoTransitionError):
            auto_fit_range(r)

    def test_no_window_with_enough_neighbours(self):
        mids = np.arange(0.9, 1.06 + 1e-9, 0.004)
        r = synthetic_result(mids, lambda x: np.tanh((x - 1.0) / 0.01))
        with pytest.raises(NoTransitionError, match="enough neighbours"):
            auto_fit_range(r, smooth_half=1e-3)


SIZES = [14, 20, 24, 30, 34, 40]


class TestScalingExponent:
    @pytest.mark.parametrize("alpha", [-1.0, -2.0, -3.0])
    def test_recovers_synthetic_power_law(self, alpha):
        fit = scaling_exponent(SIZES, [1.0 - 0.5 * n ** alpha for n in SIZES])
        assert fit.exponent == pytest.approx(alpha, abs=1e-9)
        assert fit.prefactor == pytest.approx(-0.5, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(0.5), abs=1e-9)
        assert fit.rms_residual < 1e-10

    def test_wrong_side_estimates_rejected_with_offenders(self):
        with pytest.raises(MixedSideError) as exc:
            scaling_exponent([10, 20, 40], [0.95, 0.99, 1.01])
        assert exc.value.offenders == [40]
        assert "40" in str(exc.value)

    def test_needs_three_estimates(self):
        with pytest.raises(ConfigurationError, match="at least 3"):
            scaling_exponent([10, 20], [0.95, 0.99])

    def test_needs_one_lambda_c_n_per_size(self):
        with pytest.raises(ConfigurationError, match="one lambda_c_n each"):
            scaling_exponent([10, 20, 40], [0.95, 0.99])

    def test_needs_distinct_sizes(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            scaling_exponent([10, 10, 20], [0.95, 0.96, 0.99])


class TestRidgeGrid:
    def test_centers_scale_with_temperature(self):
        c = 1.0 + 1e-4 * criticality._ridge_offsets(3.0, 0.025)
        assert c.size == 241
        assert c[0] == pytest.approx(1.0 - 3e-4)
        assert c[-1] == pytest.approx(1.0 + 3e-4)
        assert 1.0 in c

    def test_default_offsets_keep_their_bits(self):
        u = criticality._ridge_offsets(RIDGE_SPAN, RIDGE_STEP)
        assert u.tobytes() == np.arange(-3.0, 3.0 + 1e-12, 0.025).tobytes()

    # a stop of span + 1e-12 once dropped +span at large scales and ran
    # 9 steps past it at small ones
    @pytest.mark.parametrize(
        "span, step, count", [(1e4, 1.0, 20_001), (5e3, 0.5, 20_001), (1e-10, 1e-13, 2001)]
    )
    def test_offsets_end_at_plus_span_at_any_scale(self, span, step, count):
        u = criticality._ridge_offsets(span, step)
        assert u.size == count
        assert u[0] == -span and abs(u[-1] - span) < 0.5 * step


class TestCrossoverLines:
    def test_dmzdt_slopes_and_intercepts(self):
        lines = crossover_lines(
            CrossoverQuantity.DMZDT,
            gamma=1.0,
            t_grid=(1e-4, 2e-4, 5e-4),
            span=3.0,
            step=0.025,
        )
        assert lines.left.slope == pytest.approx(-0.5943, abs=0.02)
        assert lines.right.slope == pytest.approx(+0.5943, abs=0.02)
        assert lines.left.slope + lines.right.slope == pytest.approx(0.0, abs=0.01)
        # both lines extrapolate to the zero-temperature transition
        for line in (lines.left, lines.right):
            assert -line.intercept / line.slope == pytest.approx(1.0, abs=1e-5)
        assert lines.warnings == ()
        assert lines.ridge.shape == (2, 3) and np.isfinite(lines.ridge).all()

    def test_string_quantity_accepted(self):
        lines = crossover_lines(
            "dmzdt", 1.0, (2e-4, 3e-4, 4e-4), span=3.0, step=0.05
        )
        assert lines.left.slope < 0 < lines.right.slope

    def test_unbracketed_points_warn_and_are_omitted(self, monkeypatch):
        def fake_slice(quantity, gamma, t, u, centers, lattice, dist, metric):
            if t == 1e-4:
                return math.nan, 1.0 + 0.5 * t
            return 1.0 - 0.5 * t, 1.0 + 0.5 * t

        monkeypatch.setattr(criticality, "_ridge_slice", fake_slice)
        grid = (1e-4, 2e-4, 3e-4, 4e-4)
        lines = crossover_lines(CrossoverQuantity.DMZDT, 1.0, grid)
        assert lines.ridge.shape == (2, 4)
        assert lines.t_tilde.tolist() == list(grid)
        assert np.isnan(lines.ridge).tolist() == [[True, False, False, False], [False] * 4]
        assert lines.warnings == ("t_tilde=0.0001: left extremum not bracketed; point omitted",)
        assert lines.left.slope == pytest.approx(-2.0, abs=1e-9)
        assert lines.right.slope == pytest.approx(+2.0, abs=1e-9)
        assert -lines.left.intercept / lines.left.slope == pytest.approx(1.0, abs=1e-9)

    def test_too_few_ridge_points_rejected(self):
        with pytest.raises(InsufficientRidgeError):
            crossover_lines(
                CrossoverQuantity.DMZDT,
                1.0,
                (2e-4, 4e-4),
                span=3.0,
                step=0.05,
            )

    def test_branch_named_when_extrema_unbracketed(self):
        # a grid too narrow to bracket the ridge loses every branch point
        with pytest.raises(InsufficientRidgeError) as exc:
            crossover_lines(
                CrossoverQuantity.DMZDT,
                1.0,
                (1e-4, 2e-4, 5e-4),
                span=1.0,
                step=0.05,
            )
        assert "left" in str(exc.value) or "right" in str(exc.value)

    # a side of lambda = 1 with no centre once crashed in nanargmax / nanargmin
    @pytest.mark.parametrize("quantity", list(CrossoverQuantity))
    @pytest.mark.parametrize("span, step", [(3.0, 10.0), (0.01, 0.025)])
    def test_side_without_centres_is_insufficient_ridge(self, quantity, span, step):
        with pytest.raises(InsufficientRidgeError, match="left branch has 0 ridge points"):
            crossover_lines(quantity, 1.0, (1e-4, 2e-4, 3e-4), span=span, step=step)

    @pytest.mark.parametrize("quantity", list(CrossoverQuantity))
    def test_empty_temperature_grid_rejected(self, quantity):
        with pytest.raises(ConfigurationError, match="at least one temperature"):
            crossover_lines(quantity, 1.0, [])

    @pytest.mark.parametrize("ratio", [0.0, math.inf, math.nan])
    def test_window_ratio_must_be_positive_and_finite(self, ratio):
        with pytest.raises(ConfigurationError, match="window_ratio must be positive and finite"):
            crossover_lines(CrossoverQuantity.BVP, 1.0, (1e-4, 2e-4, 5e-4), window_ratio=ratio)

    # a repeated temperature once failed numerically ("all x values
    # identical"), or fitted a branch's 3 points through 2 temperatures
    @pytest.mark.parametrize("quantity", list(CrossoverQuantity))
    @pytest.mark.parametrize("ts", [(1e-4, 1e-4, 1e-4), (1e-4, 2e-4, 2e-4)])
    def test_repeated_temperature_rejected_before_any_ridge(self, monkeypatch, quantity, ts):
        def kernel(*args):
            raise AssertionError("a ridge was computed")

        monkeypatch.setattr(xy_exact, "mz_infinite_many", kernel)
        monkeypatch.setattr(xy_exact, "dmz_dT_many", kernel)
        with pytest.raises(ConfigurationError, match="repeats a temperature"):
            crossover_lines(quantity, 1.0, ts)

    @pytest.mark.parametrize("quantity", list(CrossoverQuantity))
    def test_grid_past_the_largest_lambda_rejected_before_any_ridge(self, monkeypatch, quantity):
        # 1 + 1e160 * span overflows the kernels' squares
        def kernel(*args):
            raise AssertionError("a ridge was computed")

        monkeypatch.setattr(xy_exact, "mz_infinite_many", kernel)
        monkeypatch.setattr(xy_exact, "dmz_dT_many", kernel)
        with pytest.raises(ConfigurationError, match="\\|lambda\\| <= 1e\\+12"):
            crossover_lines(quantity, 1.0, (1e160, 2e160, 3e160))

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigurationError):
            crossover_lines(CrossoverQuantity.DMZDT, 1.0, (0.0, 1e-4, 2e-4))

    @pytest.mark.parametrize("quantity", list(CrossoverQuantity))
    @pytest.mark.parametrize("t", [1e-17, 5e-15])
    def test_collapsed_ridge_grid_rejected_before_any_ridge(self, monkeypatch, quantity, t):
        # below about 5e-15, 1 + t * u rounds neighbouring u to one lambda
        def kernel(*args):
            raise AssertionError("a ridge was computed")

        monkeypatch.setattr(xy_exact, "mz_infinite_many", kernel)
        monkeypatch.setattr(xy_exact, "dmz_dT_many", kernel)
        with pytest.raises(ConfigurationError, match=f"t_tilde={t:g}"):
            crossover_lines(quantity, 1.0, (1e-4, 2e-4, t))

    def test_bvp_window_deltas_finite(self):
        # 600 samples per window still give finite deltas that bracket both
        # ridge extrema on the correct side of lambda = 1
        lines = crossover_lines(
            CrossoverQuantity.BVP, 1.0, (1e-4, 2e-4, 5e-4), samples=600
        )
        assert lines.warnings == ()
        assert lines.ridge.shape == (2, 3)
        assert (lines.ridge[0] < 1.0).all() and (1.0 < lines.ridge[1]).all()

    def test_flat_bvp_window_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(xy_exact, "mz_infinite_many",
                            lambda lams, gamma, t_tilde: np.full(np.size(lams), 0.3))
        with pytest.raises(DegenerateWindowError, match="t_tilde=0.0001"):
            crossover_lines(CrossoverQuantity.BVP, 1.0, (1e-4, 2e-4, 5e-4), samples=600)

    @staticmethod
    def fail_on_any_grid(monkeypatch):
        def fail(*args):
            raise AssertionError("a ridge grid or kernel was computed")

        for module, name in [(xy_exact, "mz_infinite_many"), (xy_exact, "dmz_dT_many"),
                             (criticality, "_ridge_offsets")]:
            monkeypatch.setattr(module, name, fail)

    # crossover_lines is the one place that checks its grid settings
    @pytest.mark.parametrize("quantity", list(CrossoverQuantity))
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("setting", ["span", "step", "window_ratio"])
    def test_grid_settings_checked_before_any_kernel(self, monkeypatch, setting, value, quantity):
        self.fail_on_any_grid(monkeypatch)
        with pytest.raises(ConfigurationError,
                           match="span, step and window_ratio must be positive and finite"):
            crossover_lines(quantity, 1.0, (1e-4, 2e-4, 5e-4), **{setting: value})

    @pytest.mark.parametrize("step", [1e-300, 1e-320])
    def test_grid_too_large_to_index_rejected(self, monkeypatch, step):
        self.fail_on_any_grid(monkeypatch)
        with pytest.raises(ConfigurationError, match="grid of more than"):
            crossover_lines(CrossoverQuantity.DMZDT, 1.0, (1e-4, 2e-4, 5e-4), step=step)


class TestRefineWindow:
    @pytest.mark.parametrize("t", [1.0, 1e-4, 1e-9])
    @pytest.mark.parametrize("want_max", [False, True])
    def test_vertex_of_a_parabola_at_any_step(self, t, want_max):
        # a ridge grid at temperature t: steps of 0.025 t about lambda = 1
        x = 1.0 + t * criticality._ridge_offsets(RIDGE_SPAN, RIDGE_STEP)
        c = 1.0 + 0.3 * t
        y = ((x - c) / t) ** 2 * (-1.0 if want_max else 1.0)
        k = int(np.argmax(y) if want_max else np.argmin(y))
        got = criticality._refine_window(x, y, k, 12, want_max)
        assert got == pytest.approx(c, rel=0, abs=1e-6 * 0.025 * t + 4e-16)

    def test_flat_triple_keeps_the_sampled_centre(self):
        x = np.array([0.9, 1.0, 1.1])
        assert criticality._refine3(x, np.full(3, 0.5), 1) == 1.0


class TestViolationLattice:
    T = 2e-4
    SAMPLES = 600
    U = criticality._ridge_offsets(RIDGE_SPAN, RIDGE_STEP)
    LATTICE = WindowLattice(RIDGE_STEP, 1.0, SAMPLES)
    BENFORD = ReferenceDistribution.benford()
    METRIC = criticality.Metric.MEAN_DEVIATION

    def bvp_deltas(self, monkeypatch):
        """_bvp_deltas at gamma = 1, and its lambda lattice: the lambda of
        every mz_infinite_many call, in call order. Each call holds at most
        one window of points, and every lattice point is evaluated once."""
        calls = []

        def spy(lams, gamma, t_tilde):
            calls.append(lams)
            return mz_infinite_many(lams, gamma, t_tilde)

        monkeypatch.setattr(xy_exact, "mz_infinite_many", spy)
        deltas = criticality._bvp_deltas(
            1.0, self.T, self.U, self.LATTICE, self.BENFORD, self.METRIC
        )
        assert all(lams.size <= self.SAMPLES for lams in calls)
        lattice = np.concatenate(calls)
        assert np.all(np.diff(lattice) > 0)
        return deltas, lattice

    def test_stride(self):
        assert WindowLattice(0.025, 1.0, 12_000).stride == 300
        assert WindowLattice(0.025, 1.0, 3000).stride == 75
        assert WindowLattice(0.025, 1.0, 10).stride == 1

    def test_windows_are_symmetric_slices_around_centers(self, monkeypatch):
        _, lattice = self.bvp_deltas(monkeypatch)
        m = self.LATTICE.stride
        centers = 1.0 + self.T * self.U
        assert lattice.size == (centers.size - 1) * m + self.SAMPLES
        assert np.allclose(np.diff(lattice), RIDGE_STEP * self.T / m, rtol=1e-9, atol=0)
        for i, c in enumerate(centers):
            window = lattice[i * m : i * m + self.SAMPLES]
            assert np.allclose(window - c, (c - window)[::-1], rtol=0, atol=1e-15)
        # a window spans (samples - 1) lattice steps, (1 - 1/samples) t here
        span = lattice[self.SAMPLES - 1] - lattice[0]
        assert span == pytest.approx((1 - 1 / self.SAMPLES) * self.T, rel=1e-9)

    def test_lattice_deltas_match_per_window_evaluation(self, monkeypatch):
        deltas, lattice = self.bvp_deltas(monkeypatch)
        m = self.LATTICE.stride
        assert deltas.shape == self.U.shape
        assert np.all(np.isfinite(deltas)) and np.all(deltas >= 0)
        for i, got in enumerate(deltas):
            window = lattice[i * m : i * m + self.SAMPLES]
            values = mz_infinite_many(window, 1.0, self.T)
            counts = histogram(rescale_unit(values))
            assert got == violations(counts, self.BENFORD, self.METRIC)[0]
