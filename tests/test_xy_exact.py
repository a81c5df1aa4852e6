import math

import numpy as np
import pytest

import benford_xy
from benford_xy import ModelParams, criticality, windowscan, xy_exact
from benford_xy.errors import ConfigurationError, DomainError
from benford_xy.firstdigit import ReferenceDistribution
from benford_xy.violation import Metric
from benford_xy.xy_exact import (
    correlator_g_many,
    diagonal_correlators,
    dispersion,
    dmz_dT_many,
    mz_finite_many,
    mz_infinite,
)


class TestModelParams:
    def test_zero_gamma_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelParams(gamma=0.0, lam=1.0)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelParams(gamma=1.0, lam=1.0, beta_tilde=0.0)
        with pytest.raises(ConfigurationError):
            ModelParams(gamma=1.0, lam=1.0, beta_tilde=-2.0)

    def test_odd_or_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelParams(gamma=1.0, lam=1.0, n_sites=15)
        with pytest.raises(ConfigurationError):
            ModelParams(gamma=1.0, lam=1.0, n_sites=2)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelParams(gamma=1.0, lam=0.5, beta_tilde=1.0 / -1e-4)


class TestDispersion:
    def test_ising_at_pi(self):
        assert dispersion(1.0, 1.0, math.pi) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("lam", [-1.5, 0.0, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_phi_zero_kills_sine(self, lam, gamma):
        assert dispersion(lam, gamma, 0.0) == pytest.approx(abs(lam - 1.0), abs=1e-15)

    def test_direct_evaluation(self):
        assert dispersion(1.0, 0.5, math.pi / 2) == pytest.approx(math.sqrt(1.25), abs=1e-15)

    def test_even_in_gamma(self):
        phi = np.linspace(0.0, math.pi, 17)
        assert np.allclose(dispersion(0.7, 0.4, phi), dispersion(0.7, -0.4, phi), atol=0)


class TestMzInfinite:
    def test_ising_critical_point(self):
        v = mz_infinite(ModelParams(gamma=1.0, lam=1.0))
        assert v == pytest.approx(2.0 / math.pi, abs=1e-8)

    def test_zero_field(self):
        assert mz_infinite(ModelParams(gamma=1.0, lam=0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_strong_field_saturates_positive(self):
        assert mz_infinite(ModelParams(gamma=1.0, lam=50.0)) == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_lambda_at_gamma_one(self):
        vals = [mz_infinite(ModelParams(gamma=1.0, lam=l)) for l in np.linspace(0.0, 2.0, 21)]
        assert np.all(np.diff(vals) > 0)

    def test_rejects_finite_chain(self):
        with pytest.raises(ConfigurationError):
            mz_infinite(ModelParams(gamma=1.0, lam=1.0, n_sites=10))

    def test_node_doubling_away_from_critical(self):
        # the closed form agrees with graded quadrature at 32 and at 64 nodes
        # per panel, so neither side moves when the node count is doubled
        p = ModelParams(gamma=0.5, lam=0.5)
        for order in (32, 64):
            assert abs(mz_infinite(p) - _graded_reference(0.5, 0.5, order)[0]) < 1e-13

    def test_node_doubling_at_critical_kink(self):
        p = ModelParams(gamma=0.5, lam=1.0)
        for order in (32, 64):
            assert abs(mz_infinite(p) - _graded_reference(1.0, 0.5, order)[0]) < 1e-13

    def test_thermal_value_between_zero_and_ground_state(self):
        cold = mz_infinite(ModelParams(gamma=1.0, lam=1.0))
        warm = mz_infinite(ModelParams(gamma=1.0, lam=1.0, beta_tilde=1.0 / 0.5))
        assert 0.0 < warm < cold


def _graded_reference(lam: float, gamma: float, order: int = 32) -> np.ndarray:
    """(Mz, G(-1), G(+1)) at T = 0 by order-point Gauss-Legendre panels, 64
    uniform ones plus ladders halving down to 5e-18 toward phi = 0, phi = pi
    and the interior minimum of the dispersion, where the integrands have
    structure of width |lambda -+ 1|. lambda - cos phi is formed from
    (lambda -+ 1) and half angles, so it keeps its digits next to lambda = +-1.
    """
    centres = [0.0, math.pi]
    if abs(lam) < 1.0 - gamma * gamma:
        centres.append(math.acos(lam / (1.0 - gamma * gamma)))
    edges = set(np.linspace(0.0, math.pi, 65))
    for c in centres:
        for off in math.pi * 2.0 ** -np.arange(1.0, 60.0):
            edges.update(e for e in (c - off, c + off) if 0.0 < e < math.pi)
    edges = np.array(sorted(edges))
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    phi = ((edges[:-1, None] + half) + half * x).ravel()
    w = (half * w).ravel()
    if lam >= 0.0:
        d = (lam - 1.0) + 2.0 * np.sin(0.5 * phi) ** 2
    else:
        d = (lam + 1.0) - 2.0 * np.cos(0.5 * phi) ** 2
    s2 = np.sin(phi) ** 2
    disp = np.sqrt(gamma * gamma * s2 + d * d)
    even = np.cos(phi) * d
    return np.array([w @ (d / disp), w @ ((even - gamma * s2) / disp),
                     w @ ((even + gamma * s2) / disp)]) / math.pi


def _ising_agm(lam: float) -> tuple[float, float]:
    """Mz and G(-1) of the Ising chain (gamma = 1) at T = 0, lambda > 0 and
    not 1, from the Barouch-McCoy closed forms with m = 4 lambda / (1 +
    lambda)^2, K(m) and E(m) by the arithmetic-geometric mean."""
    a, b = 1.0, abs((1.0 - lam) / (1.0 + lam))
    c2 = 4.0 * lam / (1.0 + lam) ** 2
    total, power = 0.5 * c2, 0.5
    for _ in range(40):  # a and b meet to rounding in under ten steps
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        total += power * c * c
    k = math.pi / (2.0 * a)
    e = k * (1.0 - total)
    mz = ((1.0 + lam) * e - (1.0 - lam) * k) / (math.pi * lam)
    return mz, ((lam - 1.0) * k - (1.0 + lam) * e) / math.pi


GROUND_GAMMAS = [0.1, 0.5, 1.0, 1.6, -0.5]


def _ground_lambdas(gamma: float) -> list[float]:
    # down to 1e-10 either side of lambda = 1, both singular points lambda =
    # +-1 exactly, and inside, on and outside the disorder circle
    # lambda^2 + gamma^2 = 1
    near = [1.0 + s * d for d in (1e-10, 1e-8, 1e-5, 1e-3, 1e-1) for s in (-1.0, 1.0)]
    circle = math.sqrt(max(0.0, 1.0 - gamma * gamma))
    return near + [-2.0, -1.0, 0.0, 0.5, 1.0, 50.0, 0.9 * circle, circle, 0.5 * (circle + 1.0)]


class TestGroundState:
    # the closed-form T = 0 kernel, mz_and_correlators_many

    @pytest.mark.parametrize("gamma", GROUND_GAMMAS)
    def test_matches_graded_quadrature(self, gamma):
        # a nan or inf at lambda = +-1 fails the comparison too
        lams = _ground_lambdas(gamma)
        got = xy_exact.mz_and_correlators_many(lams, gamma)
        want = np.array([_graded_reference(lam, gamma) for lam in lams]).T
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("gamma", GROUND_GAMMAS)
    def test_mz_alone_keeps_its_bits(self, gamma):
        # at T = 0 mz_infinite_many skips the dX/dp chain, which only G(+-1)
        # read: Mz must keep the bits of the three rows, on the singular
        # points and on a 10 000-point lattice through lambda = 1, and
        # G(+-1) must still match graded quadrature
        ground = _ground_lambdas(gamma)
        lams = np.concatenate([ground, 1.0 + 1e-4 * np.arange(-5000, 5000)])
        rows = xy_exact.mz_and_correlators_many(lams, gamma)
        assert np.array_equal(xy_exact.mz_infinite_many(lams, gamma), rows[0])
        want = np.array([_graded_reference(lam, gamma) for lam in ground]).T
        assert np.max(np.abs(rows[1:, : len(ground)] - want[1:])) <= 1e-13

    def test_ising_matches_agm_closed_forms(self):
        lams = [0.2, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 + 1e-6, 1.001, 1.5, 3.0, 10.0]
        mz, g_minus, _ = xy_exact.mz_and_correlators_many(lams, 1.0)
        want = np.array([_ising_agm(lam) for lam in lams]).T
        assert np.max(np.abs(mz - want[0])) <= 1e-13
        assert np.max(np.abs(g_minus - want[1])) <= 1e-13

    def test_ising_critical_values(self):
        mz, g_minus, _ = xy_exact.mz_and_correlators_many([1.0], 1.0)[:, 0]
        assert abs(mz - 2.0 / math.pi) <= 1e-15
        assert abs(g_minus + 2.0 / math.pi) <= 1e-15

    @pytest.mark.parametrize("lam", [0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0])
    def test_continuous_across_gamma_one(self, lam):
        at_one = xy_exact.mz_and_correlators_many([lam], 1.0)
        for gamma in (1.0 - 1e-9, 1.0 + 1e-9):
            near = xy_exact.mz_and_correlators_many([lam], gamma)
            assert np.max(np.abs(near - at_one)) <= 1e-8

    @pytest.mark.parametrize("gamma", GROUND_GAMMAS)
    def test_symmetries(self, gamma):
        lams = np.array(_ground_lambdas(gamma))
        mz, g_minus, g_plus = xy_exact.mz_and_correlators_many(lams, gamma)
        assert np.array_equal(g_plus, xy_exact.mz_and_correlators_many(lams, -gamma)[1])
        assert np.array_equal(xy_exact.mz_and_correlators_many(-lams, gamma)[0], -mz)

    def test_least_anisotropy(self):
        lams = [0.0, 0.5, 1.0, 2.0]
        got = xy_exact.mz_and_correlators_many(lams, 1e-30)
        want = np.array([_graded_reference(lam, 1e-30) for lam in lams]).T
        assert np.max(np.abs(got - want)) <= 1e-13
        with pytest.raises(DomainError):
            xy_exact.mz_and_correlators_many(lams, 1e-31)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 1.6])
    def test_thermal_path_tends_to_it(self, gamma):
        # one lambda per thermal call: the thermal panel ladder is placed
        # from the lambda range of the call
        lams = [1.0 + d for d in (-1e-2, -1e-5, -1e-8, 0.0, 1e-8, 1e-5, 1e-2, -0.5, 1.0)]
        cold = xy_exact.mz_infinite_many(lams, gamma)
        warm = [xy_exact.mz_infinite_many([lam], gamma, 1e12)[0] for lam in lams]
        assert np.max(np.abs(cold - warm)) <= 1e-10


class TestMzFinite:
    def test_four_site_zero_field(self):
        v = mz_finite_many([0.0], 1.0, 4)[0]
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_converges_to_infinite(self):
        # the half-circle mode sum includes phi = pi but not phi = 0, so on
        # the ordered side it sits exactly 2/N above the integral
        inf_v = mz_infinite(ModelParams(gamma=0.5, lam=0.5))
        fin_v = mz_finite_many([0.5], 0.5, 2000)[0]
        assert fin_v - inf_v == pytest.approx(2.0 / 2000, abs=1e-12)

    def test_converges_fast_on_disordered_side(self):
        # for lambda > 1 the boundary terms cancel and the mode sum is a
        # full-period trapezoid rule: agreement at modest N is near exact
        inf_v = mz_infinite(ModelParams(gamma=0.5, lam=1.5))
        fin_v = mz_finite_many([1.5], 0.5, 100)[0]
        assert abs(fin_v - inf_v) < 1e-10

    def test_discrepancy_decreases_monotonically(self):
        inf_v = mz_infinite(ModelParams(gamma=0.5, lam=0.5))
        gaps = [
            abs(mz_finite_many([0.5], 0.5, n)[0] - inf_v)
            for n in (100, 400, 1600)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_zero_mode_guarded(self):
        # at lambda = -1 the phi = pi mode has zero energy; its term drops out
        v = mz_finite_many([-1.0], 1.0, 8)[0]
        assert math.isfinite(v)


class TestCorrelators:
    def test_cxx_zero_field_ising(self):
        assert correlator_g_many(-1, [0.0], 1.0)[0] == pytest.approx(-1.0, abs=1e-8)

    def test_cyy_zero_field_ising(self):
        assert correlator_g_many(1, [0.0], 1.0)[0] == pytest.approx(0.0, abs=1e-8)

    def test_r_restricted(self):
        with pytest.raises(ConfigurationError):
            correlator_g_many(0, [0.5], 1.0)

    def test_diagonal_construction(self):
        lam, gamma = 0.7, 0.5
        cxx, cyy, czz = diagonal_correlators(lam, gamma)
        mz = mz_infinite(ModelParams(gamma=gamma, lam=lam))
        assert cxx == pytest.approx(correlator_g_many(-1, [lam], gamma)[0], abs=1e-12)
        assert cyy == pytest.approx(correlator_g_many(1, [lam], gamma)[0], abs=1e-12)
        assert czz == pytest.approx(mz * mz - cxx * cyy, abs=1e-12)

    @pytest.mark.parametrize("lam", [-2.0, 0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_pauli_bounds(self, lam, gamma):
        for c in diagonal_correlators(lam, gamma):
            assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


class TestDmzDT:
    def test_matches_finite_difference(self):
        lam, gamma, t = 0.999, 1.0, 2e-3
        h = 1e-6 * t
        fd = (
            mz_infinite(ModelParams(gamma=gamma, lam=lam, beta_tilde=1.0 / (t + h)))
            - mz_infinite(ModelParams(gamma=gamma, lam=lam, beta_tilde=1.0 / (t - h)))
        ) / (2 * h)
        assert dmz_dT_many([lam], gamma, t)[0] == pytest.approx(fd, rel=1e-6)

    def test_requires_positive_temperature(self):
        with pytest.raises(DomainError):
            dmz_dT_many([1.0], 1.0, 0.0)[0]
        with pytest.raises(DomainError):
            dmz_dT_many([1.0], 1.0, -1e-4)[0]

    def test_sign_flips_across_transition(self):
        t = 1e-4
        left = dmz_dT_many([1.0 - 2.0 * t], 1.0, t)[0]
        right = dmz_dT_many([1.0 + 2.0 * t], 1.0, t)[0]
        assert left > 0.0 > right

    def test_vanishes_deep_in_gapped_phase(self):
        # sech^2(dispersion / 2t) is exponentially negligible when the gap
        # dwarfs the temperature
        assert abs(dmz_dT_many([0.5], 1.0, 1e-4)[0]) < 1e-12


class TestRowBlocks:
    # more rows than one block of any kernel (at least 20 nodes or modes a row)
    N = 2 * (xy_exact._BLOCK_CELLS // 20) + 1

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda lams: xy_exact.mz_infinite_many(lams, 1.0, 1.0 / 3e-4),
            lambda lams: xy_exact.correlator_g_many(-1, lams, 0.5),
            lambda lams: xy_exact.dmz_dT_many(lams, 1.0, 3e-4),
            lambda lams: xy_exact.mz_finite_many(lams, 0.5, 40),
            lambda lams: xy_exact.mz_finite_many(lams, 0.5, 40, 1.0 / 0.02),
            lambda lams: xy_exact.mz_and_correlators_many(lams, 0.5),
        ],
        ids=["mz_infinite_many", "correlator_g_many", "dmz_dT_many",
             "mz_finite_many_t0", "mz_finite_many_thermal", "mz_and_correlators_many"],
    )
    def test_one_call_equals_calls_on_halves(self, kernel):
        lams = np.linspace(0.999, 1.001, self.N)
        half = self.N // 2
        whole = kernel(lams)
        halves = [kernel(lams[:half]), kernel(lams[half:])]
        assert np.array_equal(whole, np.concatenate(halves, axis=-1))

    def test_one_pass_equals_separate_kernels(self):
        # the Czz pass takes the same float operations per cell as the
        # separate Mz and G(r) kernels, so its values are the same bits
        lams = np.linspace(0.999, 1.001, self.N)
        mz, g_minus, g_plus = xy_exact.mz_and_correlators_many(lams, 0.5)
        assert np.array_equal(mz, xy_exact.mz_infinite_many(lams, 0.5))
        assert np.array_equal(g_minus, xy_exact.correlator_g_many(-1, lams, 0.5))
        assert np.array_equal(g_plus, xy_exact.correlator_g_many(1, lams, 0.5))


class TestModeSum:
    # at gamma = 1e-170 the energy of the phi = pi mode underflows to exactly
    # 0 at lambda = -1, the zero-dispersion mode the sum must drop
    @pytest.mark.parametrize("gamma", [0.5, 1e-170])
    @pytest.mark.parametrize("beta_tilde", [math.inf, 1.0 / 0.02])
    def test_matches_plain_per_mode_sum(self, gamma, beta_tilde):
        n = 40
        lams = np.array([-1.0, -0.3, 0.5, 0.98, 1.0, 1.02, 2.0])
        want = np.zeros(lams.size)
        for p in range(1, n // 2 + 1):
            phi = 2.0 * math.pi * p / n
            d = math.cos(phi) - lams
            energy = np.sqrt((gamma * math.sin(phi)) ** 2 + d * d)
            term = np.zeros(lams.size)
            live = energy > 0.0
            term[live] = d[live] / energy[live]
            if not math.isinf(beta_tilde):
                term *= np.tanh(0.5 * beta_tilde * energy)
            want += term
        want *= -2.0 / n
        got = mz_finite_many(lams, gamma, n, beta_tilde)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-15

    # even N from 4 to 128: fewer than 8 modes, exactly 8, several blocks of 8,
    # and odd and even tails after the last block
    LAMS = np.concatenate([
        [-1.0, 1.0, 1.0 - 1e-10, 1.0 + 1e-10],
        np.linspace(-1.0, 2.0, 61),
        1.0 + np.linspace(-1e-3, 1e-3, 41),
    ])

    @staticmethod
    def einsum_mode_sum(lams, gamma, n, beta_tilde):
        # the (lambda x modes) term matrix reduced row by row by einsum with
        # unit weights, the form in which the kernel's values were defined
        phi = 2.0 * math.pi * np.arange(1, n // 2 + 1) / n
        d = np.cos(phi) - lams[:, None]
        disp = d * d
        disp += (gamma * np.sin(phi)) ** 2
        disp = np.sqrt(disp)
        disp[disp == 0.0] = math.inf
        terms = d / disp
        if not math.isinf(beta_tilde):
            terms *= np.tanh(0.5 * beta_tilde * disp)
        return -(2.0 / n) * np.einsum("ij,j->i", terms, np.ones(phi.size))

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, -0.7, 1e-170])
    @pytest.mark.parametrize("beta_tilde", [math.inf, 50.0])
    def test_bits_equal_einsum_row_sum(self, gamma, beta_tilde):
        for n in range(4, 129, 2):
            want = self.einsum_mode_sum(self.LAMS, gamma, n, beta_tilde)
            assert np.array_equal(mz_finite_many(self.LAMS, gamma, n, beta_tilde), want), n

    @pytest.mark.parametrize("n", [4, 14, 16, 20, 34, 40])
    @pytest.mark.parametrize("beta_tilde", [math.inf, 50.0])
    def test_one_call_equals_calls_per_lambda(self, n, beta_tilde):
        whole = mz_finite_many(self.LAMS, 0.5, n, beta_tilde)
        single = [mz_finite_many(self.LAMS[k : k + 1], 0.5, n, beta_tilde)[0]
                  for k in range(self.LAMS.size)]
        assert np.array_equal(whole, single)


class TestPackageRoot:
    # the scalar entry points the benchmark's probes import from the package
    @pytest.mark.parametrize("lam", [0.5, 1.0 - 1e-3, 1.0 + 1e-3])
    def test_scalar_observables_are_floats(self, lam):
        mz = benford_xy.mz_infinite(benford_xy.ModelParams(gamma=1.0, lam=lam))
        cxx, cyy, czz = benford_xy.diagonal_correlators(lam, 1.0)
        assert all(type(v) is float for v in (mz, cxx, cyy, czz))
        assert czz == mz * mz - cxx * cyy


class TestThermalLadderPerCall:
    """Every thermal lambda is integrated on the rule of its fixed lambda bin,
    so one call of mz_infinite_many or dmz_dT_many over any lambda array must
    give the same bits as one call per lambda: over the crossover ridge
    lattice, a thermal scan range, a wide span and the interior gap minima
    of small anisotropy."""

    @staticmethod
    def assert_matches_single_calls(lams, gamma, t_tilde):
        # 40 spread points, and the two sides of every bin edge in lams
        bins = np.floor(lams / xy_exact._RULE_BIN)
        edges = np.flatnonzero(np.diff(bins))
        picked = np.unique(np.concatenate(
            [np.linspace(0, lams.size - 1, 40).astype(int), edges, edges + 1]
        ))
        for kernel in (
            lambda lams: xy_exact.mz_infinite_many(lams, gamma, 1.0 / t_tilde),
            lambda lams: xy_exact.dmz_dT_many(lams, gamma, t_tilde),
        ):
            whole = kernel(lams)[picked]
            single = np.array([kernel(lams[k : k + 1])[0] for k in picked])
            assert np.array_equal(whole, single)

    @pytest.mark.parametrize("t_tilde", [1e-4, 3e-4, 5e-4])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_crossover_ridge_lattice(self, gamma, t_tilde):
        grid = criticality.RidgeGrid()
        lattice = windowscan.WindowLattice(grid.step, 1.0, 3000)
        count = grid.centers(t_tilde).size
        offsets = lattice.offsets(0, (count - 1) * lattice.stride + lattice.samples)
        self.assert_matches_single_calls(1.0 + t_tilde * (-grid.span + offsets), gamma, t_tilde)

    @pytest.mark.parametrize("t_tilde", [1e-3, 3e-4])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_thermal_scan_segment(self, gamma, t_tilde):
        # the whole lattice of a default-sampled scan over 0.98...1.02
        lattice = windowscan.WindowLattice(0.002, 0.02, 10_000)
        lams = 0.98 + lattice.offsets(0, 20 * lattice.stride + lattice.samples)
        self.assert_matches_single_calls(lams[(lams >= 0.98) & (lams <= 1.02)], gamma, t_tilde)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_wide_span_near_the_critical_point(self, gamma):
        # one call from lambda = -1 to 2 needs the ladders of its lambda next to 1
        near = [1.0 + s * d for d in (1e-2, 1e-3, 1e-5, 1e-8) for s in (-1.0, 1.0)]
        lams = np.array(sorted(near + [1.0, 0.5, 2.0, -1.0, 0.0]))
        self.assert_matches_single_calls(lams, gamma, 1e-12)

    @pytest.mark.parametrize("t_tilde", [1e-3, 1e-4])
    def test_interior_gap_minima_at_small_anisotropy(self, t_tilde):
        # at gamma = 0.01 the dispersion is least at phi = acos(lambda / (1 -
        # gamma^2)), which moves with lambda; a rule over a call's whole span
        # missed the ladders of its inner lambda by up to 6.6e-5
        self.assert_matches_single_calls(np.linspace(-0.6, 0.6, 13), 0.01, t_tilde)


@pytest.fixture
def direct(monkeypatch):
    """A thermal kernel evaluated with every bin integrated directly on its
    rule, as for a bin whose interpolant fails its check."""
    def evaluate(kernel, lams):
        with monkeypatch.context() as m:
            m.setattr(xy_exact, "_bin_interpolant", lambda *key: None)
            return kernel(np.asarray(lams, dtype=float))

    return evaluate


def _thermal_kernels(gamma, t_tilde):
    return {
        "mz": lambda lams: xy_exact.mz_infinite_many(lams, gamma, 1.0 / t_tilde),
        "dmz_dT": lambda lams: xy_exact.dmz_dT_many(lams, gamma, t_tilde),
    }


class TestThermalInterpolant:
    """Within each rule bin the thermal kernels are the barycentric
    interpolant of their values at Chebyshev points, which must stay within
    1e-13 of the bin's direct quadrature: absolutely for Mz, relative to the
    largest value for dMz/dT."""

    @staticmethod
    def assert_close(kind, got, want):
        scale = 1.0 if kind == "mz" else np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("t_tilde", [1e-5, 1e-4, 3e-4, 1e-3])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_matches_direct_quadrature(self, direct, gamma, t_tilde):
        # both sides of the bin edges from 0.99 to 1.01, a spread over them,
        # and |lambda - 1| = 1e-7 and 1e-10
        edges = np.arange(495, 506) * xy_exact._RULE_BIN
        lams = np.concatenate([
            np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
            np.linspace(0.99, 1.01, 101), 1.0 + np.array([-1e-7, 1e-7, -1e-10, 1e-10]),
        ])
        for kind, kernel in _thermal_kernels(gamma, t_tilde).items():
            self.assert_close(kind, kernel(lams), direct(kernel, lams))

    @pytest.mark.parametrize("t_tilde", [1e-4, 1e-3])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_a_node_returns_its_value(self, direct, gamma, t_tilde):
        # the interior nodes of the bins next to lambda = 1; a node's value
        # is its direct quadrature, bit for bit
        args = {"mz": 1.0 / t_tilde, "dmz_dT": t_tilde}
        for kind, kernel in _thermal_kernels(gamma, t_tilde).items():
            for k in (498.0, 499.0, 500.0, 501.0):
                nodes = xy_exact._bin_interpolant(kind, args[kind], k, gamma, t_tilde)
                assert nodes is not None
                x = nodes[0][1:-1]
                assert np.array_equal(kernel(x), direct(kernel, x))

    def test_falls_back_to_direct_quadrature_as_t_goes_to_zero(self, direct):
        # at T = 1e-12 the structure next to lambda = 1 is far narrower than a
        # bin: no degree up to the cap passes, and the bin is integrated
        beta_tilde = 1e12
        lams = 1.0 + np.array([-1e-8, -1e-10, 0.0, 1e-10, 1e-8])
        for k in set(np.floor(lams / xy_exact._RULE_BIN).tolist()):
            assert xy_exact._bin_interpolant("mz", beta_tilde, k, 1.0, 1.0 / beta_tilde) is None
        kernel = _thermal_kernels(1.0, 1.0 / beta_tilde)["mz"]
        assert np.array_equal(kernel(lams), direct(kernel, lams))

    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_values_do_not_depend_on_the_cache(self, gamma):
        lams = np.linspace(0.995, 1.005, 301)
        for kernel in _thermal_kernels(gamma, 3e-4).values():
            kernel(lams)
            cached = kernel(lams)
            xy_exact._bin_interpolant.cache_clear()
            assert np.array_equal(kernel(lams), cached)
