import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import benford_xy
from benford_xy import ModelParams, criticality, firstdigit, windowscan, xy_exact
from benford_xy.errors import ConfigurationError, DomainError
from benford_xy.firstdigit import ReferenceDistribution
from benford_xy.violation import Metric
from benford_xy.xy_exact import (
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

    def test_non_finite_temperature_rejected(self):
        for t_tilde in (math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="t_tilde must be finite"):
                ModelParams(gamma=1.0, lam=1.0, t_tilde=t_tilde)

    def test_temperature_whose_reciprocal_overflows_rejected(self):
        # below the bound 1 / t_tilde is inf, which must not read as T = 0
        bound = xy_exact._T_TILDE_MIN
        assert math.isfinite(1.0 / bound)
        assert math.isinf(1.0 / math.nextafter(bound, 0.0))
        for t_tilde in (1e-320, 5e-324, math.nextafter(bound, 0.0)):
            with pytest.raises(ConfigurationError, match=f"at least {bound!r}"):
                ModelParams(gamma=1.0, lam=1.0, t_tilde=t_tilde)
        ModelParams(gamma=1.0, lam=1.0, t_tilde=bound)

    def test_non_finite_lambda_rejected(self):
        with pytest.raises(ConfigurationError, match="lambda must be finite"):
            ModelParams(gamma=1.0, lam=math.nan)

    def test_largest_lambda(self):
        # from |lambda| = 2**44 a float step of lambda is wider than a
        # thermal bin; a lambda from outside is checked against one bound
        big = xy_exact._LAMBDA_MAX
        ModelParams(gamma=1.0, lam=-big, t_tilde=1e-3)
        diagonal_correlators(big, 1.0)
        for lam in (math.nextafter(big, math.inf), -2.0**44, 1e200, -math.inf):
            for make in (lambda: ModelParams(gamma=1.0, lam=lam),
                         lambda: diagonal_correlators(lam, 1.0)):
                with pytest.raises(ConfigurationError, match="\\|lambda\\| <= 1e\\+12"):
                    make()

    def test_largest_anisotropy(self):
        # the T = 0 kernel takes |gamma| <= 1e20; past 1e150 gamma^2 would
        # overflow on any path
        for gamma in (1e30, -1e21, math.nextafter(1e20, math.inf)):
            with pytest.raises(ConfigurationError, match="and <= 1e\\+20"):
                ModelParams(gamma=gamma, lam=1.0)
        ModelParams(gamma=-1e20, lam=1.0)
        xy_exact.check_model(1e150, n_sites=8)
        ModelParams(gamma=1e150, lam=1.0, t_tilde=1e-3)
        overflows = "nonzero with \\|gamma\\| <= 1e\\+150"
        for gamma in (1e200, -1e151, math.inf, math.nan):
            for t_tilde, n_sites in ((0.0, None), (0.0, 8), (1e-3, None)):
                with pytest.raises(ConfigurationError, match=overflows):
                    xy_exact.check_model(gamma, t_tilde, n_sites)

    def test_odd_or_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            xy_exact.check_model(1.0, n_sites=15)
        with pytest.raises(ConfigurationError):
            xy_exact.check_model(1.0, n_sites=2)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelParams(gamma=1.0, lam=0.5, t_tilde=-1e-4)

    def test_least_anisotropy_of_the_zero_temperature_lattice(self):
        # the T = 0 kernel takes |gamma| >= 1e-30; the finite chain and the
        # thermal lattice take any nonzero gamma
        for gamma in (1e-31, -1e-31, 5e-324):
            with pytest.raises(ConfigurationError, match="needs \\|gamma\\| >= 1e-30"):
                ModelParams(gamma=gamma, lam=1.0)
        ModelParams(gamma=1e-30, lam=1.0)
        xy_exact.check_model(1e-31, n_sites=8)
        ModelParams(gamma=1e-31, lam=1.0, t_tilde=1e-3)


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
        warm = mz_infinite(ModelParams(gamma=1.0, lam=1.0, t_tilde=0.5))
        assert 0.0 < warm < cold

    @pytest.mark.parametrize("gamma", [0.01, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("t_tilde", [1e-4, 1e-3])
    def test_thermal_equals_ground_state_where_tanh_saturates(self, gamma, t_tilde):
        # where min over phi of L / (2 t_tilde) exceeds 19, tanh is 1 to
        # rounding at every phi, so the thermal quadrature must give the T = 0
        # closed form. The worst case is 3.3e-13 (gamma = 1, lambda = 1.05);
        # from gamma = 1.2 it misses 1e-12 (4.3e-12 at lambda = 1.05)
        def least_gap(lam):
            # L^2 is quadratic in cos(phi), stationary at lam / (1 - gamma^2)
            c = lam / (1.0 - gamma * gamma) if gamma != 1.0 else math.inf
            phis = [0.0, math.pi] + ([math.acos(c)] if abs(c) < 1.0 else [])
            return min(dispersion(lam, gamma, phi) for phi in phis)

        lams = [s * v for v in (3.0, 2.0, 1.5, 1.1, 1.06, 1.05, 0.95, 0.9) for s in (1.0, -1.0)]
        lams = np.array([lam for lam in lams + [-0.5, -0.09, 0.0, 0.3, 0.7]
                         if least_gap(lam) / (2.0 * t_tilde) > 19.0])
        assert lams.size >= 12
        cold = xy_exact.mz_infinite_many(lams, gamma)
        warm = xy_exact.mz_infinite_many(lams, gamma, t_tilde)
        assert np.max(np.abs(warm - cold)) <= 1e-12


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


# lambda = +-1 exactly, 1 -+ 1e-14, |lambda| > 1 out to the bound, and the
# 10 000-point lattice through lambda = 1
_PINNED_LAMBDAS = np.concatenate([
    [-1e12, -2.0, -1.0, 0.0, 1.0 - 1e-14, 1.0, 1.0 + 1e-14, 2.0, 50.0, 1e12],
    1.0 + 1e-4 * np.arange(-5000, 5000)])

# gamma: SHA-256 of mz_and_correlators_many(_PINNED_LAMBDAS, gamma).tobytes()
# and of mz_infinite_many(_PINNED_LAMBDAS, gamma).tobytes(), as the kernel
# gave them when it took a fresh array for every operation
_PINNED_BITS = {
    1e-30: ("9a4ba7fe3b3da52fc3770100a7fafabdf9da1d969e0e0570612dc5a74bb678b5",
            "4424be404fc3e5bf92f36bb63215e5c2783948859bc94d705b32b6aa07c37ad7"),
    0.1: ("db734c7907fff7375ab126f1f882f109f8675fe35f41a4d920a50e4d1b8ec77b",
          "013c2b630f265385de4e0567cff14067475a608127e467927ef78eadaf205ad7"),
    0.5: ("0a57275d4a6cb5ffd3b1d00f1cb782a8bf4af42c7a9f1bf6a91122a6bc20c993",
          "2c065f4613190b8d2fd69b25d9a073558e87a170277bd8e27a9481fd3ebc0aa9"),
    1.0: ("77e9b2a8fa5645df62aeaa1c121aa2a8916a137f5ce45ee79f4baf24cf7ed721",
          "8ec2df63840c4aaea84cc89548f98af5c853bf3811bf574fe236a6582bc73b80"),
    3.0: ("b9d68ce4984fd341f545ff0f1a8f98175cd1ab77ec7f5f040f6f0fef3d3ab620",
          "0285571fa59e858818f3e06be385125fbcc022662da751b8f7ee562e6584676a"),
    30.0: ("cba840228b45a19d41b0b23b790b9cbc453672bb6607cf6e11c01c409994958c",
           "40051ba1902d6aa021b8b57ff649deff9a3cbd452f15685236687c0e1ea328e8"),
    1e20: ("4def52da1fb7d5409c379ad34634938ecd82896f76932409e64be0cdbd7497ed",
           "86e5a2e9d78d4a368a9a8cdba93400c8d9f6cd75be35fb6e89a577fb1c8d1c75"),
}


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

    @pytest.mark.parametrize("gamma", GROUND_GAMMAS + [3.0, 30.0])
    def test_value_independent_of_its_call(self, gamma):
        # _cel finishes a sample at its checkpoint from the sample's own
        # iterates, so a lambda keeps its bits whatever else is in the call.
        # At gamma = 3 and 30 (small p = 1/gamma^2) many samples take every
        # step. A single call takes about 0.3 ms, so the lattice goes in
        # chunks of 250 (all exiting far from lambda = 1 at small gamma) and
        # alone only at every 100th point and the 41 next to lambda = 1.
        lattice = 1.0 + 1e-4 * np.arange(-5000, 5000)
        lams = np.concatenate([_ground_lambdas(gamma), [1.0 - 1e-14, 1.0 + 1e-14], lattice])
        rows = xy_exact.mz_and_correlators_many(lams, gamma)
        chunks = [xy_exact.mz_and_correlators_many(lattice[i : i + 250], gamma)
                  for i in range(0, lattice.size, 250)]
        assert np.array_equal(np.concatenate(chunks, axis=1), rows[:, -lattice.size :])
        first = lams.size - lattice.size
        pick = np.r_[:first, first + np.r_[: lattice.size : 100, 4980:5021]]
        alone = np.hstack([xy_exact.mz_and_correlators_many([lam], gamma) for lam in lams[pick]])
        assert np.array_equal(alone, rows[:, pick])

    @pytest.mark.parametrize("gamma", GROUND_GAMMAS + [3.0, 30.0])
    def test_early_exit_matches_every_step(self, gamma, monkeypatch):
        # a sample finished at the checkpoint is within 2e-15 of its value
        # after all _CEL_STEPS steps; one that goes on (lambda = +-1 among
        # them) keeps those bits exactly
        lams = np.concatenate([_ground_lambdas(gamma), [1.0 - 1e-14, 1.0 + 1e-14],
                               1.0 + 1e-4 * np.arange(-5000, 5000)])
        early = xy_exact.mz_and_correlators_many(lams, gamma)
        monkeypatch.setattr(xy_exact, "_CEL_CHECKPOINT", xy_exact._CEL_STEPS)
        full = xy_exact.mz_and_correlators_many(lams, gamma)
        same = np.all(early == full, axis=0)
        assert np.max(np.abs(early - full)[:, ~same], initial=0.0) <= 2e-15
        assert 0 < np.count_nonzero(~same)
        assert same[np.isin(lams, [-1.0, 1.0, 1.0 - 1e-14, 1.0 + 1e-14])].all()

    @pytest.mark.parametrize("gamma", list(_PINNED_BITS))
    def test_bits_pinned(self, gamma):
        # the kernel runs in place on its work arrays with the operations,
        # in the order, of the formulas in its docstring: no bit may move
        rows = xy_exact.mz_and_correlators_many(_PINNED_LAMBDAS, gamma)
        mz = xy_exact.mz_infinite_many(_PINNED_LAMBDAS, gamma)
        assert (hashlib.sha256(rows.tobytes()).hexdigest(),
                hashlib.sha256(mz.tobytes()).hexdigest()) == _PINNED_BITS[gamma]

    @pytest.mark.parametrize("correlators", [True, False])
    def test_no_aliasing(self, correlators):
        # the kernel writes its work arrays, never its lambda; each call
        # returns an array of its own
        lams = np.array(_PINNED_LAMBDAS)
        lams.flags.writeable = False
        first = xy_exact.mz_and_correlators_many(lams, 0.5, correlators=correlators)
        second = xy_exact.mz_and_correlators_many(lams, 0.5, correlators=correlators)
        assert np.array_equal(lams, _PINNED_LAMBDAS)
        assert not np.shares_memory(first, lams)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)

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
        with pytest.raises(ConfigurationError):
            xy_exact.mz_and_correlators_many(lams, 1e-31)

    def test_largest_anisotropy(self):
        # as gamma -> inf, pi G(-+1) -> -+gamma int sin^2 phi / L -> -+2 at any
        # lambda; next to lambda = 1 the clamp of kc would err past 1e20
        lams = 1.0 + np.array([-0.5, -1e-6, -1e-14, 0.0, 1e-14, 1e-6, 1e-4, 1.0])
        _, g_minus, g_plus = xy_exact.mz_and_correlators_many(lams, 1e20)
        assert np.max(np.abs(g_minus + 2.0 / math.pi)) <= 1e-13
        assert np.max(np.abs(g_plus - 2.0 / math.pi)) <= 1e-13
        for gamma in (1e30, -1e21):
            with pytest.raises(ConfigurationError, match="and <= 1e\\+20"):
                xy_exact.mz_and_correlators_many(lams, gamma)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 1.6])
    def test_thermal_path_tends_to_it(self, gamma):
        # one lambda per thermal call: the thermal panel ladder is placed
        # from the lambda range of the call
        lams = [1.0 + d for d in (-1e-2, -1e-5, -1e-8, 0.0, 1e-8, 1e-5, 1e-2, -0.5, 1.0)]
        cold = xy_exact.mz_infinite_many(lams, gamma)
        warm = [xy_exact.mz_infinite_many([lam], gamma, 1e-12)[0] for lam in lams]
        assert np.max(np.abs(cold - warm)) <= 1e-10


class TestMzFinite:
    def test_four_site_zero_field(self):
        v = mz_finite_many([0.0], 1.0, [4])[0, 0]
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_converges_to_infinite(self):
        # the half-circle mode sum includes phi = pi but not phi = 0, so on
        # the ordered side it sits exactly 2/N above the integral
        inf_v = mz_infinite(ModelParams(gamma=0.5, lam=0.5))
        fin_v = mz_finite_many([0.5], 0.5, [2000])[0, 0]
        assert fin_v - inf_v == pytest.approx(2.0 / 2000, abs=1e-12)

    def test_converges_fast_on_disordered_side(self):
        # for lambda > 1 the boundary terms cancel and the mode sum is a
        # full-period trapezoid rule: agreement at modest N is near exact
        inf_v = mz_infinite(ModelParams(gamma=0.5, lam=1.5))
        fin_v = mz_finite_many([1.5], 0.5, [100])[0, 0]
        assert abs(fin_v - inf_v) < 1e-10

    def test_discrepancy_decreases_monotonically(self):
        inf_v = mz_infinite(ModelParams(gamma=0.5, lam=0.5))
        gaps = [
            abs(mz_finite_many([0.5], 0.5, [n])[0, 0] - inf_v)
            for n in (100, 400, 1600)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_zero_mode_guarded(self):
        # at lambda = -1 the phi = pi mode has zero energy; its term drops out
        v = mz_finite_many([-1.0], 1.0, [8])[0, 0]
        assert math.isfinite(v)


class TestMzFiniteRises:
    """The proof that the computed Mz_N rises strictly between lattice
    points; tests/test_windowscan.py checks it against the values."""

    N_LIST = (14, 20, 24, 30, 34, 40)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0, 1e-3, -0.5])
    def test_holds_on_the_default_grid(self, gamma):
        assert all(xy_exact.mz_rises(0.8, 1.2, 2e-6, gamma, n_sites=n) for n in self.N_LIST)

    def test_fails_where_the_slope_is_below_the_rounding(self):
        # at gamma = 1e-6 a step of 2e-6 raises Mz_14 by less than its rounding
        assert not xy_exact.mz_rises(0.8, 1.2, 2e-6, 1e-6, n_sites=14)
        # a coarser lattice raises it by more
        assert xy_exact.mz_rises(0.8, 1.2, 2e-2, 1e-6, n_sites=14)

    def test_fails_where_neighbours_round_to_one_lambda(self):
        assert not xy_exact.mz_rises(0.8, 1.2, 1e-16, 1.0, n_sites=14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e150, 1e-150])
    def test_extreme_gamma_fails_without_warnings(self, gamma):
        # the cube of L^2 overflows at the one end, g_p underflows at the other
        assert not xy_exact.mz_rises(0.8, 1.2, 2e-6, gamma, n_sites=14)

    def test_no_proof_at_finite_temperature(self):
        assert xy_exact.mz_rises(0.8, 1.2, 2e-6, 1.0, 0.0, 14)
        assert not xy_exact.mz_rises(0.8, 1.2, 2e-6, 1.0, 1e-3, 14)

    def test_proved_chain_rises_on_a_fine_lattice(self):
        lams = 0.95 + 1e-6 * np.arange(100_000)
        assert xy_exact.mz_rises(lams[0], lams[-1], 1e-6, 0.3, n_sites=24)
        assert (np.diff(mz_finite_many(lams, 0.3, [24])[0]) > 0).all()


class TestMzInfiniteRises:
    """The proof that the computed Mz of the infinite lattice at T = 0 rises
    strictly between lattice points; tests/test_windowscan.py checks it
    against the values."""

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0, -0.5])
    def test_holds_on_the_default_grid(self, gamma):
        assert xy_exact.mz_rises(0.8, 1.2, 2e-6, gamma)

    def test_margin_at_gamma_one_tenth(self):
        # h chi / 4E is about 912 on the default grid at gamma = 0.1
        assert xy_exact.mz_rises(0.8, 1.2, 2e-6 / 900, 0.1)
        assert not xy_exact.mz_rises(0.8, 1.2, 2e-6 / 925, 0.1)

    @pytest.mark.filterwarnings("error")
    def test_fails_where_neighbours_round_to_one_lambda(self):
        assert not xy_exact.mz_rises(0.8, 1.2, 1e-16, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e-30, -1e-30, 1e20])
    def test_extreme_gamma_fails_without_warnings(self, gamma):
        # the slope is about gamma^2 / 20 at the one end, 1 / (4 gamma) at the other
        assert not xy_exact.mz_rises(0.8, 1.2, 2e-6, gamma)

    def test_no_proof_at_finite_temperature(self):
        assert xy_exact.mz_rises(0.8, 1.2, 2e-6, 1.0, 0.0)
        assert not xy_exact.mz_rises(0.8, 1.2, 2e-6, 1.0, 1e-3)

    @pytest.mark.parametrize("center", [-1.0, 0.0, 1.0])
    def test_proved_lattice_rises_through_the_special_points(self, center):
        # the lattice holds the center itself, where kc = 0 is clamped at +-1
        lams = center + 1e-7 * np.arange(-50_000, 50_001)
        assert center in lams
        assert xy_exact.mz_rises(lams[0], lams[-1], 1e-7, 0.5)
        assert (np.diff(xy_exact.mz_infinite_many(lams, 0.5)) > 0).all()


class TestCorrelators:
    def test_cxx_zero_field_ising(self):
        assert xy_exact.mz_and_correlators_many([0.0], 1.0)[1, 0] == pytest.approx(-1.0, abs=1e-8)

    def test_cyy_zero_field_ising(self):
        assert xy_exact.mz_and_correlators_many([0.0], 1.0)[2, 0] == pytest.approx(0.0, abs=1e-8)

    def test_diagonal_construction(self):
        lam, gamma = 0.7, 0.5
        cxx, cyy, czz = diagonal_correlators(lam, gamma)
        mz = mz_infinite(ModelParams(gamma=gamma, lam=lam))
        rows = xy_exact.mz_and_correlators_many([lam], gamma)
        assert cxx == pytest.approx(rows[1, 0], abs=1e-12)
        assert cyy == pytest.approx(rows[2, 0], abs=1e-12)
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
            mz_infinite(ModelParams(gamma=gamma, lam=lam, t_tilde=t + h))
            - mz_infinite(ModelParams(gamma=gamma, lam=lam, t_tilde=t - h))
        ) / (2 * h)
        assert dmz_dT_many([lam], gamma, t)[0] == pytest.approx(fd, rel=1e-6)

    def test_requires_positive_temperature(self):
        with pytest.raises(DomainError):
            dmz_dT_many([1.0], 1.0, 0.0)[0]
        with pytest.raises(DomainError):
            dmz_dT_many([1.0], 1.0, -1e-4)[0]

    @pytest.mark.parametrize("t_tilde", [1e-160, 1e-163, 1e-200])
    def test_divisor_below_the_normal_floats_rejected(self, t_tilde):
        # 2 pi t_tilde^2 is subnormal at 1e-160 and rounds to 0 from about
        # 1e-162, where the quotient would be 0 or NaN
        with pytest.raises(DomainError, match="5.950894918631799e-155"):
            dmz_dT_many([1.0], 1.0, t_tilde)

    def test_least_temperature_is_the_first_normal_divisor(self):
        least = xy_exact._DMZ_T_TILDE_MIN
        below = float(np.nextafter(least, 0.0))
        tiny = np.finfo(float).tiny
        assert 2.0 * math.pi * least * least >= tiny > 2.0 * math.pi * below * below
        assert np.all(np.isfinite(dmz_dT_many([0.5, 1.0, 1.5], 1.0, least)))
        with pytest.raises(DomainError):
            dmz_dT_many([1.0], 1.0, below)

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
            lambda lams: xy_exact.mz_infinite_many(lams, 1.0, 3e-4),
            lambda lams: xy_exact.dmz_dT_many(lams, 1.0, 3e-4),
            lambda lams: xy_exact.mz_finite_many(lams, 0.5, [40])[0],
            lambda lams: xy_exact.mz_finite_many(lams, 0.5, [40], 0.02)[0],
            lambda lams: xy_exact.mz_and_correlators_many(lams, 0.5),
        ],
        ids=["mz_infinite_many", "dmz_dT_many",
             "mz_finite_many_t0", "mz_finite_many_thermal", "mz_and_correlators_many"],
    )
    def test_one_call_equals_calls_on_halves(self, kernel):
        lams = np.linspace(0.999, 1.001, self.N)
        half = self.N // 2
        whole = kernel(lams)
        halves = [kernel(lams[:half]), kernel(lams[half:])]
        assert np.array_equal(whole, np.concatenate(halves, axis=-1))

    def test_one_pass_equals_separate_kernels(self):
        # the Czz pass forms its Mz row with the same float operations per
        # cell as the Mz kernel alone, so its values are the same bits
        lams = np.linspace(0.999, 1.001, self.N)
        mz = xy_exact.mz_and_correlators_many(lams, 0.5)[0]
        assert np.array_equal(mz, xy_exact.mz_infinite_many(lams, 0.5))


class TestModeSum:
    # T = 0 and t_tilde = 0.02, the ids naming their beta_tilde = 1 / t_tilde
    TEMPERATURES = pytest.mark.parametrize("t_tilde", [0.0, 0.02], ids=["inf", "50.0"])

    # at gamma = 1e-170 the energy of the phi = pi mode underflows to exactly
    # 0 at lambda = -1, the zero-dispersion mode the sum must drop
    @pytest.mark.parametrize("gamma", [0.5, 1e-170])
    @TEMPERATURES
    def test_matches_plain_per_mode_sum(self, gamma, t_tilde):
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
            if t_tilde:
                term *= np.tanh(0.5 * energy / t_tilde)
            want += term
        want *= -2.0 / n
        got = mz_finite_many(lams, gamma, [n], t_tilde)[0]
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-15

    LAMS = np.concatenate([
        [-1.0, 1.0, 1.0 - 1e-10, 1.0 + 1e-10],
        np.linspace(-1.0, 2.0, 61),
        1.0 + np.linspace(-1e-3, 1e-3, 41),
    ])

    @staticmethod
    def in_order_mode_sum(lams, gamma, n, t_tilde):
        # the (lambda x modes) term matrix, its columns p = 1..N/2 added one
        # at a time into one accumulator
        phi = 2.0 * math.pi * np.arange(1, n // 2 + 1) / n
        d = np.cos(phi) - lams[:, None]
        disp = d * d
        disp += (gamma * np.sin(phi)) ** 2
        disp = np.sqrt(disp)
        disp[disp == 0.0] = math.inf
        terms = d / disp
        if t_tilde:
            # beta_tilde = 1 / t_tilde first, as the kernel forms it
            terms *= np.tanh(0.5 * (1.0 / t_tilde) * disp)
        total = np.zeros(lams.size)
        for p in range(phi.size):
            total += terms[:, p]
        return -(2.0 / n) * total

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, -0.7, 1e-170])
    @TEMPERATURES
    def test_bits_equal_in_order_sum(self, gamma, t_tilde):
        for n in range(4, 129, 2):
            want = self.in_order_mode_sum(self.LAMS, gamma, n, t_tilde)
            assert np.array_equal(mz_finite_many(self.LAMS, gamma, [n], t_tilde)[0], want), n

    @pytest.mark.parametrize("n", [4, 14, 16, 20, 34, 40])
    @TEMPERATURES
    def test_one_call_equals_calls_per_lambda(self, n, t_tilde):
        whole = mz_finite_many(self.LAMS, 0.5, [n], t_tilde)[0]
        single = [mz_finite_many(self.LAMS[k : k + 1], 0.5, [n], t_tilde)[0, 0]
                  for k in range(self.LAMS.size)]
        assert np.array_equal(whole, single)

    @pytest.mark.parametrize(
        "chains",
        [(14, 20, 24, 30, 34, 40), (20, 40), (40, 20), (14, 26, 30, 34)],
        ids=["default", "nested", "nested_reversed", "pi_bits"],
    )
    @pytest.mark.parametrize("gamma", [0.5, 1e-170])
    @TEMPERATURES
    def test_chain_list_rows_equal_in_order_sums(self, chains, gamma, t_tilde):
        # one ulp from lambda = -1, d^2 is as small as gamma^2 sin^2 phi of the
        # float phi = pi, so the phi = pi terms of N = 14 and 30 differ there
        lams = np.concatenate([self.LAMS, np.nextafter(-1.0, [-2.0, 0.0])])
        rows = mz_finite_many(lams, gamma, list(chains), t_tilde)
        assert rows.shape == (len(chains), lams.size)
        for row, n in zip(rows, chains):
            assert np.array_equal(row, self.in_order_mode_sum(lams, gamma, n, t_tilde)), n

    def test_chain_list_evaluates_each_distinct_mode_once(self):
        # the default list has 58 distinct p / N among its 81 modes; all but
        # one share their bits, and phi = pi of N = 30 (and 26) misses the pi
        # of N = 14 and 34 by one ulp, so 59 modes are evaluated
        pi = [2.0 * math.pi * (n // 2) / n for n in (14, 26, 30, 34)]
        assert pi[0] == pi[3] == math.pi and pi[1] > math.pi > pi[2]
        assert len(xy_exact._chain_modes(0.5, (14, 20, 24, 30, 34, 40))) == 59
        # every mode of N = 20 is one of N = 40
        assert len(xy_exact._chain_modes(0.5, (20, 40))) == 20


class TestPackageRoot:
    # the scalar entry points the benchmark's probes import from the package
    @pytest.mark.parametrize("lam", [0.5, 1.0 - 1e-3, 1.0 + 1e-3])
    def test_scalar_observables_are_floats(self, lam):
        mz = benford_xy.mz_infinite(benford_xy.ModelParams(gamma=1.0, lam=lam))
        cxx, cyy, czz = benford_xy.diagonal_correlators(lam, 1.0)
        assert all(type(v) is float for v in (mz, cxx, cyy, czz))
        assert czz == mz * mz - cxx * cyy

    def test_dist_kind_is_exported(self):
        assert benford_xy.DistKind is firstdigit.DistKind
        assert "DistKind" in benford_xy.__all__

    def test_readme_library_example_runs(self):
        # the README's python block runs as written, so it cannot drift from the API
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        namespace = {}
        exec(block, namespace)
        assert namespace["fit"].exponent == pytest.approx(-2.117, abs=1e-3)
        lines = namespace["lines"]
        assert (lines.left.slope, lines.right.slope) == pytest.approx((-0.594, 0.595), abs=1e-3)


class TestThermalLadderPerCall:
    """Every thermal lambda is integrated on the rule of its fixed lambda bin,
    so one call of mz_infinite_many or dmz_dT_many over any lambda array must
    give the same bits as one call per lambda: over the crossover ridge
    lattice, a thermal scan range, a wide span, the interior gap minima of
    small anisotropy, and in any order."""

    @staticmethod
    def assert_matches_single_calls(lams, gamma, t_tilde):
        # 40 spread points, and the two sides of every bin edge in lams, as
        # finely as the bins next to lambda = +-1 are ever cut
        bins = np.floor(lams / (xy_exact._RULE_BIN / xy_exact._GRADED_PARTS))
        edges = np.flatnonzero(np.diff(bins))
        picked = np.unique(np.concatenate(
            [np.linspace(0, lams.size - 1, 40).astype(int), edges, edges + 1]
        ))
        for kernel in (
            lambda lams: xy_exact.mz_infinite_many(lams, gamma, t_tilde),
            lambda lams: xy_exact.dmz_dT_many(lams, gamma, t_tilde),
        ):
            whole = kernel(lams)[picked]
            single = np.array([kernel(lams[k : k + 1])[0] for k in picked])
            assert np.array_equal(whole, single)

    @pytest.mark.parametrize("t_tilde", [1e-4, 3e-4, 5e-4])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_crossover_ridge_lattice(self, gamma, t_tilde):
        u = criticality._ridge_offsets(criticality.RIDGE_SPAN, criticality.RIDGE_STEP)
        lattice = windowscan.WindowLattice(criticality.RIDGE_STEP, 1.0, 3000)
        offsets = lattice.at(np.arange((u.size - 1) * lattice.stride + lattice.samples))
        self.assert_matches_single_calls(1.0 + t_tilde * (u[0] + offsets), gamma, t_tilde)

    @pytest.mark.parametrize("t_tilde", [1e-3, 3e-4])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_thermal_scan_segment(self, gamma, t_tilde):
        # the whole lattice of a default-sampled scan over 0.98...1.02
        lattice = windowscan.WindowLattice(0.002, 0.02, 10_000)
        lams = 0.98 + lattice.at(np.arange(20 * lattice.stride + lattice.samples))
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

    @pytest.mark.parametrize("t_tilde", [1e-4, 3e-4, 1e-3])
    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_shuffled_lambda_give_the_bits_of_the_sorted_call(self, gamma, t_tilde):
        # a sorted call evaluates each bin's lambda as one run; shuffled, the
        # runs are single lambda
        lams = np.linspace(0.995, 1.005, 401)
        order = np.random.default_rng(0).permutation(lams.size)
        for kernel in _thermal_kernels(gamma, t_tilde).values():
            assert np.array_equal(kernel(lams[order]), kernel(lams)[order])


# Each array kernel, called with check_model's (gamma, t_tilde, n_sites); it
# drops those it does not take, to which the tables give T = 0 or no chain.
_DOMAIN_KERNELS = {
    "mz_infinite": lambda lams, g, t, n: xy_exact.mz_infinite_many(lams, g, t),
    "mz_finite": lambda lams, g, t, n: xy_exact.mz_finite_many(lams, g, [n], t),
    "mz_and_correlators": lambda lams, g, t, n: xy_exact.mz_and_correlators_many(lams, g),
    "dmz_dT": lambda lams, g, t, n: xy_exact.dmz_dT_many(lams, g, t),
}
_BAD_GAMMAS = [0.0, 1e200, math.inf, math.nan]
_BAD_T_TILDES = [-1e-3, math.nan, math.inf, 1e-320]
_BAD_N_SITES = [0, 2, 3, -4, 8.5]
_OUT_OF_DOMAIN = (
    [(k, g, t, n) for g in _BAD_GAMMAS
     for k, t, n in (("mz_infinite", 0.0, None), ("mz_infinite", 1e-3, None),
                     ("mz_finite", 0.0, 8), ("mz_finite", 1e-3, 8),
                     ("mz_and_correlators", 0.0, None), ("dmz_dT", 1e-3, None))]
    + [(k, 1.0, t, n) for t in _BAD_T_TILDES
       for k, n in (("mz_infinite", None), ("mz_finite", 8))]
    + [("mz_finite", 1.0, 0.0, n) for n in _BAD_N_SITES]
)


class TestKernelDomain:
    # called directly, with no config before them, the array kernels reject
    # what check_model rejects, with its message, before any arithmetic
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kernel, gamma, t_tilde, n_sites", _OUT_OF_DOMAIN)
    def test_out_of_domain_rejected(self, kernel, gamma, t_tilde, n_sites):
        with pytest.raises(ConfigurationError) as want:
            xy_exact.check_model(gamma, t_tilde, n_sites)
        with pytest.raises(ConfigurationError) as got:
            _DOMAIN_KERNELS[kernel]([0.9, 1.0, 1.1], gamma, t_tilde, n_sites)
        assert str(got.value) == str(want.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kernel, gamma, t_tilde, n_sites", [
        ("mz_finite", 1.0, 0.0, 4),
        ("mz_finite", 1e150, 0.0, 8),
        ("mz_finite", -1e150, 1e-3, 8),
        ("mz_infinite", 1e150, 1e-3, None),
        ("mz_infinite", -1e150, 1e-3, None),
        ("dmz_dT", 1e150, 1e-3, None),
        ("mz_infinite", 1e-30, 0.0, None),
        ("mz_infinite", -1e20, 0.0, None),
        ("mz_and_correlators", 1e-30, 0.0, None),
        ("mz_and_correlators", 1e20, 0.0, None),
    ])
    def test_edges_of_the_domain_evaluate(self, kernel, gamma, t_tilde, n_sites):
        got = _DOMAIN_KERNELS[kernel]([0.9, 1.0, 1.1], gamma, t_tilde, n_sites)
        assert np.all(np.isfinite(got))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kernel, gamma, t_tilde, n_sites", [
        ("mz_finite", 1.0, 0.0, 8),
        ("mz_finite", 1e150, 1e-3, 8),
        ("mz_infinite", 1.0, 0.0, None),
        ("mz_infinite", 1e-30, 0.0, None),
        ("mz_infinite", 1.0, 1e-3, None),
        ("mz_infinite", 1e150, 1e-3, None),
        ("dmz_dT", 1.0, 1e-3, None),
        ("mz_and_correlators", 1e-30, 0.0, None),
        ("mz_and_correlators", 1.0, 0.0, None),
        ("mz_and_correlators", 1e20, 0.0, None),
    ])
    def test_largest_lambda_evaluates(self, kernel, gamma, t_tilde, n_sites):
        big = xy_exact._LAMBDA_MAX
        got = _DOMAIN_KERNELS[kernel]([-big, big], gamma, t_tilde, n_sites)
        assert np.all(np.isfinite(got))

    # past the bound the thermal kernels gave inf or NaN and the T = 0 kernel
    # warned of overflow; a finite lambda there is rejected with the configs'
    # message, and a NaN beside it is passed over
    @pytest.mark.parametrize("kernel, lam, t_tilde, n_sites", [
        ("mz_infinite", 17647129953124.582, 1e-3, None),
        ("dmz_dT", 17647129953124.582, 1e-3, None),
        ("mz_and_correlators", 1e100, 0.0, None),
        ("mz_finite", -2e12, 0.0, 8),
        ("mz_finite", 2e12, 1e-3, 8),
    ])
    def test_lambda_past_the_bound_rejected(self, kernel, lam, t_tilde, n_sites):
        with pytest.raises(ConfigurationError) as want:
            xy_exact.check_model(1.0, lambdas=[lam])
        with pytest.raises(ConfigurationError) as got:
            _DOMAIN_KERNELS[kernel]([0.9, math.nan, lam], 1.0, t_tilde, n_sites)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_lambda_not_finite_gives_nan_quietly(self, bad):
        # inf met inf / inf and warned; now, as NaN, it gives NaN in every
        # row under the suite's error::RuntimeWarning, and the finite lambda
        # beside it keeps its bits
        rows = xy_exact.mz_and_correlators_many([bad, 0.5], 1.0)
        assert np.isnan(rows[:, 0]).all()
        assert np.array_equal(rows[:, 1:], xy_exact.mz_and_correlators_many([0.5], 1.0))
        mz = xy_exact.mz_infinite_many([bad, 0.5], 1.0)
        assert np.isnan(mz[0]) and mz[1] == rows[0, 1]

    def test_lambda_checked_once_per_call(self, monkeypatch):
        checked = []
        check = xy_exact.check_model
        monkeypatch.setattr(xy_exact, "check_model",
                            lambda *a: checked.append(len(a[3])) or check(*a))
        mz_finite_many([0.9, math.nan, 1.1], 1.0, [8, 14, 20])
        assert checked == [2, 0, 0]

    def test_least_temperature_is_the_zero_temperature_limit(self):
        # at the least t_tilde, L / (2 t_tilde) overflows to inf, whose tanh
        # is 1; under the suite's error::RuntimeWarning that must not warn
        least = xy_exact._T_TILDE_MIN
        lams = np.linspace(0.5, 1.5, 41)
        assert np.array_equal(mz_finite_many(lams, 1.0, [8, 14], least),
                              mz_finite_many(lams, 1.0, [8, 14]))
        warm = xy_exact.mz_infinite_many(lams, 1.0, least)
        assert np.max(np.abs(warm - xy_exact.mz_infinite_many(lams, 1.0))) <= 1e-10


class TestThermalInputs:
    def test_no_lambda_give_an_empty_array(self):
        for kernel in _thermal_kernels(0.5, 3e-4).values():
            assert kernel(np.array([])).shape == (0,)

    def test_non_finite_lambda_give_nan_without_building_a_bin(self, monkeypatch):
        built = []
        rule = xy_exact._bin_rule
        monkeypatch.setattr(xy_exact, "_bin_rule", lambda *key: built.append(key) or rule(*key))
        xy_exact._bin_interpolant.cache_clear()
        lams = np.array([math.nan] * 50 + [math.inf, -math.inf, math.nan, math.inf])
        for kernel in _thermal_kernels(0.5, 3e-4).values():
            assert np.isnan(kernel(lams)).all()
        assert built == []
        # among finite lambda, only their own bin is built
        mixed = np.concatenate([lams, [0.5]])
        for kernel in _thermal_kernels(0.5, 3e-4).values():
            got = kernel(mixed)
            assert np.isnan(got[:-1]).all()
            assert got[-1] == kernel(mixed[-1:])[0]
        assert {key[:2] for key in built} == {(math.floor(0.5 / xy_exact._RULE_BIN), xy_exact._RULE_BIN)}


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
        "mz": lambda lams: xy_exact.mz_infinite_many(lams, gamma, t_tilde),
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

    # at t_tilde <= 1e-11 the dMz/dT ridge, about t_tilde wide at lambda = +-1,
    # falls between the Chebyshev points of every degree, and the check once
    # passed on the values beside it: the ridge read 0 instead of about 0.3
    @pytest.mark.parametrize("t_tilde", [1e-12, 1e-11, 1e-5, 1e-4, 3e-4, 1e-3])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_matches_direct_quadrature(self, direct, gamma, t_tilde):
        # both sides of the bin edges from 0.99 to 1.01, a spread over them,
        # |lambda - 1| = 1e-7 and 1e-10, and 4 t_tilde about lambda = +-1
        edges = np.arange(495, 506) * xy_exact._RULE_BIN
        ridge = 1.0 + t_tilde * np.linspace(-4.0, 4.0, 17)
        lams = np.concatenate([
            np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
            np.linspace(0.99, 1.01, 101), 1.0 + np.array([-1e-7, 1e-7, -1e-10, 1e-10]),
            ridge, -ridge,
        ])
        for kind, kernel in _thermal_kernels(gamma, t_tilde).items():
            self.assert_close(kind, kernel(lams), direct(kernel, lams))

    @pytest.mark.parametrize("t_tilde", [1e-4, 1e-3])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_a_node_returns_its_value(self, direct, gamma, t_tilde):
        # the interior nodes of the bins from 0.996 to 1.004, sub-bins next to
        # lambda = 1 included; a node's value is its direct quadrature, bit
        # for bit
        bins = [run[:2] for run in xy_exact._bin_runs(np.linspace(0.99601, 1.00399, 800), t_tilde)]
        for kind, kernel in _thermal_kernels(gamma, t_tilde).items():
            for m, width in bins:
                nodes = xy_exact._bin_interpolant(kind, m, width, gamma, t_tilde)
                assert nodes is not None
                x = nodes[0][1:-1]
                assert np.array_equal(kernel(x), direct(kernel, x))

    def test_falls_back_to_direct_quadrature_as_t_goes_to_zero(self, direct):
        # at T = 1e-12 the structure next to lambda = 1 is far narrower than a
        # bin: no degree up to the cap passes, and the bin is integrated
        t_tilde = 1e-12
        lams = 1.0 + np.array([-1e-8, -1e-10, 0.0, 1e-10, 1e-8])
        for m, width, _ in xy_exact._bin_runs(lams, t_tilde):
            assert xy_exact._bin_interpolant("mz", m, width, 1.0, t_tilde) is None
        kernel = _thermal_kernels(1.0, t_tilde)["mz"]
        assert np.array_equal(kernel(lams), direct(kernel, lams))

    def test_mz_and_dmz_dt_share_their_rules(self):
        # 1 / (1 / t) is not t for this t: Mz must key its rules on t itself
        # to share them
        t_tilde = 1.1666666666666667e-4
        lams = 1.0 + t_tilde * np.linspace(-3.0, 3.0, 301)
        xy_exact._bin_interpolant.cache_clear()
        xy_exact._bin_rule.cache_clear()
        xy_exact.dmz_dT_many(lams, 1.0, t_tilde)
        misses = xy_exact._bin_rule.cache_info().misses
        assert misses > 0
        xy_exact.mz_infinite_many(lams, 1.0, t_tilde)
        assert xy_exact._bin_rule.cache_info().misses == misses

    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_values_do_not_depend_on_the_cache(self, gamma):
        lams = np.linspace(0.995, 1.005, 301)
        for kernel in _thermal_kernels(gamma, 3e-4).values():
            kernel(lams)
            cached = kernel(lams)
            xy_exact._bin_interpolant.cache_clear()
            assert np.array_equal(kernel(lams), cached)
