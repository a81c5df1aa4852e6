import math

import numpy as np
import pytest

from benford_xy import numerics
from benford_xy.errors import SingularFitError


class TestCompositeNodes:
    def test_weights_sum_to_interval_length(self):
        x, w = numerics.composite_nodes(np.linspace(0.0, math.pi, 17))
        assert x.size == 256
        assert w.sum() == pytest.approx(math.pi, abs=1e-12)

    def test_rule_is_numpys_16_point_gauss_legendre(self):
        x, w = numerics.composite_nodes([-1.0, 1.0])
        ref_x, ref_w = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)

    def test_one_rule_per_panel(self):
        x, _ = numerics.composite_nodes([0.0, 0.1, 1.0])
        assert x.size == 2 * 16
        x, _ = numerics.composite_nodes([0.0, 0.1, 0.5, 1.0])
        assert x.size == 3 * 16

    def test_nodes_never_touch_panel_edges(self):
        edges = np.array([0.0, 1e-9, 0.5, 1.0])
        x, _ = numerics.composite_nodes(edges)
        panel = np.searchsorted(edges, x)
        assert np.all(x > edges[panel - 1]) and np.all(x < edges[panel])

    def test_exact_on_polynomials_of_the_rule_degree(self):
        # 16 points on each panel integrate degree 2 * 16 - 1 = 31 exactly
        x, w = numerics.composite_nodes([0.0, 0.3, 2.0])
        assert w @ x**31 == pytest.approx(2.0**32 / 32.0, rel=1e-13)
        # and no higher: on one wide panel degree 30 is exact, 32 is not
        x, w = numerics.composite_nodes([-1.0, 1.0])
        assert w @ x**30 == pytest.approx(2.0 / 31.0, rel=1e-13)
        assert w @ x**32 != pytest.approx(2.0 / 33.0, rel=1e-10)


class TestPolyfit:
    def test_exact_cubic_recovery(self):
        x = np.linspace(-1.0, 2.0, 40)
        y = 0.5 - 1.25 * x + 2.0 * x**2 - 0.75 * x**3
        fit = numerics.polyfit(x, y, 3)
        assert fit.coefficients == pytest.approx([0.5, -1.25, 2.0, -0.75], abs=1e-10)
        assert fit.rms_residual < 1e-12
        assert np.polynomial.polynomial.polyval(0.0, fit.coefficients) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_constant_first_ordering(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = numerics.polyfit(x, 2.0 + 3.0 * x, 1)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.coefficients[1] == pytest.approx(3.0, abs=1e-12)

    def test_residual_reported(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fit = numerics.polyfit(x, y, 1)
        pred = np.polynomial.polynomial.polyval(x, fit.coefficients)
        assert fit.rms_residual == pytest.approx(
            math.sqrt(np.mean((y - pred) ** 2)), rel=1e-12
        )

    def test_underdetermined(self):
        with pytest.raises(SingularFitError):
            numerics.polyfit([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 3)

    def test_rank_deficient(self):
        # x^2 and x^3 of 1e-200 underflow to 0, so two columns are 0
        with pytest.raises(SingularFitError, match="rank deficient"):
            numerics.polyfit([0.0, 0.0, 0.0, 1e-200], [0.0, 1.0, 2.0, 3.0], 3)

    def test_identical_abscissas(self):
        with pytest.raises(SingularFitError):
            numerics.polyfit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0], 1)

    def test_bad_shape(self):
        with pytest.raises(SingularFitError):
            numerics.polyfit([1.0, 2.0, 3.0], [1.0, 2.0], 1)
        with pytest.raises(SingularFitError):
            numerics.polyfit([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], 1)


class TestLinfit:
    def test_exact_line(self):
        x = np.arange(6.0)
        line = numerics.linfit(x, -0.5 * x + 4.0)
        assert line.slope == pytest.approx(-0.5, abs=1e-12)
        assert line.intercept == pytest.approx(4.0, abs=1e-12)
        assert line.rms_residual < 1e-12
