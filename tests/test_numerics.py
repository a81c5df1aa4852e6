import math

import numpy as np
import pytest

from benford_xy import numerics
from benford_xy.errors import DomainError, SingularFitError


class TestIntegrate:
    def test_default_node_count(self):
        x, w = numerics.gauss_nodes(0.0, math.pi, 256)
        assert x.size == 256
        assert w.sum() == pytest.approx(math.pi, abs=1e-12)

    def test_nodes_rounded_up_to_whole_panels(self):
        x, _ = numerics.gauss_nodes(0.0, 1.0, 17)
        assert x.size == 32

    def test_nodes_never_touch_endpoints(self):
        x, _ = numerics.gauss_nodes(0.0, 1.0, 64)
        assert x.min() > 0.0 and x.max() < 1.0

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            numerics.gauss_nodes(1.0, 0.0, 256)
        with pytest.raises(DomainError):
            numerics.gauss_nodes(0.0, math.inf, 256)

    def test_too_few_nodes(self):
        with pytest.raises(DomainError):
            numerics.gauss_nodes(0.0, 1.0, 1)


class TestPolyfit:
    def test_exact_cubic_recovery(self):
        x = np.linspace(-1.0, 2.0, 40)
        y = 0.5 - 1.25 * x + 2.0 * x**2 - 0.75 * x**3
        fit = numerics.polyfit(np.column_stack([x, y]), 3)
        assert fit.coefficients == pytest.approx([0.5, -1.25, 2.0, -0.75], abs=1e-10)
        assert fit.rms_residual < 1e-12
        assert fit(0.0) == pytest.approx(0.5, abs=1e-10)

    def test_constant_first_ordering(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = numerics.polyfit(np.column_stack([x, 2.0 + 3.0 * x]), 1)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.coefficients[1] == pytest.approx(3.0, abs=1e-12)

    def test_residual_reported(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fit = numerics.polyfit(np.column_stack([x, y]), 1)
        pred = fit(x)
        assert fit.rms_residual == pytest.approx(
            math.sqrt(np.mean((y - pred) ** 2)), rel=1e-12
        )

    def test_underdetermined(self):
        with pytest.raises(SingularFitError):
            numerics.polyfit([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)], 3)

    def test_identical_abscissas(self):
        with pytest.raises(SingularFitError):
            numerics.polyfit([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)], 1)

    def test_bad_shape(self):
        with pytest.raises(SingularFitError):
            numerics.polyfit([1.0, 2.0, 3.0], 1)


class TestLinfit:
    def test_exact_line(self):
        pts = [(x, -0.5 * x + 4.0) for x in range(6)]
        line = numerics.linfit(pts)
        assert line.slope == pytest.approx(-0.5, abs=1e-12)
        assert line.intercept == pytest.approx(4.0, abs=1e-12)
        assert line.rms_residual < 1e-12
