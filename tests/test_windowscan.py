import math

import numpy as np
import pytest

from benford_xy import windowscan
from benford_xy.errors import ConfigurationError
from benford_xy.firstdigit import ReferenceDistribution
from benford_xy.violation import Metric
from benford_xy.windowscan import Observable, ScanConfig, scan, window_centers


def small_config(**overrides):
    base = dict(
        observable=Observable.MZ,
        gamma=0.5,
        lambda_range=(0.9, 1.1),
        lambda_step=0.01,
        window_width=0.02,
        samples_per_window=200,
        n_sites=8,
    )
    base.update(overrides)
    return ScanConfig(**base)


class TestScanConfig:
    def test_defaults(self):
        c = ScanConfig(observable=Observable.MZ, gamma=1.0, lambda_range=(0.8, 1.2))
        assert c.lambda_step == 0.002
        assert c.window_width == 0.02
        assert c.samples_per_window == 10_000
        assert c.dist == ReferenceDistribution.benford()
        assert c.metric is Metric.MEAN_DEVIATION
        assert math.isinf(c.beta_tilde) and c.n_sites is None
        assert c.t_tilde == 0.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lambda_range": (1.2, 0.8)},
            {"lambda_range": (0.8, math.inf)},
            {"lambda_step": 0.0},
            {"window_width": 0.0},
            {"window_width": 0.5},
            {"samples_per_window": 1},
            {"beta_tilde": -2.0},
            {"n_sites": 7},
            {"n_sites": 2},
            {"gamma": 0.0},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigurationError):
            small_config(**overrides)

    def test_t_tilde_inverse_of_beta(self):
        assert small_config(beta_tilde=200.0).t_tilde == pytest.approx(0.005)

    def test_correlator_config_rejected_when_built(self):
        # evaluate() takes a config without going through scan()
        with pytest.raises(ConfigurationError):
            ScanConfig(observable=Observable.CXX, gamma=1.0, lambda_range=(0.9, 1.1),
                       n_sites=8)

    @pytest.mark.parametrize("observable", [Observable.CXX, Observable.CYY, Observable.CZZ])
    def test_correlators_only_at_zero_temperature_infinite_chain(self, observable):
        with pytest.raises(ConfigurationError):
            scan(small_config(observable=observable))  # n_sites set
        with pytest.raises(ConfigurationError):
            scan(small_config(observable=observable, n_sites=None, beta_tilde=100.0))


class TestWindowCenters:
    def test_standard_grid_has_201_points(self):
        c = ScanConfig(observable=Observable.MZ, gamma=1.0, lambda_range=(0.8, 1.2))
        centers = window_centers(c)
        assert centers.size == 201
        assert centers[0] == pytest.approx(0.8)
        assert centers[-1] == pytest.approx(1.2)

    def test_step_not_dividing_range_keeps_last_center_inside(self):
        c = small_config(lambda_range=(0.9, 1.1), lambda_step=0.03)
        centers = window_centers(c)
        assert centers[-1] <= 1.1 + 1e-12
        assert np.allclose(np.diff(centers), 0.03)


class TestScan:
    def test_midpoints_increasing_and_edges_clipped(self):
        r = scan(small_config())
        mids = r.lambdas()
        assert np.all(np.diff(mids) > 0)
        # edge windows are clipped to the scan range, shifting their midpoint
        assert mids[0] == pytest.approx(0.9 + 0.02 / 4)
        assert mids[-1] == pytest.approx(1.1 - 0.02 / 4)
        interior = mids[(mids > 0.91) & (mids < 1.09)]
        assert np.allclose(interior, np.round(interior / 0.01) * 0.01)

    def test_deltas_finite_and_nonnegative(self):
        r = scan(small_config())
        d = r.deltas()
        assert np.all(np.isfinite(d)) and np.all(d >= 0)

    def test_worker_count_does_not_change_results(self):
        cfg = small_config()
        assert scan(cfg, workers=4) == scan(cfg, workers=1)

    def test_flat_observable_marks_windows_degenerate(self, monkeypatch):
        monkeypatch.setattr(
            windowscan, "evaluate", lambda config, lams: np.zeros_like(lams)
        )
        r = scan(small_config())
        assert r.points == ()
        assert len(r.degenerate_windows) == 21

    def test_correlator_scan_runs(self):
        r = scan(small_config(observable=Observable.CXX, n_sites=None))
        assert len(r.points) == 21
        assert np.all(r.deltas() >= 0)

    def test_thermal_scan_runs(self):
        r = scan(small_config(beta_tilde=50.0, n_sites=None, samples_per_window=50))
        assert len(r.points) == 21

    def test_doubling_samples_changes_deltas_below_one_percent(self):
        base = ScanConfig(
            observable=Observable.MZ,
            gamma=0.5,
            lambda_range=(0.9, 1.06),
            lambda_step=0.005,
            samples_per_window=10_000,
            n_sites=30,
        )
        doubled = ScanConfig(
            observable=Observable.MZ,
            gamma=0.5,
            lambda_range=(0.9, 1.06),
            lambda_step=0.005,
            samples_per_window=20_000,
            n_sites=30,
        )
        d1 = scan(base).deltas()
        d2 = scan(doubled).deltas()
        assert np.max(np.abs(d2 - d1) / d1) < 0.01
