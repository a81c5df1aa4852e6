"""Sliding-window violation curves: sweep lambda, sample the observable in a
small window around each grid point, rescale to [0, 1], histogram first
digits, and score against a reference law.

The stages (window_samples, evaluate, window_histogram) are public; the
crossover violation ridges reuse window_histogram on their own windows.

Windows are independent, so they can be evaluated by a thread pool; results
are merged in grid order and are bit-identical for any worker count. The n
samples inside a window are equally spaced including both window edges; no
randomness enters anywhere in the pipeline.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import xy_exact
from .errors import ConfigurationError, DegenerateWindowError
from .firstdigit import DigitHistogram, ReferenceDistribution, histogram, rescale_unit
from .violation import Metric, violation


class Observable(enum.Enum):
    MZ = "mz"
    CXX = "cxx"
    CYY = "cyy"
    CZZ = "czz"


_CORRELATORS = (Observable.CXX, Observable.CYY, Observable.CZZ)


@dataclass(frozen=True)
class ScanConfig:
    """Everything a scan needs; the model is given without lambda, which is
    the swept parameter."""

    observable: Observable
    gamma: float
    lambda_range: tuple[float, float]
    lambda_step: float = 0.002
    window_width: float = 0.02
    samples_per_window: int = 10_000
    dist: ReferenceDistribution = ReferenceDistribution.benford()
    metric: Metric = Metric.MEAN_DEVIATION
    beta_tilde: float = math.inf
    n_sites: int | None = None

    def __post_init__(self):
        a, b = self.lambda_range
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ConfigurationError("lambda_range must be finite with a < b")
        if not (self.lambda_step > 0):
            raise ConfigurationError("lambda_step must be positive")
        if not (0 < self.window_width < (b - a)):
            raise ConfigurationError("window_width must be positive and smaller than the range")
        if self.samples_per_window < 2:
            raise ConfigurationError("samples_per_window must be at least 2")
        xy_exact.check_model(self.gamma, self.beta_tilde, self.n_sites)
        if self.observable in _CORRELATORS and (
            self.n_sites is not None or not math.isinf(self.beta_tilde)
        ):
            raise ConfigurationError(
                f"{self.observable.value} requires the infinite lattice (n_sites absent)"
                " at zero temperature (t = zero)"
            )

    @property
    def t_tilde(self) -> float:
        return 0.0 if math.isinf(self.beta_tilde) else 1.0 / self.beta_tilde


@dataclass(frozen=True)
class ScanResult:
    """delta(lambda) curve: (window midpoint, violation) pairs in increasing
    lambda order, plus the midpoints of windows skipped as degenerate."""

    points: tuple[tuple[float, float], ...]
    config: ScanConfig
    degenerate_windows: tuple[float, ...] = ()

    def lambdas(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    def deltas(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


def evaluate(config: ScanConfig, lams: np.ndarray) -> np.ndarray:
    """The configured observable at each lambda in lams."""
    obs = config.observable
    if obs is Observable.MZ:
        if config.n_sites is not None:
            return xy_exact.mz_finite_many(lams, config.gamma, config.n_sites, config.beta_tilde)
        return xy_exact.mz_infinite_many(lams, config.gamma, config.beta_tilde)
    if obs is Observable.CXX:
        return xy_exact.correlator_g_many(-1, lams, config.gamma)
    if obs is Observable.CYY:
        return xy_exact.correlator_g_many(1, lams, config.gamma)
    mz = xy_exact.mz_infinite_many(lams, config.gamma)
    return mz * mz - xy_exact.correlator_g_many(-1, lams, config.gamma) * xy_exact.correlator_g_many(1, lams, config.gamma)


def window_centers(config: ScanConfig) -> np.ndarray:
    a, b = config.lambda_range
    m = int(math.floor((b - a) / config.lambda_step + 1e-9))
    return a + config.lambda_step * np.arange(m + 1)


def window_samples(config: ScanConfig, center: float) -> tuple[float, np.ndarray]:
    """Midpoint and sample points of the window around center, clipped to
    the scan range."""
    a, b = config.lambda_range
    lo = float(max(a, center - config.window_width / 2.0))
    hi = float(min(b, center + config.window_width / 2.0))
    return 0.5 * (lo + hi), np.linspace(lo, hi, config.samples_per_window)


def window_histogram(values: np.ndarray) -> DigitHistogram | None:
    """First-digit histogram of a window's values rescaled to [0, 1], or None
    for a flat (degenerate) window. It is free of the law and the metric."""
    try:
        return histogram(rescale_unit(values))
    except DegenerateWindowError:
        return None


def _one_window(config: ScanConfig, center: float) -> tuple[float, float | None]:
    mid, lams = window_samples(config, center)
    hist = window_histogram(evaluate(config, lams))
    if hist is None:
        return mid, None
    return mid, violation(hist, config.dist, config.metric)


def scan(config: ScanConfig, workers: int = 1) -> ScanResult:
    """Violation-parameter curve over the lambda grid.

    Degenerate windows (flat observable) are skipped and their midpoints
    recorded, never silently zeroed.
    """
    centers = window_centers(config)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda c: _one_window(config, c), centers))
    else:
        rows = [_one_window(config, c) for c in centers]
    points = tuple((mid, delta) for mid, delta in rows if delta is not None)
    degenerate = tuple(mid for mid, delta in rows if delta is None)
    return ScanResult(points=points, config=config, degenerate_windows=degenerate)
