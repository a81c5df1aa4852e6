"""Sliding-window violation curves: sweep lambda, sample the observable in a
small window around each grid point, rescale to [0, 1], histogram first
digits, and score against a reference law.

Every window is a slice of one lambda lattice (WindowLattice), so
neighbouring windows share their points and each point is evaluated once. Its
histograms stage is the one window pipeline of scan, scale and the crossover
violation ridges: it evaluates the lattice about one window of points per
call, keeps only the windows in hand and the points after them, and counts
the windows in hand together in one firstdigit.unit_histograms call.
scan scores them all in one violation.violations call. No randomness enters
anywhere.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import xy_exact
from .errors import ConfigurationError
from .firstdigit import DigitHistogram, ReferenceDistribution, unit_histograms
from .violation import Metric, violations


class Observable(enum.Enum):
    MZ = "mz"
    CXX = "cxx"
    CYY = "cyy"
    CZZ = "czz"


_CORRELATORS = (Observable.CXX, Observable.CYY, Observable.CZZ)

# WindowLattice.histograms counts the windows in hand once the points it
# keeps reach this many windows' worth (about 30 windows a call at the scan
# defaults), so each unit_histograms call spreads its set-up over more
# windows; it keeps at most one window of points more than that.
_KEPT_WINDOWS = 3


@dataclass(frozen=True)
class WindowLattice:
    """A row of windows, one grid step apart, cut from one lattice.

    The lattice spacing is step / stride, with stride lattice points per grid
    step; window i is the lattice points [i * stride, i * stride + samples),
    centred on the i-th grid point, and spans (samples - 1) * spacing, about
    width. step and width share one unit (lambda for scans, t_tilde for the
    crossover ridges).
    """

    step: float
    width: float
    samples: int

    @property
    def stride(self) -> int:
        # at least 1, so windows of fewer than width / (2 * step) samples are
        # narrower than width
        return max(1, round(self.samples * self.step / self.width))

    @property
    def spacing(self) -> float:
        return self.step / self.stride

    @property
    def span(self) -> float:
        return (self.samples - 1) * self.spacing

    def offsets(self, start: int, stop: int) -> np.ndarray:
        """Positions of lattice points start..stop-1 relative to the first
        window's centre."""
        return (np.arange(start, stop) - 0.5 * (self.samples - 1)) * self.spacing

    def histograms(self, count: int, evaluate, lo: int = 0,
                   hi: int | None = None) -> list[DigitHistogram | None]:
        """firstdigit.unit_histograms of windows 0..count-1, window i holding
        the lattice points of [i * stride, i * stride + samples) inside
        [lo, hi).

        evaluate(offsets) gives the observable at the lattice points at those
        offsets (see offsets()), at most one window of them per call. Points
        that fall in no window are never evaluated. The windows in hand are
        counted together, in one unit_histograms call, once the points kept
        reach _KEPT_WINDOWS windows' worth or the next window leaves a gap."""
        m, n = self.stride, self.samples
        hi = (count - 1) * m + n if hi is None else hi
        rows = []
        # values of the lattice points [first, first + kept.size), and the
        # bounds of the windows among them not yet counted
        first, kept = lo, np.empty(0)
        starts, stops = [], []
        for i in range(count):
            w_lo, w_hi = max(i * m, lo), min(i * m + n, hi)
            if first + kept.size < w_hi:
                if starts and (kept.size >= _KEPT_WINDOWS * n or w_lo > first + kept.size):
                    rows += unit_histograms(kept, starts, stops)
                    starts, stops = [], []
                if not starts:
                    kept, first = kept[w_lo - first :], w_lo
                while first + kept.size < w_hi:
                    start = first + kept.size
                    # one window of points, none past this window if windows leave gaps
                    stop = min(start + n, hi) if m <= n else w_hi
                    kept = np.concatenate([kept, evaluate(self.offsets(start, stop))])
            starts.append(w_lo - first)
            stops.append(w_hi - first)
        if starts:
            rows += unit_histograms(kept, starts, stops)
        return rows


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

    @property
    def lattice(self) -> WindowLattice:
        return WindowLattice(self.lambda_step, self.window_width, self.samples_per_window)


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
    mz, g_minus, g_plus = xy_exact.mz_and_correlators_many(lams, config.gamma)
    return mz * mz - g_minus * g_plus


def window_centers(config: ScanConfig) -> np.ndarray:
    a, b = config.lambda_range
    m = int(math.floor((b - a) / config.lambda_step + 1e-9))
    return a + config.lambda_step * np.arange(m + 1)


def window_histogram(values: np.ndarray) -> DigitHistogram | None:
    """First-digit histogram of a window's values rescaled to [0, 1], or None
    for a flat (degenerate) window: the one-window case of the histograms
    stage. It is free of the law and the metric."""
    (hist,) = unit_histograms(values, [0], [np.size(values)])
    return hist


def window_histograms(config: ScanConfig) -> list[tuple[float, DigitHistogram | None]]:
    """(midpoint, window_histogram) of each window, in grid order: the part of
    scan() that is free of the law and the metric.

    Window i holds the points of config.lattice that lie inside the scan
    range; its midpoint is that of [center -+ width / 2] clipped to the range.
    """
    a, b = config.lambda_range
    centers = window_centers(config)
    lattice = config.lattice

    def point(k: int) -> float:
        return a + float(lattice.offsets(k, k + 1)[0])

    # lambda never decreases along the lattice, so its points inside [a, b]
    # are the one run [k_lo, k_hi)
    every = range((centers.size - 1) * lattice.stride + lattice.samples)
    k_lo = bisect.bisect_left(every, a, key=point)
    k_hi = bisect.bisect_right(every, b, key=point)
    hists = lattice.histograms(centers.size, lambda x: evaluate(config, a + x), k_lo, k_hi)
    half = config.window_width / 2.0
    mids = [float(0.5 * (max(a, c - half) + min(b, c + half))) for c in centers]
    return list(zip(mids, hists))


def scan(config: ScanConfig) -> ScanResult:
    """Violation-parameter curve over the lambda grid.

    Degenerate windows (flat observable) are skipped and their midpoints
    recorded, never silently zeroed.
    """
    rows = window_histograms(config)
    counted = [(mid, hist) for mid, hist in rows if hist is not None]
    deltas = violations([hist.counts for _, hist in counted], [hist.total for _, hist in counted],
                        config.dist, config.metric)
    points = tuple(zip([mid for mid, _ in counted], deltas.tolist()))
    degenerate = tuple(mid for mid, hist in rows if hist is None)
    return ScanResult(points=points, config=config, degenerate_windows=degenerate)
