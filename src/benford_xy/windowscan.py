"""Sliding-window violation curves: sweep lambda, sample the observable in a
small window around each grid point, rescale to [0, 1], histogram first
digits, and score against a reference law.

Every window is a slice of one lambda lattice (WindowLattice), so
neighbouring windows share their points and each point is evaluated once. Its
histograms stage is the one window walk of scan, scale and the crossover
violation ridges: it evaluates the lattice one window of points per call, for
rows of observables at once, and counts the windows in fixed batches, each in
one firstdigit.unit_histograms call per row, into a (rows x windows x 9)
array of digit counts, with a zero row for each degenerate window.
scan counts the windows of one config; scan_chains(config, n_list) counts
them for the chain lengths of scale, one row per chain. Mz that
xy_exact.mz_rises proves to rise strictly between neighbouring lattice
points (at T = 0, of a finite chain or of the infinite lattice) is not
walked where the lattice has enough points per grid step (_CROSSING_STRIDE):
firstdigit.rising_counts counts its windows from the lattice points next to
each digit threshold, and evaluates the observable only there, with the
walk's counts. Each config's counts that are not zero are scored in one
violation.violations call, and its delta(lambda) curve is handed on as
float64 arrays (ScanResult): the midpoints of the scored windows and their
violations, and the midpoints of the degenerate ones. No randomness enters
anywhere.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import xy_exact
from .errors import ConfigurationError
from .firstdigit import ReferenceDistribution, rising_counts, unit_histograms
from .violation import Metric, violations


class Observable(enum.Enum):
    MZ = "mz"
    CXX = "cxx"
    CYY = "cyy"
    CZZ = "czz"


_CORRELATORS = (Observable.CXX, Observable.CYY, Observable.CZZ)

# The most float64 values one numpy array can hold; no grid may have more points.
MAX_GRID_POINTS = np.iinfo(np.intp).max // 8

# WindowLattice.histograms counts overlapping windows in batches of
# _KEPT_WINDOWS * samples // stride + 1 (31 at the scan defaults, 121 on the
# ridges), so each unit_histograms call spreads its set-up over many windows;
# it keeps fewer than _KEPT_WINDOWS + 2 windows' worth of points.
_KEPT_WINDOWS = 3

# window_histograms counts a rising row's windows this many a call, so the
# call's work arrays hold a few hundred values per window, whatever the lattice.
_RISING_WINDOWS = 256

# window_histograms counts a rising row from its crossings only on a lattice of
# at least min(_CROSSING_STRIDE, samples // 20) points per grid step: placing
# one threshold costs about what walking tens to hundreds of points costs, so on
# coarser lattices the walk is faster.
_CROSSING_STRIDE = 150


def check_lattice(steps: float, step: float, width: float, samples: int) -> None:
    """Raise ConfigurationError unless WindowLattice(step, width, samples)
    can cut windows over `steps` grid steps from a lattice of no more points
    than one numpy array can hold."""
    if not 2 <= samples <= MAX_GRID_POINTS:
        raise ConfigurationError(f"samples per window must be from 2 to {MAX_GRID_POINTS}")
    # about WindowLattice.stride points per grid step; in floats, an overflow is inf
    if not steps * max(1.0, samples * step / width) <= MAX_GRID_POINTS:
        raise ConfigurationError(f"grid of more than {MAX_GRID_POINTS} lattice points")


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

    def at(self, k: np.ndarray) -> np.ndarray:
        """Positions of the lattice points of indices k relative to the first
        window's centre."""
        return (k - 0.5 * (self.samples - 1)) * self.spacing

    def bounds(self, count: int, lo: int, hi: int) -> np.ndarray:
        """[start, stop) of windows 0..count-1, each the lattice points of
        [i * stride, i * stride + samples) inside [lo, hi), as (count x 2)."""
        return np.clip(self.stride * np.arange(count)[:, None] + [0, self.samples], lo, hi)

    def histograms(self, count: int, evaluate, rows: int, lo: int = 0,
                   hi: int | None = None) -> np.ndarray:
        """firstdigit.unit_histograms of windows 0..count-1 of each of `rows`
        observables on the one lattice, window i holding the lattice points
        of [i * stride, i * stride + samples) inside [lo, hi): a
        (rows x count x 9) array of digit counts.

        evaluate(offsets) gives the observables at the lattice points at
        those offsets (see at()), one window of them per call: an array
        of (rows x points), or of points for one row. Points that fall in no
        window are never evaluated. The windows are counted in batches of
        _KEPT_WINDOWS * samples // stride + 1 when they overlap, one by one
        when they leave gaps; a batch carries over the points it shares with
        the next one, in one buffer that each batch refills in place."""
        m, n = self.stride, self.samples
        hi = (count - 1) * m + n if hi is None else hi
        bounds = self.bounds(count, lo, hi)
        per = _KEPT_WINDOWS * n // m + 1 if m <= n else 1
        # one row of values per observable: a batch's points and those its
        # last call evaluated past it, the lattice points [first, first + kept)
        buffer = np.empty((rows, (per - 1) * m + 2 * n))
        counts = np.zeros((rows, count, 9), dtype=np.int64)
        first, kept = lo, 0
        for i in range(0, count, per):
            batch = bounds[i : i + per]
            drop, first = batch[0, 0] - first, batch[0, 0]
            kept = max(0, kept - drop)
            if kept:
                # row by row: numpy moves overlapping 1-D slices without a temporary
                for row in buffer:
                    row[:kept] = row[drop : drop + kept]
            start = first + kept
            while start < batch[-1, 1]:
                # one window of points, none past the batch if windows leave gaps
                stop = min(start + n, hi) if m <= n else batch[-1, 1]
                buffer[:, kept : kept + stop - start] = evaluate(self.at(np.arange(start, stop)))
                kept, start = kept + stop - start, stop
            for row, row_counts in zip(buffer, counts):
                row_counts[i : i + per] = unit_histograms(row[:kept], *(batch - first).T)
        return counts


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
    t_tilde: float = 0.0
    n_sites: int | None = None

    def __post_init__(self):
        a, b = self.lambda_range
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ConfigurationError("lambda_range must be finite with a < b")
        if not (0 < self.lambda_step < math.inf):
            raise ConfigurationError("lambda_step must be positive and finite")
        if not (0 < self.window_width < (b - a)):
            raise ConfigurationError("window_width must be positive and smaller than the range")
        check_lattice((b - a) / self.lambda_step, self.lambda_step, self.window_width,
                      self.samples_per_window)
        xy_exact.check_model(self.gamma, self.t_tilde, self.n_sites, (a, b))
        if self.observable in _CORRELATORS and (self.n_sites is not None or self.t_tilde):
            raise ConfigurationError(
                f"{self.observable.value} requires the infinite lattice (n_sites absent)"
                " at zero temperature (t = zero)"
            )

    @property
    def lattice(self) -> WindowLattice:
        return WindowLattice(self.lambda_step, self.window_width, self.samples_per_window)


# eq=False: an array field has no one truth value for == to return
@dataclass(frozen=True, eq=False)
class ScanResult:
    """delta(lambda) curve as float64 arrays: the midpoints of the scored
    windows in grid order and their violations, plus the midpoints of the
    windows skipped as degenerate."""

    config: ScanConfig
    lambdas: np.ndarray
    deltas: np.ndarray
    degenerate_windows: np.ndarray


def evaluate(configs: list[ScanConfig], lams: np.ndarray) -> np.ndarray:
    """The configured observable at each lambda in lams, for configs that
    share one walk (see scan_chains): of finite-chain Mz configs, one row per
    config, from one pass over their chains' modes; of one config on the
    infinite lattice, an array of lams' shape."""
    config = configs[0]
    obs = config.observable
    if obs is Observable.MZ:
        if config.n_sites is not None:
            return xy_exact.mz_finite_many(lams, config.gamma, [c.n_sites for c in configs],
                                           config.t_tilde)
        return xy_exact.mz_infinite_many(lams, config.gamma, config.t_tilde)
    # the rows Mz, G(-1) = Cxx, G(+1) = Cyy
    mz, g_minus, g_plus = xy_exact.mz_and_correlators_many(lams, config.gamma)
    if obs is Observable.CXX:
        return g_minus
    if obs is Observable.CYY:
        return g_plus
    # Czz = Mz^2 - G(-1) G(+1), in place on the kernel's own rows
    mz *= mz
    g_minus *= g_plus
    mz -= g_minus
    return mz


def window_centers(config: ScanConfig) -> np.ndarray:
    a, b = config.lambda_range
    m = int(math.floor((b - a) / config.lambda_step + 1e-9))
    return a + config.lambda_step * np.arange(m + 1)


def window_histograms(configs: list[ScanConfig]) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint of each window, in grid order, and for each config its
    (windows x 9) matrix of digit counts, a zero row for each degenerate
    window, on the lattice the configs share (see scan_chains): the part of
    scan() that is free of the law and the metric. The configs differ in
    n_sites alone, all chains or all the infinite lattice.

    Window i holds the points of config.lattice that lie inside the scan
    range; its midpoint is that of [center -+ width / 2] clipped to the range.
    On a lattice of at least min(_CROSSING_STRIDE, samples // 20) points per
    grid step, an Mz config whose values xy_exact.mz_rises proves to rise
    strictly over the range (at T = 0, a chain or the infinite lattice) is
    counted by firstdigit.rising_counts, row by row, _RISING_WINDOWS windows
    a call, from its values where a count needs them. The other configs
    share one walk of the whole lattice (WindowLattice.histograms). Either
    way a row has the same counts.
    """
    config = configs[0]
    # every field, with n_sites read as whether it is the infinite lattice
    shared = [vars(c) | {"n_sites": c.n_sites is None} for c in configs]
    if any(fields != shared[0] for fields in shared):
        raise ConfigurationError("window_histograms takes configs that differ in n_sites"
                                 " alone, all chains or all the infinite lattice")
    a, b = config.lambda_range
    centers = window_centers(config)
    lattice = config.lattice

    def point(k: int) -> float:
        return a + float(lattice.at(k))

    # lambda never decreases along the lattice, so its points inside [a, b]
    # are the one run [k_lo, k_hi)
    every = range((centers.size - 1) * lattice.stride + lattice.samples)
    k_lo = bisect.bisect_left(every, a, key=point)
    k_hi = bisect.bisect_right(every, b, key=point)

    fine = lattice.stride >= min(_CROSSING_STRIDE, lattice.samples // 20)
    rising = np.array([fine and c.observable is Observable.MZ and xy_exact.mz_rises(
        a, b, lattice.spacing, c.gamma, c.t_tilde, c.n_sites) for c in configs])
    walked = [c for c, r in zip(configs, rising) if not r]
    counts = np.empty((len(configs), centers.size, 9), dtype=np.int64)
    if walked:
        counts[~rising] = lattice.histograms(centers.size, lambda x: evaluate(walked, a + x),
                                             len(walked), k_lo, k_hi)
    starts, stops = lattice.bounds(centers.size, k_lo, k_hi).T
    for i in np.flatnonzero(rising):
        # row by row, so that the kernel's cache of modes keeps a chain
        row = [configs[i]]

        def value_at(k: np.ndarray) -> np.ndarray:
            # (1 x points) for a chain, points for the lattice
            return evaluate(row, a + lattice.at(k)).reshape(-1)

        for j in range(0, centers.size, _RISING_WINDOWS):
            part = slice(j, j + _RISING_WINDOWS)
            counts[i, part] = rising_counts(value_at, starts[part], stops[part])
    half = config.window_width / 2.0
    return 0.5 * (np.maximum(a, centers - half) + np.minimum(b, centers + half)), counts


def _result(config: ScanConfig, mids: np.ndarray, counts: np.ndarray) -> ScanResult:
    counted = counts.any(axis=1)
    deltas = violations(counts[counted], config.dist, config.metric)
    return ScanResult(config, mids[counted], deltas, mids[~counted])


def scan(config: ScanConfig) -> ScanResult:
    """Violation-parameter curve over the lambda grid.

    Degenerate windows (flat observable) are skipped and their midpoints
    recorded, never silently zeroed.
    """
    mids, counts = window_histograms([config])
    return _result(config, mids, counts[0])


def scan_chains(config: ScanConfig, n_list) -> list[ScanResult]:
    """scan() of config at each chain length in n_list, in one
    window_histograms call on the lattice they share. Each chain's curve has
    the bits of its own scan()."""
    configs = [replace(config, n_sites=n) for n in n_list]
    if not configs or any(c.n_sites is None for c in configs):
        raise ConfigurationError("scan_chains takes one or more chain lengths, not None")
    mids, counts = window_histograms(configs)
    return [_result(c, mids, rows) for c, rows in zip(configs, counts)]
