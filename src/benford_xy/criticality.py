"""Transition extraction from violation curves, finite-size scaling fits, and
finite-temperature crossover lines.

Transition location: fit a cubic to the delta(lambda) curve over a small
range and read off the signature point - the root of the second derivative
for derivative-extremum signatures, or the interior minimizer for the
minimum signature. The fit range can be chosen automatically: the curve's
steepest region (for derivative signatures) or its interior minimum (for the
minimum signature) is found first, using a locally regressed slope rather
than pointwise differences because digit counts move in discrete steps and
make raw gradients noisy.

Crossover lines: at each temperature t in a grid, the chosen quantity's
ridge extrema on either side of lambda = 1 are located on the grid lambda =
1 + t * u, u from -span to +span in steps of step (two plain numbers that
crossover_lines alone checks), and refined by a parabolic fit - three-point
interpolation for the smooth magnetization derivative, a least-squares
parabola over a wider neighbourhood for violation ridges, whose digit-count
staircase makes pointwise interpolation noisy - and each branch's (lambda,
T) points are fitted with a straight line. The violation windows go through
the same window stage as scan windows (windowscan.WindowLattice.histograms).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import numerics, xy_exact
from .errors import (
    ConfigurationError,
    DegenerateWindowError,
    InsufficientRidgeError,
    MixedSideError,
    NoTransitionError,
)
from .firstdigit import DistKind, ReferenceDistribution
from .numerics import LineFit, PolyFit
from .violation import Metric, violations
from .windowscan import ScanResult, WindowLattice, check_lattice

LAMBDA_C = 1.0

# Auto fit-range defaults; half-widths in lambda.
FIT_HALF_WIDTH = 0.05
SMOOTH_HALF_WIDTH = 0.03

# Crossover-ridge defaults. Lambda grids are expressed in units of t_tilde
# around lambda = 1; a violation window spans about window_ratio * t_tilde
# (see _bvp_deltas).
RIDGE_SPAN = 3.0
RIDGE_STEP = 0.025
RIDGE_WINDOW_RATIO = 1.0
RIDGE_SAMPLES = 12_000
# half-width, in grid points, of the refinement parabola on violation ridges
RIDGE_REFINE_POINTS = 12
# the rows of CrossoverLines.ridge: either side of lambda = 1
BRANCHES = ("left", "right")


class Signature(enum.Enum):
    DERIVATIVE_MAX = "derivative-max"
    DERIVATIVE_MIN = "derivative-min"
    MINIMUM = "minimum"
    # either derivative extremum; the estimate records which one was found
    DERIVATIVE_EXTREMUM = "derivative"


def default_signature(dist: ReferenceDistribution) -> Signature:
    """Documented per-distribution default: the uniform law dips at the
    transition, the others flip steepness there."""
    if dist.kind is DistKind.UNIFORM:
        return Signature.MINIMUM
    return Signature.DERIVATIVE_EXTREMUM


@dataclass(frozen=True)
class TransitionEstimate:
    lambda_c_n: float
    fit: PolyFit  # the cubic in u = lambda - fit_center
    signature: Signature
    fit_range: tuple[float, float]
    fit_center: float


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    prefactor: float
    intercept: float
    rms_residual: float


# eq=False: an array field has no one truth value for == to return
@dataclass(frozen=True, eq=False)
class CrossoverLines:
    """The two lines and the ridge they fit: at each temperature of t_tilde,
    the lambda of the left (ridge[0]) and right (ridge[1]) extremum, or NaN."""

    left: LineFit
    right: LineFit
    t_tilde: np.ndarray
    ridge: np.ndarray

    @property
    def warnings(self) -> tuple[str, ...]:
        """One line per unbracketed extremum, by temperature, left before right."""
        return tuple(
            f"t_tilde={t:g}: {branch} extremum not bracketed; point omitted"
            for t, lams in zip(self.t_tilde.tolist(), self.ridge.T.tolist())
            for branch, lam in zip(BRANCHES, lams)
            if math.isnan(lam)
        )


def local_slopes(x: np.ndarray, y: np.ndarray, half: float) -> np.ndarray:
    """Least-squares slope of y over the points within +-half of each x, for
    x sorted ascending (NaN with fewer than 4 such points). Neighbourhoods of
    one length are the rows of one C-contiguous array, and a row reduces with
    the same pairwise sums as its 1-D slice, so the grouping moves no bits.
    Equal x throughout a neighbourhood give 0 / 0, a NaN slope, silently."""
    s = np.full(x.size, np.nan)
    starts = np.searchsorted(x, x - half, side="left")
    lengths = np.searchsorted(x, x + half, side="right") - starts
    for n in set(lengths.tolist()):
        if n >= 4:
            rows = np.flatnonzero(lengths == n)
            at = starts[rows, None] + np.arange(n)
            xs, ys = x[at], y[at]
            dx = xs - xs.mean(axis=1, keepdims=True)
            dy = ys - ys.mean(axis=1, keepdims=True)
            with np.errstate(invalid="ignore"):
                s[rows] = (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)
    return s


def auto_fit_range(
    result: ScanResult,
    signature: Signature,
    fit_half: float = FIT_HALF_WIDTH,
    smooth_half: float = SMOOTH_HALF_WIDTH,
) -> tuple[float, float]:
    """Center a fit window on the curve's signature feature.

    Only interior windows participate: windows clipped by the scan range have
    off-grid midpoints and their one-sided sampling fakes steep gradients.
    """
    mids, deltas = result.lambdas, result.deltas
    a, b = result.config.lambda_range
    eps = result.config.window_width
    interior = (mids >= a + eps / 2 - 1e-12) & (mids <= b - eps / 2 + 1e-12)
    if interior.sum() < 4:
        raise NoTransitionError("too few interior scan points to center a fit range")
    x, y = mids[interior], deltas[interior]
    if signature is Signature.MINIMUM:
        center = x[np.argmin(y)]
    else:
        slopes = local_slopes(x, y, smooth_half)
        if not np.isfinite(slopes).any():
            raise NoTransitionError("no window had enough neighbours for a slope estimate")
        center = x[np.nanargmax(np.abs(slopes))]
    return float(center - fit_half), float(center + fit_half)


def locate_transition(
    result: ScanResult,
    fit_range: tuple[float, float],
    signature: Signature,
) -> TransitionEstimate:
    """Cubic-fit the curve inside fit_range and return the signature point."""
    lo, hi = fit_range
    if not lo < hi:
        raise ConfigurationError("fit_range must be an increasing pair")
    mids, deltas = result.lambdas, result.deltas
    sel = (mids >= lo - 1e-12) & (mids <= hi + 1e-12)
    if sel.sum() < 8:
        raise ConfigurationError(
            f"need at least 8 scan points inside fit_range, found {int(sel.sum())}"
        )
    x, y = mids[sel], deltas[sel]
    x0 = float(x.mean())
    fit = numerics.polyfit(x - x0, y, 3)
    _, c1, b2, a3 = fit.coefficients
    if signature is Signature.MINIMUM:
        # interior minimizer of the cubic: root of f' with f'' > 0
        if a3 == 0.0 and b2 == 0.0:
            raise NoTransitionError("fit has no curvature; no interior minimum")
        roots = np.atleast_1d(np.roots([3.0 * a3, 2.0 * b2, c1]))
        roots = roots[np.isreal(roots)].real
        good = [
            r
            for r in roots
            if 6.0 * a3 * r + 2.0 * b2 > 0.0 and x.min() - x0 <= r <= x.max() - x0
        ]
        if not good:
            raise NoTransitionError("cubic has no interior minimum inside fit_range")
        u_star = min(good, key=abs)
        kind = Signature.MINIMUM
    else:
        if a3 == 0.0:
            raise NoTransitionError("cubic fit degenerated to a parabola; no inflection")
        u_star = -b2 / (3.0 * a3)
        kind = Signature.DERIVATIVE_MAX if a3 < 0.0 else Signature.DERIVATIVE_MIN
        if signature is not Signature.DERIVATIVE_EXTREMUM and kind is not signature:
            raise NoTransitionError(
                f"inflection is a {kind.value} of the derivative, not {signature.value}"
            )
        if not (x.min() - x0 <= u_star <= x.max() - x0):
            raise NoTransitionError("derivative extremum falls outside fit_range")

    return TransitionEstimate(
        lambda_c_n=float(x0 + u_star),
        fit=fit,
        signature=kind,
        fit_range=(float(lo), float(hi)),
        fit_center=x0,
    )


def scaling_exponent(n_sites, lambda_c_n) -> ScalingFit:
    """Fit ln(LAMBDA_C - lambda_c_n) against ln n_sites, one lambda_c^N per
    chain length; LAMBDA_C = 1 is the model's exact critical point.

    The transition shift lambda_c^N = LAMBDA_C + k N^alpha turns into a line
    with slope alpha and intercept ln(-k); every lambda_c^N must approach the
    critical point from the same side for the logs to exist.
    """
    sizes, lams = list(n_sites), list(lambda_c_n)
    if len(sizes) < 3 or len(lams) != len(sizes):
        raise ConfigurationError("scaling fit needs at least 3 chain lengths, one lambda_c_n each")
    if len(set(sizes)) != len(sizes):
        raise ConfigurationError("n_sites values must be distinct")
    offenders = [int(n) for n, lam in zip(sizes, lams) if lam >= LAMBDA_C]
    if offenders:
        raise MixedSideError(offenders)
    line = numerics.linfit([math.log(n) for n in sizes],
                           [math.log(LAMBDA_C - lam) for lam in lams])
    return ScalingFit(line.slope, -math.exp(line.intercept), line.intercept, line.rms_residual)


class CrossoverQuantity(enum.Enum):
    DMZDT = "dmzdt"
    BVP = "bvp"


def _ridge_offsets(span: float, step: float) -> np.ndarray:
    """u from -span to within half a step of +span, counted as window_centers
    counts; np.arange's elements depend on its start and step alone."""
    count = math.floor(2.0 * span / step + 1e-9) + 1
    return np.arange(-span, -span + (count - 0.5) * step, step)


def _bvp_deltas(gamma: float, t_tilde: float, u: np.ndarray, lattice: WindowLattice,
                dist: ReferenceDistribution, metric: Metric) -> np.ndarray:
    """Violation parameter of each window centred on 1 + t_tilde * u.

    The windows are those of the lattice at lambda = 1 + t_tilde * (u[0] +
    offset), through its histograms stage; each spans (samples - 1) * step *
    t_tilde / stride, which is (1 - 1/samples) * t_tilde at the defaults.
    """
    counts = lattice.histograms(
        u.size,
        lambda x: xy_exact.mz_infinite_many(1.0 + t_tilde * (u[0] + x), gamma, t_tilde),
        1,
    )[0]
    if not counts.any(axis=1).all():
        raise DegenerateWindowError(f"flat violation window at t_tilde={t_tilde:g}")
    return violations(counts, dist, metric)


def _refine3(x: np.ndarray, y: np.ndarray, k: int) -> float:
    h = x[1] - x[0]
    denom = y[k - 1] - 2.0 * y[k] + y[k + 1]
    if denom == 0.0:
        return float(x[k])
    return float(x[k] + 0.5 * h * (y[k - 1] - y[k + 1]) / denom)


def _refine_window(x: np.ndarray, y: np.ndarray, k: int, half: int, want_max: bool) -> float:
    """Vertex of a least-squares parabola over +-half grid points around k.

    Violation curves carry digit-staircase wiggles comparable to the grid
    step, so the extremum neighbourhood is regressed instead of interpolated;
    a wrong-curvature fit falls back to three-point interpolation. The fit
    runs in grid steps about the mean, so its design matrix keeps full rank
    however small the step.
    """
    lo, hi = max(0, k - half), min(x.size, k + half + 1)
    xs, ys = x[lo:hi], y[lo:hi]
    x0, h = xs.mean(), x[1] - x[0]
    _, b, a = numerics.polyfit((xs - x0) / h, ys, 2).coefficients
    if (a < 0.0) != want_max or a == 0.0:
        return _refine3(x, y, k)
    return float(x0 - h * b / (2.0 * a))


def _branch_extremum(centers: np.ndarray, values: np.ndarray, side: np.ndarray,
                     want_max: bool, refine_points: int) -> float:
    idx = np.flatnonzero(side)
    # fewer than 3 centres on this side cannot bracket an extremum
    if idx.size < 3:
        return math.nan
    vals = values[idx]
    k = idx[int(np.nanargmax(vals) if want_max else np.nanargmin(vals))]
    # the extremum must be bracketed inside this side's subgrid
    if k <= idx[0] or k >= idx[-1]:
        return math.nan
    if refine_points:
        return _refine_window(centers, values, k, refine_points, want_max)
    return _refine3(centers, values, k)


def _ridge_slice(quantity: CrossoverQuantity, gamma: float, t: float, u: np.ndarray,
                 centers: np.ndarray, lattice: WindowLattice, dist: ReferenceDistribution,
                 metric: Metric) -> tuple[float, float]:
    """The left and right extremum's lambda at temperature t, on the centres
    1 + t * u, NaN if unbracketed."""
    if quantity is CrossoverQuantity.DMZDT:
        # ridge of maxima on the ordered side, minima on the paramagnetic side;
        # the surface is smooth, so three-point interpolation is unbiased
        values, left_max, refine = xy_exact.dmz_dT_many(centers, gamma, t), True, 0
    else:
        # the violation curve dips left of the transition and peaks right of it
        values = _bvp_deltas(gamma, t, u, lattice, dist, metric)
        left_max, refine = False, RIDGE_REFINE_POINTS
    return (_branch_extremum(centers, values, centers < 1.0, left_max, refine),
            _branch_extremum(centers, values, centers > 1.0, not left_max, refine))


def crossover_lines(
    quantity: CrossoverQuantity | str,
    gamma: float,
    t_grid,
    *,
    span: float = RIDGE_SPAN,
    step: float = RIDGE_STEP,
    window_ratio: float = RIDGE_WINDOW_RATIO,
    samples: int = RIDGE_SAMPLES,
    dist: ReferenceDistribution = ReferenceDistribution.benford(),
    metric: Metric = Metric.MEAN_DEVIATION,
) -> CrossoverLines:
    """Fit the two finite-temperature crossover lines T = s (lambda - 1).

    At each temperature t the quantity's extremum is located on each side of
    lambda = 1, on the grid 1 + t * u, u from -span to +span in steps of
    step; unbracketed extrema drop that branch point with a warning. The
    temperatures must differ, and each branch needs at least 3 surviving
    points. The grid settings are checked here alone, before any grid point.
    """
    quantity = CrossoverQuantity(quantity)
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ConfigurationError("t_grid must hold at least one temperature")
    if len(set(ts)) < len(ts):
        raise ConfigurationError("t_grid repeats a temperature; each ridge point needs its own")
    if not all(0.0 < v < math.inf for v in (span, step, window_ratio)):
        raise ConfigurationError("ridge span, step and window_ratio must be positive and finite")
    for t in ts:
        xy_exact.check_model(gamma, t, lambdas=(1.0 - t * span, 1.0 + t * span))
        if not t:
            raise ConfigurationError("t_tilde = 0 (T = 0) has no crossover ridge")
    check_lattice(2.0 * span / step, step, window_ratio, samples)
    u = _ridge_offsets(span, step)
    lattice = WindowLattice(step, window_ratio, samples)
    centers = [1.0 + t * u for t in ts]
    for t, c in zip(ts, centers):
        # at t near the float spacing at 1, 1 + t * u rounds distinct u to one lambda
        if not (np.diff(c) > 0.0).all():
            raise ConfigurationError(f"t_tilde={t:g}: ridge grid 1 + t_tilde * u repeats lambda")
    ridge = np.column_stack([
        _ridge_slice(quantity, gamma, t, u, c, lattice, dist, metric)
        for t, c in zip(ts, centers)
    ])
    t_tilde = np.array(ts)
    fits = []
    for branch, lams in zip(BRANCHES, ridge):
        found = ~np.isnan(lams)
        if found.sum() < 3:
            raise InsufficientRidgeError(
                f"{branch} branch has {int(found.sum())} ridge points; need at least 3"
            )
        fits.append(numerics.linfit(lams[found], t_tilde[found]))
    return CrossoverLines(*fits, t_tilde, ridge)
