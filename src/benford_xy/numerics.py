"""Deterministic numerical kernels: quadrature and least-squares fitting.

Quadrature is composite Gauss-Legendre with fixed-order panels between given
edges, so node positions are reproducible and never touch a panel edge. Fits are
solved through an orthogonal decomposition (numpy lstsq), not normal
equations, because the cubic fits downstream live on narrow, badly scaled
windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularFitError

PANEL_ORDER = 16


@dataclass(frozen=True)
class PolyFit:
    """Polynomial least-squares fit; coefficients ordered constant-first."""

    coefficients: np.ndarray
    degree: int
    rms_residual: float

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coefficients)


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    rms_residual: float


@lru_cache(maxsize=64)
def _panel_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def composite_nodes(edges, order: int = PANEL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of the given order on each panel between edges."""
    edges = np.asarray(edges, dtype=float)
    xr, wr = _panel_rule(order)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo) + half * xr[None, :]).ravel()
    w = (half * wr[None, :]).ravel()
    return x, w


def _as_xy(points) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise SingularFitError("points must be a sequence of (x, y) pairs")
    return pts[:, 0], pts[:, 1]


def polyfit(points, degree: int) -> PolyFit:
    """Least-squares polynomial of the given degree, constant-first."""
    x, y = _as_xy(points)
    if x.size <= degree:
        raise SingularFitError(f"need more than {degree} points, got {x.size}")
    if np.ptp(x) == 0.0:
        raise SingularFitError("all x values identical")
    design = np.polynomial.polynomial.polyvander(x, degree)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < degree + 1:
        raise SingularFitError("design matrix is rank deficient")
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return PolyFit(coefficients=coef, degree=degree, rms_residual=rms)


def linfit(points) -> LineFit:
    """Ordinary least-squares straight line through the points."""
    fit = polyfit(points, 1)
    return LineFit(
        slope=float(fit.coefficients[1]),
        intercept=float(fit.coefficients[0]),
        rms_residual=fit.rms_residual,
    )
