"""Deterministic numerical kernels: quadrature and least-squares fitting.

Quadrature is composite Gauss-Legendre, one 16-point rule per panel between
given edges, so node positions are reproducible and never touch a panel edge.
Fits take x and y as separate arrays and are solved through an orthogonal
decomposition (numpy lstsq), not normal equations, because the cubic fits
downstream live on narrow, badly scaled windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularFitError

# The 16-point Gauss-Legendre rule on [-1, 1], exact to polynomial degree 31:
# the positive nodes of numpy.polynomial.legendre.leggauss(16) and their
# weights, mirrored. Written out because importing numpy.polynomial costs
# about 1.8 MB of resident memory, which runs that need no quadrature carry.
_HALF_X = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_HALF_W = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_PANEL_X = np.concatenate([-_HALF_X[::-1], _HALF_X])
_PANEL_W = np.concatenate([_HALF_W[::-1], _HALF_W])


@dataclass(frozen=True)
class PolyFit:
    """Polynomial least-squares fit; coefficients ordered constant-first."""

    coefficients: np.ndarray
    rms_residual: float


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    rms_residual: float


def composite_nodes(edges) -> tuple[np.ndarray, np.ndarray]:
    """The 16-point Gauss-Legendre rule on each panel between edges."""
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo) + half * _PANEL_X[None, :]).ravel()
    w = (half * _PANEL_W[None, :]).ravel()
    return x, w


def polyfit(x, y, degree: int) -> PolyFit:
    """Least-squares polynomial in x of the given degree through y,
    constant-first."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise SingularFitError(f"x and y must be 1-D of one length, not {x.shape}, {y.shape}")
    if x.size <= degree:
        raise SingularFitError(f"need more than {degree} points, got {x.size}")
    if np.ptp(x) == 0.0:
        raise SingularFitError("all x values identical")
    # np.vander, not polyvander: importing numpy.polynomial costs 4.6 ms and 0.9 MB
    design = np.vander(x, degree + 1, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < degree + 1:
        raise SingularFitError("design matrix is rank deficient")
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return PolyFit(coefficients=coef, rms_residual=rms)


def linfit(x, y) -> LineFit:
    """Ordinary least-squares straight line through the points (x, y)."""
    fit = polyfit(x, y, 1)
    return LineFit(
        slope=float(fit.coefficients[1]),
        intercept=float(fit.coefficients[0]),
        rms_residual=fit.rms_residual,
    )
