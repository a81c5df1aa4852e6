"""Reference values for the benchmark's checks, computed without benford_xy.

Everything here is plain numpy and the standard library, so a fault in the
package cannot also hide in the value it is checked against.

- Ising chain (gamma = 1) at T = 0, closed forms in complete elliptic
  integrals (Barouch & McCoy, Phys. Rev. A 3, 786 (1971)), with
  m = 4 lam / (1 + lam)^2:
      Mz    = [(1 + lam) E(m) - (1 - lam) K(m)] / (pi lam)
      G(-1) = [(lam - 1) K(m) - (1 + lam) E(m)] / pi
  K and E come from the arithmetic-geometric mean.
- G(+1) at gamma = 1 by Gauss-Legendre panels graded geometrically toward
  phi = 0, where the integrand has structure of width |lam - 1|.
- v*, the maximiser of v I(v) with I(v) = int_0^inf sech^2(sqrt(v^2 + x^2)) dx,
  which sets the slope -/+ 1/(2 v*) of the dMz/dT ridge near lam = 1.
"""

from __future__ import annotations

import math

import numpy as np

_AGM_TOL = 4e-16
_AGM_MAX_STEPS = 64


def ellipk_ellipe(m: float, one_minus_m: float | None = None) -> tuple[float, float]:
    """Complete elliptic integrals K(m), E(m) by the arithmetic-geometric mean.

    one_minus_m may be passed separately when it is known more accurately
    than 1 - m (it is, next to lam = 1 below).
    """
    if one_minus_m is None:
        one_minus_m = 1.0 - m
    if not (0.0 <= m < 1.0) or one_minus_m <= 0.0:
        raise ValueError(f"need 0 <= m < 1, got m = {m!r}")
    a, b, c = 1.0, math.sqrt(one_minus_m), math.sqrt(m)
    # E = K (1 - sum_n 2^(n-1) c_n^2); a and b meet quadratically, and once
    # they agree to rounding c_n^2 no longer moves the sum
    total, power = 0.5 * c * c, 0.5
    for _ in range(_AGM_MAX_STEPS):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        total += power * c * c
        if abs(a - b) <= _AGM_TOL * a:
            break
    else:
        raise ArithmeticError(f"AGM did not converge for m = {m!r}")
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - total)


def _modulus(lam: float) -> tuple[float, float]:
    # m = 4 lam / (1 + lam)^2 and 1 - m = ((1 - lam) / (1 + lam))^2, the
    # latter without cancellation
    return 4.0 * lam / (1.0 + lam) ** 2, ((1.0 - lam) / (1.0 + lam)) ** 2


def ising_mz(lam: float) -> float:
    """Transverse magnetization of the Ising chain (gamma = 1), T = 0."""
    if lam == 1.0:
        return 2.0 / math.pi
    k, e = ellipk_ellipe(*_modulus(lam))
    return ((1.0 + lam) * e - (1.0 - lam) * k) / (math.pi * lam)


def ising_g_minus(lam: float) -> float:
    """G(-1) = Cxx of the Ising chain (gamma = 1), T = 0."""
    if lam == 1.0:
        return -2.0 / math.pi
    k, e = ellipk_ellipe(*_modulus(lam))
    return ((lam - 1.0) * k - (1.0 + lam) * e) / math.pi


def _graded_rule(lam: float, order: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, pi], panels halving toward phi = 0 down to
    well below |lam - 1|, and at most pi/32 wide elsewhere."""
    scale = max(abs(lam - 1.0), 1e-12)
    depth = int(math.ceil(math.log2(math.pi / scale))) + 12
    ladder = math.pi * 2.0 ** -np.arange(1, depth + 1, dtype=float)
    coarse = np.linspace(0.0, math.pi, 33)
    edges = np.unique(np.concatenate([[0.0], ladder, coarse]))
    x, w = np.polynomial.legendre.leggauss(order)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (hi + lo) + half * x).ravel(), (half * w).ravel()


def ising_quadrature(lam: float) -> tuple[float, float, float]:
    """(Mz, G(-1), G(+1)) of the Ising chain at T = 0 by graded quadrature.

    With L = sqrt(sin^2 phi + (cos phi - lam)^2):
        Mz   = -(1/pi) int (cos phi - lam) / L
        G(r) =  (1/pi) int (sin(r phi) sin phi - cos phi (cos phi - lam)) / L
    """
    phi, w = _graded_rule(lam)
    s, c = np.sin(phi), np.cos(phi)
    disp = np.sqrt(s * s + (c - lam) ** 2)
    mz = -float(w @ ((c - lam) / disp)) / math.pi
    g_minus = float(w @ ((-s * s - c * (c - lam)) / disp)) / math.pi
    g_plus = float(w @ ((s * s - c * (c - lam)) / disp)) / math.pi
    return mz, g_minus, g_plus


def ising_observables(lam: float) -> dict[str, float]:
    """Mz, Cxx, Cyy, Czz of the Ising chain at T = 0, infinite lattice.

    Cxx = G(-1), Cyy = G(+1), Czz = Mz^2 - G(-1) G(+1).
    """
    mz, g_minus = ising_mz(lam), ising_g_minus(lam)
    g_plus = ising_quadrature(lam)[2]
    return {"mz": mz, "cxx": g_minus, "cyy": g_plus, "czz": mz * mz - g_minus * g_plus}


def ridge_v_star() -> float:
    """Maximiser of v I(v), I(v) = int_0^inf sech^2(sqrt(v^2 + x^2)) dx.

    Composite Gauss-Legendre on [0, 40] (the integrand is below 1e-34
    beyond) and a golden-section search on [0.5, 1.2].
    """
    x_ref, w_ref = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(0.0, 40.0, 41)
    half = 0.5 * np.diff(edges)[:, None]
    x = (edges[:-1, None] + half + half * x_ref).ravel()
    w = (half * w_ref).ravel()

    def v_i(v: float) -> float:
        return v * float(np.sum(w / np.cosh(np.hypot(v, x)) ** 2))

    lo, hi = 0.5, 1.2
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    p, q = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fp, fq = v_i(p), v_i(q)
    while hi - lo > 1e-12:
        if fp > fq:
            hi, q, fq = q, p, fp
            p = hi - ratio * (hi - lo)
            fp = v_i(p)
        else:
            lo, p, fp = p, q, fq
            q = lo + ratio * (hi - lo)
            fq = v_i(q)
    return 0.5 * (lo + hi)


def ridge_slope() -> float:
    """|slope| 1/(2 v*) of the dMz/dT crossover ridge of the Ising chain."""
    return 1.0 / (2.0 * ridge_v_star())


def steepest_center(lams, deltas, lambda_range, window, smooth_half=0.03) -> float:
    """Interior midpoint where the least-squares slope of delta over
    +-smooth_half is largest in magnitude.

    Windows clipped by the scan range are left out: their midpoints are off
    the grid and their one-sided sampling fakes steep gradients.
    """
    x = np.asarray(lams, dtype=float)
    y = np.asarray(deltas, dtype=float)
    a, b = lambda_range
    keep = (x >= a + window / 2 - 1e-12) & (x <= b - window / 2 + 1e-12)
    x, y = x[keep], y[keep]
    best, center = -1.0, math.nan
    for c in x:
        sel = np.abs(x - c) <= smooth_half
        if sel.sum() < 4:
            continue
        dx = x[sel] - x[sel].mean()
        slope = abs(float((dx * (y[sel] - y[sel].mean())).sum() / (dx * dx).sum()))
        if slope > best:
            best, center = slope, float(c)
    return center
