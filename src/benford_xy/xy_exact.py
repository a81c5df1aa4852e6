"""Closed-form observables of the 1D anisotropic XY chain in a transverse field.

Everything here evaluates exact expressions. The finite-chain magnetization
is a sum over its N/2 Fourier modes, taken one mode at a time over the whole
lambda array (see mz_finite_many). The thermal infinite-lattice quantities
are single integrals over [0, pi], each a row-blocked weighted sum over
quadrature nodes (_row_quadrature). Zero temperature is the
distinguished value beta_tilde = inf, in which case the thermal factor
tanh(beta_tilde * L / 2) is replaced by 1 exactly rather than evaluated at a
large float.

Temperature-dependent integrands develop structure of width ~T_tilde in the
dispersion, concentrated where the dispersion is smallest (phi = 0, phi = pi,
and an interior minimum for small anisotropy). Uniform panels cannot resolve
that at T_tilde ~ 1e-5, so the thermal path integrates on panels refined
geometrically toward those points. The panels are placed per lambda bin
of width _RULE_BIN, so a thermal value depends on (lambda, gamma, T_tilde)
alone, never on the other lambda of its call.

Within a bin, Mz and dMz/dT are analytic in lambda on the scale of T_tilde,
so the thermal kernels integrate only at the bin's Chebyshev points of the
second kind and interpolate every other lambda by the barycentric formula
(Berrut & Trefethen, SIAM Rev. 46, 501 (2004); Trefethen, Approximation
Theory and Approximation Practice, ch. 5 and 8). The degree starts at 16 and
doubles, each time reusing the values it has, since the point sets are
nested. Degree n is accepted once its interpolant predicts the values at the
n points degree 2n adds to within 1e-13 of the largest value, just above the
rounding of the quadrature itself (up to 6e-14 for dMz/dT next to
lambda = 1); the bin is then interpolated at degree 2n. A bin that needs a
degree above 256 (structure much narrower than the bin, as T_tilde -> 0)
has every lambda integrated directly on its rule. The node values of the
last 64 (kernel, bin, gamma, T_tilde) are cached, so the one-window calls of
a scan or a crossover temperature share them.

The infinite lattice at T = 0 needs no quadrature: Mz, G(-1) and G(+1) are
complete elliptic integrals (Barouch & McCoy, Phys. Rev. A 3, 786 (1971)),
evaluated by Bulirsch's cel iteration in a form that stays finite at
lambda = +-1 (see mz_and_correlators_many). Mz needs only the integral X
and K; the derivative dX/dp is carried through the iteration only for
G(-1) and G(+1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConfigurationError, DomainError

# Cells (sample rows x quadrature nodes) per block of the work matrices of
# the thermal quadrature and the barycentric interpolant. It bounds their
# memory whatever the number of samples, and at 256 KB a temporary the block
# stays in a core's L2 cache: 2**15 cells ran the quadrature kernels about
# twice as fast as 2**19. The finite chain has no blocks (mz_finite_many).
_BLOCK_CELLS = 1 << 15

# Every lambda in bin k = floor(lambda / _RULE_BIN) is integrated on the
# thermal rule built for [k, k + 1) * _RULE_BIN.
_RULE_BIN = 2e-3

# The per-bin interpolant of the thermal kernels (see _bin_interpolant): its
# least and greatest degree, its acceptance threshold relative to the bin's
# largest value, and how many bins' node values are cached. Degree n takes
# every (_DEGREE_CAP / n)-th point of _CHEBYSHEV, so the point sets nest.
_DEGREE_MIN = 16
_DEGREE_CAP = 256
_INTERP_TOL = 1e-13
_CACHED_BINS = 64
_CHEBYSHEV = -np.cos(math.pi * np.arange(_DEGREE_CAP + 1) / _DEGREE_CAP)


def check_model(gamma: float, beta_tilde: float = math.inf,
                n_sites: int | None = None) -> None:
    """Reject model parameters outside the chain's domain: gamma must be
    finite and nonzero, beta_tilde positive (inf means T = 0), and n_sites
    absent (infinite lattice) or an even integer >= 4."""
    if gamma == 0.0 or not np.isfinite(gamma):
        raise ConfigurationError(f"gamma must be finite and nonzero, got {gamma!r}")
    if not (beta_tilde > 0.0):
        raise ConfigurationError(
            f"beta_tilde must be positive (inf means T=0), got {beta_tilde!r}"
        )
    if n_sites is not None and (n_sites < 4 or n_sites % 2):
        raise ConfigurationError(f"n_sites must be an even integer >= 4, got {n_sites!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration: anisotropy, reduced field, reduced inverse
    temperature (inf means T = 0), and optional even chain length."""

    gamma: float
    lam: float
    beta_tilde: float = math.inf
    n_sites: int | None = None

    def __post_init__(self):
        check_model(self.gamma, self.beta_tilde, self.n_sites)
        if not np.isfinite(self.lam):
            raise ConfigurationError("lambda must be finite")


def dispersion(lam, gamma, phi):
    """Single-mode energy L = sqrt(gamma^2 sin^2 phi + (lam - cos phi)^2)."""
    return np.sqrt((gamma * np.sin(phi)) ** 2 + (np.asarray(lam) - np.cos(phi)) ** 2)


def _sech2(z):
    # 1/cosh^2 without overflow; z >= 0 here.
    e = np.exp(-2.0 * np.asarray(z, dtype=float))
    return 4.0 * e / (1.0 + e) ** 2


def _gap_minima(gamma: float, lam_lo: float, lam_hi: float) -> list[float]:
    """Interior angles where the dispersion can be smallest for lam in range."""
    pts = []
    g2 = gamma * gamma
    if g2 < 1.0:
        for lam in {lam_lo, 0.5 * (lam_lo + lam_hi), lam_hi}:
            x = lam / (1.0 - g2)
            if -1.0 < x < 1.0:
                pts.append(math.acos(x))
    return pts


def _thermal_edges(gamma: float, t_tilde: float, lam_lo: float, lam_hi: float) -> np.ndarray:
    """Panel edges refined geometrically toward live dispersion minima.

    A ladder is placed at a candidate angle p only when the gap there is
    small enough (relative to temperature) for the thermal factor to vary,
    for some lambda in [lam_lo, lam_hi]. The dispersion at p is least at
    lambda = cos p, so its minimum over the span is taken at cos p clipped
    to it. Saturated regions fall back to the capped smooth panels.
    """
    finest = max(t_tilde / 16.0, 1e-12)
    depth = min(52, max(4, int(math.ceil(math.log2(math.pi / finest)))))
    offsets = math.pi * 2.0 ** -np.arange(1, depth + 1, dtype=float)
    threshold = max(0.05, 50.0 * t_tilde)
    edges = {0.0, math.pi}
    for p in [0.0, math.pi] + _gap_minima(gamma, lam_lo, lam_hi):
        if dispersion(min(max(math.cos(p), lam_lo), lam_hi), gamma, p) >= threshold:
            continue
        for off in offsets:
            for e in (p - off, p + off):
                if 0.0 < e < math.pi:
                    edges.add(e)
    edges = np.array(sorted(edges))
    # cap panel width so smooth regions between ladders stay resolved
    cap = math.pi / 16.0
    out = [edges[0]]
    for e in edges[1:]:
        gap = e - out[-1]
        if gap > cap:
            k = int(math.ceil(gap / cap))
            out.extend(out[-1] + gap * np.arange(1, k) / k)
        out.append(e)
    return np.asarray(out)


def _thermal_quadrature(kind: str, arg: float, lams, gamma: float,
                        t_tilde: float) -> np.ndarray:
    """The thermal integral of kind (built from arg) at each lambda, on the
    rule of its lambda bin: interpolated where the bin has an interpolant,
    integrated directly where it has none."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    bins = np.floor(lams / _RULE_BIN)
    out = np.full(lams.size, math.nan)
    # a set: np.unique imports numpy.ma on first use (15 ms, 1.7 MB on a 2-core Xeon)
    for k in set(bins.tolist()):
        at = bins == k
        nodes = _bin_interpolant(kind, arg, k, gamma, t_tilde)
        if nodes is None:
            out[at] = _row_quadrature(_THERMAL_INTEGRANDS[kind](arg), lams[at], gamma,
                                      *_bin_rule(k, gamma, t_tilde))
        else:
            out[at] = _barycentric(*nodes, lams[at])
    return out


@functools.lru_cache(maxsize=_CACHED_BINS)
def _bin_interpolant(kind: str, arg: float, k: float, gamma: float,
                     t_tilde: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Chebyshev points of bin k and the thermal integral at them, or None
    when no degree up to _DEGREE_CAP passes the check.

    Degree n (n + 1 points) is accepted when its interpolant predicts the
    integral at the n points that degree 2n adds to within _INTERP_TOL of
    the largest value; the bin is then interpolated at degree 2n.
    """
    rule = _bin_rule(k, gamma, t_tilde)
    integrand = _THERMAL_INTEGRANDS[kind](arg)
    x = (k + 0.5) * _RULE_BIN + 0.5 * _RULE_BIN * _CHEBYSHEV
    step = _DEGREE_CAP // _DEGREE_MIN
    f = _row_quadrature(integrand, x[::step], gamma, *rule)
    while step > 1:
        added = x[step // 2 :: step]
        new = _row_quadrature(integrand, added, gamma, *rule)
        error = np.max(np.abs(_barycentric(x[::step], f, added) - new))
        both = np.empty(f.size + new.size)
        both[::2], both[1::2] = f, new
        f, step = both, step // 2
        if error <= _INTERP_TOL * np.max(np.abs(f)):
            # read-only: the cache hands the same arrays to every caller
            x = x[::step].copy()
            x.flags.writeable = f.flags.writeable = False
            return x, f
    return None


def _bin_rule(k: float, gamma: float, t_tilde: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights of the thermal rule of bin k."""
    edges = _thermal_edges(gamma, t_tilde, k * _RULE_BIN, (k + 1.0) * _RULE_BIN)
    return numerics.composite_nodes(edges)


def _barycentric(x: np.ndarray, f: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The polynomial through (x, f) at each lambda, for x the Chebyshev
    points of the second kind in ascending order, by the barycentric formula
    (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)).

    Rows go in blocks of at most _BLOCK_CELLS cells and einsum reduces each
    row, as in _row_quadrature, so a value does not depend on the other
    lambda of the call. A lambda on a node takes that node's value.
    """
    w = np.ones(x.size)
    w[1::2] = -1.0
    w[[0, -1]] *= 0.5
    wf = w * f
    out = np.empty(lams.size)
    rows = max(1, _BLOCK_CELLS // x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, lams.size, rows):
            q = lams[i : i + rows, None] - x
            np.divide(1.0, q, out=q)
            out[i : i + rows] = np.einsum("ij,j->i", q, wf) / np.einsum("ij,j->i", q, w)
    at = np.minimum(np.searchsorted(x, lams), x.size - 1)
    hit = x[at] == lams
    out[hit] = f[at[hit]]
    return out


def _row_quadrature(integrand, lams: np.ndarray, gamma: float,
                    phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over the quadrature nodes phi, weights w, of integrand(d, disp),
    per lambda: the thermal kernels' integral on one rule.

    d = cos(phi) - lambda and disp is the dispersion, as (rows x nodes)
    arrays that the integrand may overwrite. Rows go in blocks of at most
    _BLOCK_CELLS cells, so the temporaries stay small for any number of
    samples. einsum reduces every row with the same loop, so a value does not
    depend on the block it falls in; a BLAS matrix-vector product would not
    do, since it switches kernels for a block's trailing rows and splits
    blocks across threads.
    """
    c = np.cos(phi)
    g2s2 = (gamma * np.sin(phi)) ** 2
    out = np.empty(lams.size)
    rows = max(1, min(lams.size, _BLOCK_CELLS // w.size))
    # the call's two work arrays, refilled block by block: a fresh pair per
    # block made the heap shrink and grow again between blocks
    work = np.empty((2, rows, w.size))
    for i in range(0, lams.size, rows):
        block = lams[i : i + rows, None]
        d, disp = work[:, : block.shape[0]]
        np.subtract(c, block, out=d)
        np.multiply(d, d, out=disp)
        disp += g2s2
        np.sqrt(disp, out=disp)
        out[i : i + rows] = np.einsum("ij,j->i", integrand(d, disp), w)
    return out


def _mz_integrand(beta_tilde: float):
    """(cos phi - lambda) / L * tanh(beta_tilde L / 2), in place."""
    def integrand(d, disp):
        d /= disp
        if not math.isinf(beta_tilde):
            disp *= 0.5 * beta_tilde
            d *= np.tanh(disp, out=disp)
        return d

    return integrand


def mz_infinite_many(lams, gamma: float, beta_tilde: float = math.inf) -> np.ndarray:
    """Thermodynamic-limit transverse magnetization for an array of lambda."""
    if math.isinf(beta_tilde):
        return mz_and_correlators_many(lams, gamma, correlators=False)
    return -_thermal_quadrature("mz", beta_tilde, lams, gamma, 1.0 / beta_tilde) / math.pi


def mz_infinite(params: ModelParams) -> float:
    """Transverse magnetization in the thermodynamic limit."""
    if params.n_sites is not None:
        raise ConfigurationError("mz_infinite requires n_sites to be absent")
    return float(mz_infinite_many([params.lam], params.gamma, params.beta_tilde)[0])


def mz_finite_many(lams, gamma: float, n_sites: int,
                   beta_tilde: float = math.inf) -> np.ndarray:
    """Finite-chain transverse magnetization for an array of lambda: the Mz
    integrand summed over the modes phi_p = 2 pi p / N, p = 1..N/2, each mode
    over the whole lambda array at once.

    The sum keeps the order of np.einsum("ij,j->i") over a row of N/2 terms
    and unit weights (numpy 2.4), so the values keep the bits they had as
    einsum row sums: even and odd terms go into two lanes, each block of 8
    adds t0 + (t2 + (t4 + (t6 + lane))) into lane 0 and its odd terms
    likewise into lane 1, the rest go in by pairs, and the result is
    lane 0 + lane 1. A value depends on lambda alone.
    """
    half = n_sites // 2
    phi = 2.0 * math.pi * np.arange(1, half + 1) / n_sites
    c = np.cos(phi).tolist()
    g2s2 = ((gamma * np.sin(phi)) ** 2).tolist()
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    mz = _mz_integrand(beta_tilde)
    lanes = np.zeros((2, lams.size))
    d, disp = np.empty((2, lams.size))
    blocked = half - half % 8
    order = [k + j for k in range(0, blocked, 8) for j in (6, 4, 2, 0, 7, 5, 3, 1)]
    for p in order + list(range(blocked, half)):
        np.subtract(c[p], lams, out=d)
        np.multiply(d, d, out=disp)
        disp += g2s2[p]
        np.sqrt(disp, out=disp)
        if g2s2[p] == 0.0:
            # A mode of zero energy (phi = pi at lambda = -1 with tiny gamma,
            # where d = 0 too) adds 0: d / inf is 0 and tanh(inf) is 1. Only
            # a mode with gamma^2 sin^2 phi = 0 can have disp = 0.
            disp[disp == 0.0] = math.inf
        lanes[p % 2] += mz(d, disp)
    return -(2.0 / n_sites) * (lanes[0] + lanes[1])


# Steps of the cel iteration and the floor on its kc. The iteration converges
# quadratically once kc is within a few decades of 1, and ten steps reach
# double precision for every 1e-30 <= kc <= 1e30; kc is at most 1 / |gamma|,
# hence the least |gamma| the T = 0 kernel takes. kc = 0 (lambda = +-1)
# would never converge; at kc = 1e-30 every term differs from its kc = 0
# limit by about kc**2 log(1/kc), far below rounding.
_CEL_STEPS = 10
_KC_FLOOR = 1e-30


def _cel(kc: np.ndarray, p: np.ndarray, derivative: bool):
    """X = cel(kc, p, 1, 0), its derivative dX/dp (None unless derivative is
    true), and K(kc).

    Bulirsch's complete elliptic integral is
        cel(kc, p, a, b) = int_0^{pi/2} (a cos^2 t + b sin^2 t) dt
                           / ((cos^2 t + p sin^2 t) sqrt(cos^2 t + kc^2 sin^2 t)),
    here for p > 0 (Bulirsch, Numer. Math. 13, 305 (1969)). Each step is a
    Gauss transformation of the integral, under which kc and m run through
    the arithmetic-geometric mean of kc and 1 (scaled by 2 per step); once
    they meet, the integral is elementary. Only G(+-1) need dX/dp; when asked
    for, it is carried through every step by the chain rule, from the step's
    old a, b and s, so X and K have the same bits either way. A fixed number
    of elementwise steps keeps each value independent of the rest of the
    array.
    """
    s = np.sqrt(p)
    a, b = np.ones_like(kc), np.zeros_like(kc)
    if derivative:
        ds, da, db = 0.5 / s, np.zeros_like(kc), np.zeros_like(kc)
    m, e = np.ones_like(kc), kc
    for _ in range(_CEL_STEPS):
        g = e / s
        if derivative:
            dg = -g * ds / s
            da, db = da + (db - b * ds / s) / s, 2.0 * (db + da * g + a * dg)
            ds = ds + dg
        a, b = a + b / s, 2.0 * (b + a * g)
        s = s + g
        m, kc = m + kc, 2.0 * np.sqrt(e)
        e = kc * m
    scale = 0.5 * math.pi / (m * (m + s))
    x = (a * m + b) * scale
    dx = (da * m + db - (a * m + b) * ds / (m + s)) * scale if derivative else None
    # m is 2**_CEL_STEPS times the arithmetic-geometric mean of 1 and kc
    return x, dx, math.pi * 2.0 ** (_CEL_STEPS - 1) / m


def mz_and_correlators_many(lams, gamma: float, *, correlators: bool = True) -> np.ndarray:
    """Mz, G(-1) and G(+1) at T = 0 on the infinite lattice, as the rows of
    a (3, lams.size) array, in closed form. With correlators false it forms
    the Mz row alone, which needs no M, with the bits it has in the three.

    With c = cos phi and L the dispersion, pi Mz = int_0^pi (lambda - c) / L
    and pi G(r) = r gamma S + A, where S = int sin^2 phi / L and
    A = int c (lambda - c) / L. The substitution v = (lambda - c) / sin phi
    (lambda^2 < 1) or v = (1 - lambda c) / sin phi (lambda^2 > 1) turns
    dphi / L into dv / sqrt((v^2 + a)(v^2 + b)) over the real line, with
    b = |1 - lambda^2|, a = gamma^2 + e, and e = b where lambda^2 > 1, else 0;
    the part of c even in v is lambda / (v^2 + n), n = 1 + e. Then
    v = sqrt(a) cot t gives cel integrals with kc^2 = b / a and p = n / a:
        pi Mz = h lambda (X + o Y),
        S     = h (Y + q M),
        A     = h (o Y - X + q M),
    where h = 2 / sqrt(a), X = cel(kc, p, 1, 0), M = -dX/dp,
    Y = kc^2 cel(kc, p, 0, 1) = kc^2 (K(kc) - X) / p, q = 2 lambda^2 / (a n),
    and o = 1 where lambda^2 > 1, else 0. The integrals int cos^k phi / L
    diverge logarithmically at lambda = +-1, where kc = 0; X, M and Y stay
    finite there, so the divergent parts have cancelled analytically. Every
    step is elementwise: a value does not depend on the rest of the array.
    """
    if not abs(gamma) >= _KC_FLOOR:
        raise DomainError(f"the T = 0 kernel needs |gamma| >= {_KC_FLOOR:g}, got {gamma!r}")
    lam = np.atleast_1d(np.asarray(lams, dtype=float))
    outside = np.abs(lam) > 1.0
    b = np.abs((1.0 - lam) * (1.0 + lam))
    e = np.where(outside, b, 0.0)
    n = 1.0 + e
    a = gamma * gamma + e
    p = n / a
    kc2 = b / a
    x, dx, k = _cel(np.maximum(np.sqrt(kc2), _KC_FLOOR), p, correlators)
    y = kc2 * (k - x) / p
    oy = np.where(outside, y, 0.0)
    h = 2.0 / (math.pi * np.sqrt(a))
    mz = h * lam * (x + oy)
    if not correlators:
        return mz
    qm = (-2.0 * lam * lam / (a * n)) * dx
    s = h * (y + qm)
    even = h * (oy - x + qm)
    return np.stack([mz, even - gamma * s, even + gamma * s])


def correlator_g_many(r: int, lams, gamma: float) -> np.ndarray:
    """Nearest-neighbour correlator kernel G(r) at T=0, infinite lattice."""
    if r not in (-1, 1):
        raise ConfigurationError("r must be -1 or +1")
    return mz_and_correlators_many(lams, gamma)[1 if r == -1 else 2]


def diagonal_correlators(lam: float, gamma: float) -> tuple[float, float, float]:
    """(Cxx, Cyy, Czz) nearest-neighbour correlators at T=0, infinite lattice.

    Cxx = G(-1), Cyy = G(+1), Czz = Mz^2 - G(-1) G(+1).
    """
    mz, g_minus, g_plus = (float(v[0]) for v in mz_and_correlators_many([lam], gamma))
    return g_minus, g_plus, mz * mz - g_minus * g_plus


def dmz_dT_many(lams, gamma: float, t_tilde: float) -> np.ndarray:
    """Temperature derivative of the infinite-lattice magnetization."""
    if not (t_tilde > 0.0) or not np.isfinite(t_tilde):
        raise DomainError("t_tilde must be positive and finite")
    scale = 2.0 * math.pi * t_tilde * t_tilde
    return _thermal_quadrature("dmz_dT", t_tilde, lams, gamma, t_tilde) / scale


def _dmz_dT_integrand(t_tilde: float):
    """(cos phi - lambda) sech^2(L / (2 t_tilde)), in place."""
    def integrand(d, disp):
        disp /= 2.0 * t_tilde
        d *= _sech2(disp)
        return d

    return integrand


# The thermal integrands by kind, each built from beta_tilde (Mz) or t_tilde
# (its temperature derivative); _bin_interpolant keys its cache on the kind.
_THERMAL_INTEGRANDS = {"mz": _mz_integrand, "dmz_dT": _dmz_dT_integrand}

