"""Closed-form observables of the 1D anisotropic XY chain in a transverse field.

Everything here evaluates exact expressions. The finite-chain magnetization
is a sum over its N/2 Fourier modes, taken one mode at a time over the whole
lambda array; one call sums several chains, evaluating once each mode that
has the same bits in more than one of them (see mz_finite_many).
mz_rises proves that the computed Mz at T = 0 rises strictly on a lattice,
from a lower bound on dMz/dlambda and a bound on the error of one value: the
rounding of the mode sum for a chain, that of the cel iteration for the
infinite lattice; the window stage then evaluates Mz only next to the digit
thresholds. The thermal infinite-lattice quantities are single integrals over
[0, pi], each a row-blocked weighted sum over quadrature nodes
(_row_quadrature). The one temperature parameter is the reduced temperature
t_tilde, and t_tilde = 0 is exactly T = 0: the thermal factor
tanh(L / (2 t_tilde)) is then replaced by 1 rather than evaluated at a large
argument.

Temperature-dependent integrands develop structure of width ~T_tilde in the
dispersion, concentrated where the dispersion is smallest (phi = 0, phi = pi,
and an interior minimum for small anisotropy). Uniform panels cannot resolve
that at T_tilde ~ 1e-5, so the thermal path integrates on panels refined
geometrically toward those points. The panels are placed per lambda bin
of width _RULE_BIN, so a thermal value depends on (lambda, gamma, T_tilde)
alone, never on the other lambda of its call. The two bins whose closed
range holds lambda = 1, and the two that hold -1, are cut into 2, 4 or 8
equal sub-bins at most _GRADED_WIDTH * T_tilde wide when that many suffice
(T_tilde from 6.25e-5 up to 5e-4), since the structure there is a few
T_tilde wide; a sub-bin then serves as a bin. A call evaluates each run of
neighbouring lambda in one bin as one slice (_bin_runs); a lambda that is
not finite gives NaN and builds no bin.

Within a bin, Mz and dMz/dT are analytic in lambda on the scale of T_tilde,
so the thermal kernels integrate only at the bin's Chebyshev points of the
second kind and interpolate every other lambda by the barycentric formula
(Berrut & Trefethen, SIAM Rev. 46, 501 (2004); Trefethen, Approximation
Theory and Approximation Practice, ch. 5 and 8). The degree starts at 16 and
doubles, each time reusing the values it has, since the point sets are
nested. Degree n is accepted once its interpolant predicts the values at the
n points degree 2n adds to within 1e-13 of the largest value, just above the
rounding of the quadrature itself (up to 6e-14 for dMz/dT next to
lambda = 1); the bin is then interpolated at degree n, the degree that
passed. A bin in which degree 128 fails the check against 256 (structure
much narrower than the bin, as T_tilde -> 0) has every lambda integrated
directly on its rule, as has a bin holding lambda = +-1 once T_tilde is
below its width / _DEGREE_CAP**2 (see _bin_interpolant). The node values
of the last 64 (kernel, bin, gamma, T_tilde) and the rules of the last 64
(bin, gamma, T_tilde) are cached, so the one-window calls of a scan or a
crossover temperature share them, and Mz and dMz/dT share a bin's rule.

The infinite lattice at T = 0 needs no quadrature: Mz, G(-1) and G(+1) are
complete elliptic integrals (Barouch & McCoy, Phys. Rev. A 3, 786 (1971)),
evaluated by Bulirsch's cel iteration in a form that stays finite at
lambda = +-1 (see mz_and_correlators_many), to rounding for 1e-30 <= |gamma|
<= 1e20 (see _KC_FLOOR), the range check_model allows. Each sample leaves the
iteration once its own iterates have met, after five steps for most and at
most ten (see _cel). Mz needs only the integral X and K; the derivative
dX/dp is carried through the iteration only for G(-1) and G(+1).
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
# thermal rule built for [k, k + 1) * _RULE_BIN, except in the bins whose
# closed range holds +-1 (_GRADED_BINS). Those are cut into the fewest
# 2**j <= _GRADED_PARTS equal sub-bins at most _GRADED_WIDTH * t_tilde wide,
# or not at all if more would be needed: below t_tilde = 6.25e-5 the sub-bins
# would cost more quadrature than they save in interpolation. Sub-bin m of
# width w = _RULE_BIN / 2**j is [m, m + 1) * w, m = floor(lambda / w).
_RULE_BIN = 2e-3
_GRADED_PARTS = 8
_GRADED_WIDTH = 4.0
_GRADED_BINS = frozenset(
    k for c in (-1.0, 1.0)
    for k in range(math.floor(c / _RULE_BIN) - 1, math.floor(c / _RULE_BIN) + 2)
    if k * _RULE_BIN <= c <= (k + 1.0) * _RULE_BIN)

# The per-bin interpolant of the thermal kernels (see _bin_interpolant): its
# least degree, the greatest degree it checks against (it interpolates at
# half of that at most), its acceptance threshold relative to the bin's
# largest value, and how many bins' node values, and rules, are cached.
# Degree n takes every (_DEGREE_CAP / n)-th point of _CHEBYSHEV, so the point
# sets nest.
_DEGREE_MIN = 16
_DEGREE_CAP = 256
_INTERP_TOL = 1e-13
_CACHED_BINS = 64
_CHEBYSHEV = -np.cos(math.pi * np.arange(_DEGREE_CAP + 1) / _DEGREE_CAP)


# The largest |gamma| check_model takes on any path: its square, (gamma sin phi)^2
# in the dispersion, stays far below the float overflow near 1.8e308.
_GAMMA_MAX = 1e150
# The largest |lambda| check_model takes: from 2**44 (about 1.8e13) one float
# step of lambda is wider than a thermal bin (_RULE_BIN), and the thermal
# kernels can give inf or NaN; at 1e12 a bin holds 16 floats. The T = 0
# correlators' a n overflows from about 1.2e77.
_LAMBDA_MAX = 1e12
# The least positive t_tilde whose reciprocal, the thermal factor's 1 / t_tilde,
# is finite in floats.
_T_TILDE_MIN = 5.56268464626801e-309
# The least t_tilde for which dmz_dT_many's divisor 2 pi t_tilde^2 is a normal
# float; below it the divisor loses bits, and from about 1e-162 it is 0.
_DMZ_T_TILDE_MIN = 5.950894918631799e-155


def check_model(gamma: float, t_tilde: float = 0.0,
                n_sites: int | None = None, lambdas=()) -> None:
    """Reject model parameters outside the chain's domain: gamma nonzero with
    |gamma| <= _GAMMA_MAX (_KC_FLOOR to _T0_GAMMA_MAX on the infinite lattice
    at T = 0), t_tilde 0 (T = 0) or from _T_TILDE_MIN up and finite, n_sites
    absent (infinite lattice) or an even integer >= 4, and each of lambdas
    finite with |lambda| <= _LAMBDA_MAX. The configs and every array kernel
    call it before any arithmetic; those that take lambda from outside (the
    configs, diagonal_correlators, the crossover grid's ends) pass it in."""
    if gamma == 0.0 or not abs(gamma) <= _GAMMA_MAX:
        raise ConfigurationError(
            f"gamma must be nonzero with |gamma| <= {_GAMMA_MAX:g}, got {gamma!r}")
    if not (0.0 <= t_tilde < math.inf):
        raise ConfigurationError(
            f"t_tilde must be finite and >= 0 (0 means T=0), got {t_tilde!r}")
    if 0.0 < t_tilde < _T_TILDE_MIN:
        raise ConfigurationError(
            f"t_tilde must be 0 or at least {_T_TILDE_MIN!r}, below which 1/t_tilde"
            f" overflows, got {t_tilde!r}")
    if not t_tilde and n_sites is None and not _KC_FLOOR <= abs(gamma) <= _T0_GAMMA_MAX:
        raise ConfigurationError(
            f"the infinite lattice at T = 0 needs |gamma| >= {_KC_FLOOR:g} and"
            f" <= {_T0_GAMMA_MAX:g}, got {gamma!r}")
    if n_sites is not None and (n_sites < 4 or n_sites % 2):
        raise ConfigurationError(f"n_sites must be an even integer >= 4, got {n_sites!r}")
    for lam in lambdas:
        if not abs(lam) <= _LAMBDA_MAX:
            raise ConfigurationError(
                f"lambda must be finite with |lambda| <= {_LAMBDA_MAX:g}, got {lam!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration of the infinite lattice: anisotropy, reduced
    field, and reduced temperature (0 means T = 0)."""

    gamma: float
    lam: float
    t_tilde: float = 0.0

    def __post_init__(self):
        check_model(self.gamma, self.t_tilde, lambdas=(self.lam,))


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


def _thermal_quadrature(kind: str, lams, gamma: float, t_tilde: float) -> np.ndarray:
    """The thermal integral of kind at each lambda, on the rule of its lambda
    bin: interpolated where the bin has an interpolant, integrated directly
    where it has none. A lambda that is not finite gives NaN."""
    check_model(gamma, t_tilde)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    out = np.full(lams.size, math.nan)
    for m, width, run in _bin_runs(lams, t_tilde):
        nodes = _bin_interpolant(kind, m, width, gamma, t_tilde)
        if nodes is None:
            out[run] = _row_quadrature(_THERMAL_INTEGRANDS[kind](t_tilde), lams[run], gamma,
                                       *_bin_rule(m, width, gamma, t_tilde))
        else:
            out[run] = _barycentric(*nodes, lams[run])
    return out


def _bin_parts(t_tilde: float) -> int:
    """How many sub-bins each of _GRADED_BINS is cut into at t_tilde."""
    parts = 1
    while _RULE_BIN / parts > _GRADED_WIDTH * t_tilde:
        parts *= 2
        if parts > _GRADED_PARTS:
            return 1
    return parts


def _runs(keys: np.ndarray, start: int = 0):
    """(key, slice) of each run of equal neighbours in keys, the slices
    shifted by start."""
    if not keys.size:
        return
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, keys.size]):
        yield float(keys[a]), slice(start + a, start + b)


def _bin_runs(lams: np.ndarray, t_tilde: float):
    """(m, w, run) for each run of lams in one bin [m, m + 1) * w: a bin of
    width _RULE_BIN, or a sub-bin of a graded one. Lambda that is not finite
    falls in no bin."""
    q = lams / _RULE_BIN
    parts = _bin_parts(t_tilde)
    for k, run in _runs(np.floor(q)):
        if not math.isfinite(k):
            continue
        if parts == 1 or k not in _GRADED_BINS:
            yield k, _RULE_BIN, run
        else:
            # floor(lambda / w) in bits, as w = _RULE_BIN / parts divides exactly
            for m, part in _runs(np.floor(q[run] * parts), run.start):
                yield m, _RULE_BIN / parts, part


@functools.lru_cache(maxsize=_CACHED_BINS)
def _bin_interpolant(kind: str, m: float, width: float, gamma: float,
                     t_tilde: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Chebyshev points of bin [m, m + 1) * width and the thermal integral at
    them, or None when no degree up to _DEGREE_CAP passes the check.

    Degree n (n + 1 points) is accepted when its interpolant predicts the
    integral at the n points that degree 2n adds to within _INTERP_TOL of
    the largest value at all 2n + 1; the bin is then interpolated at degree
    n, the degree that passed.
    """
    # next to lambda = +-1 the structure is about t_tilde wide; once that is
    # narrower than the finest spacing of _DEGREE_CAP points, every degree
    # can miss it alike and pass the check on the values beside it
    lo, hi = m * width, (m + 1.0) * width
    if t_tilde * _DEGREE_CAP**2 < width and (lo <= 1.0 <= hi or lo <= -1.0 <= hi):
        return None
    rule = _bin_rule(m, width, gamma, t_tilde)
    integrand = _THERMAL_INTEGRANDS[kind](t_tilde)
    x = (m + 0.5) * width + 0.5 * width * _CHEBYSHEV
    step = _DEGREE_CAP // _DEGREE_MIN
    f = _row_quadrature(integrand, x[::step], gamma, *rule)
    while step > 1:
        added = x[step // 2 :: step]
        new = _row_quadrature(integrand, added, gamma, *rule)
        error = np.max(np.abs(_barycentric(x[::step], f, added) - new))
        if error <= _INTERP_TOL * max(np.max(np.abs(f)), np.max(np.abs(new))):
            # read-only: the cache hands the same arrays to every caller
            x = x[::step].copy()
            x.flags.writeable = f.flags.writeable = False
            return x, f
        both = np.empty(f.size + new.size)
        both[::2], both[1::2] = f, new
        f, step = both, step // 2
    return None


@functools.lru_cache(maxsize=_CACHED_BINS)
def _bin_rule(m: float, width: float, gamma: float,
              t_tilde: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights of the thermal rule of bin
    [m, m + 1) * width, read-only as the cache shares them."""
    rule = numerics.composite_nodes(_thermal_edges(gamma, t_tilde, m * width, (m + 1.0) * width))
    for a in rule:
        a.flags.writeable = False
    return rule


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
    # the call's two work arrays, refilled block by block: one allocation per
    # call, however many blocks its samples fill
    work = np.empty((2, rows, w.size))
    for i in range(0, lams.size, rows):
        block = lams[i : i + rows, None]
        d, disp = work[:, : block.shape[0]]
        np.subtract(c, block, out=d)
        np.square(d, out=disp)
        disp += g2s2
        np.sqrt(disp, out=disp)
        out[i : i + rows] = np.einsum("ij,j->i", integrand(d, disp), w)
    return out


def _mz_integrand(t_tilde: float):
    """(cos phi - lambda) / L * tanh(L / (2 t_tilde)), in place; the tanh is 1
    at t_tilde = 0. Its argument is L * (0.5 * beta_tilde), beta_tilde =
    1 / t_tilde, which has other bits than L / (2 t_tilde)."""
    half_beta = 0.5 * (1.0 / t_tilde) if t_tilde else None

    def integrand(d, disp):
        d /= disp
        if half_beta is not None:
            # at the least t_tilde, half_beta is near 9e307 and L * half_beta
            # overflows to inf, whose tanh is 1: the T -> 0 limit, as meant
            with np.errstate(over="ignore"):
                disp *= half_beta
            d *= np.tanh(disp, out=disp)
        return d

    return integrand


def mz_infinite_many(lams, gamma: float, t_tilde: float = 0.0) -> np.ndarray:
    """Thermodynamic-limit transverse magnetization for an array of lambda."""
    if not t_tilde:
        return mz_and_correlators_many(lams, gamma, correlators=False)
    return -_thermal_quadrature("mz", lams, gamma, t_tilde) / math.pi


def mz_infinite(params: ModelParams) -> float:
    """Transverse magnetization on the infinite lattice."""
    return float(mz_infinite_many([params.lam], params.gamma, params.t_tilde)[0])


@functools.lru_cache(maxsize=8)
def _chain_modes(gamma: float, lengths: tuple[int, ...]) -> tuple[tuple[float, float, tuple], ...]:
    """The modes phi_p = 2 pi p / N, p = 1..N/2, of the chains of the given
    lengths, as (cos phi, gamma^2 sin^2 phi, the rows of the chains that have
    it), one entry per pair of floats that differ in their bits, in ascending
    phi. So each chain meets its own modes in the order p = 1..N/2. Cached,
    as the one-window calls of a scan share their chains."""
    modes = {}
    for row, n in enumerate(lengths):
        phi = 2.0 * math.pi * np.arange(1, n // 2 + 1) / n
        for key in zip(phi.tolist(), np.cos(phi).tolist(), ((gamma * np.sin(phi)) ** 2).tolist()):
            # modes of one (cos phi, gamma^2 sin^2 phi) keep the phi they first had
            modes.setdefault(key[1:], (key[0], []))[1].append(row)
    return tuple((c, g2s2, tuple(rows)) for (c, g2s2), (_, rows) in
                 sorted(modes.items(), key=lambda mode: mode[1][0]))


def mz_finite_many(lams, gamma: float, chains, t_tilde: float = 0.0) -> np.ndarray:
    """Finite-chain transverse magnetization for an array of lambda: the Mz
    integrand summed over the modes phi_p = 2 pi p / N, p = 1..N/2, in that
    order, each mode over the whole lambda array at once.

    chains is a sequence of chain lengths N, one row of the result per
    chain. A mode that is the same (cos phi, gamma^2 sin^2 phi) in bits in
    several chains is evaluated once and added into each of their rows in
    turn, so a value depends on lambda and N alone: every row has the bits
    of a call with its chain alone.
    """
    for n in chains:
        check_model(gamma, t_tilde, n)
    lengths = tuple(int(n) for n in chains)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    mz = _mz_integrand(t_tilde)
    total = np.zeros((len(lengths), lams.size))
    d, disp = np.empty((2, lams.size))
    for c, g2s2, rows in _chain_modes(gamma, lengths):
        np.subtract(c, lams, out=d)
        np.square(d, out=disp)
        disp += g2s2
        np.sqrt(disp, out=disp)
        if g2s2 == 0.0:
            # A mode of zero energy (phi = pi at lambda = -1 with tiny gamma,
            # where d = 0 too) adds 0: d / inf is 0 and tanh(inf) is 1. Only
            # a mode with gamma^2 sin^2 phi = 0 can have disp = 0.
            disp[disp == 0.0] = math.inf
        term = mz(d, disp)
        for row in rows:
            total[row] += term
    total *= -(2.0 / np.array(lengths, dtype=float))[:, None]
    return total


# The cel iteration: its cap on steps, the step after which it finishes every
# sample whose iterates have met, how near they must be (relative to m), and
# the floor on its kc. The iteration converges quadratically once kc is within
# a few decades of 1: five steps meet for most samples, and ten reach double
# precision for every 1e-30 <= kc <= 1e30; kc is at most 1 / |gamma|, hence
# the least |gamma| the T = 0 kernel takes. kc = 0 (lambda = +-1) would never
# converge, so kc is clamped at _KC_FLOOR. Next to lambda = +-1, where
# p ~ 1 / gamma**2, Y = kc^2 (K - X) / p keeps an error of about
# (_KC_FLOOR * gamma)**2, hence the largest |gamma| the T = 0 kernel takes:
# against 60-digit quadrature at lambda = 1 +- 1e-6..1e-14, Mz, G(-1) and
# G(+1) err by 4.7e-15 at |gamma| = 1e20, 8.4e-12 at 1e24 and 2.7e-4 at 1e28.
# A looser exit (1e-8) errs by 3.5e-9.
_CEL_STEPS = 10
_CEL_CHECKPOINT = 5
_CEL_TOL = 1e-15
_KC_FLOOR = 1e-30
_T0_GAMMA_MAX = 1e20


def _cel(kc: np.ndarray, p: np.ndarray, derivative: bool):
    """X = cel(kc, p, 1, 0), its derivative dX/dp (None unless derivative is
    true), and K(kc).

    Bulirsch's complete elliptic integral is
        cel(kc, p, a, b) = int_0^{pi/2} (a cos^2 t + b sin^2 t) dt
                           / ((cos^2 t + p sin^2 t) sqrt(cos^2 t + kc^2 sin^2 t)),
    here for p > 0 (Bulirsch, Numer. Math. 13, 305 (1969)). Each step is a
    Gauss transformation of the integral, under which kc and m run through
    the arithmetic-geometric mean of kc and 1 (scaled by 2 per step), and s
    tends to m; once they meet, the integral is elementary. After
    _CEL_CHECKPOINT steps every sample whose kc and s are within _CEL_TOL of
    m is finished; the rest (lambda next to +-1, large |gamma|) take the
    remaining steps up to _CEL_STEPS on their own. The exit reads a sample's
    own iterates only, so each value is independent of the rest of the
    array. Only G(+-1) need dX/dp; when asked for, it is carried through
    every step by the chain rule, from the step's old a, b and s, so X, K
    and the exit have the same bits either way.
    """
    s = np.sqrt(p)
    a, b, m, e = np.ones_like(kc), np.zeros_like(kc), np.ones_like(kc), kc
    da = db = ds = None
    if derivative:
        ds, da, db = 0.5 / s, np.zeros_like(kc), np.zeros_like(kc)
    for step in range(1, _CEL_STEPS + 1):
        g = e / s
        if derivative:
            dg = -g * ds / s
            da, db = da + (db - b * ds / s) / s, 2.0 * (db + da * g + a * dg)
            ds = ds + dg
        a, b = a + b / s, 2.0 * (b + a * g)
        s = s + g
        m, kc = m + kc, 2.0 * np.sqrt(e)
        e = kc * m
        if step == _CEL_CHECKPOINT:
            out = _cel_finish(step, a, b, s, m, da, db, ds)
            slow = np.flatnonzero((np.abs(kc - m) > _CEL_TOL * m)
                                  | (np.abs(s - m) > _CEL_TOL * m))
            if not slow.size:
                return out
            a, b, s, m, kc, e = (v[slow] for v in (a, b, s, m, kc, e))
            if derivative:
                da, db, ds = da[slow], db[slow], ds[slow]
    for o, v in zip(out, _cel_finish(_CEL_STEPS, a, b, s, m, da, db, ds)):
        if o is not None:
            o[slow] = v
    return out


def _cel_finish(steps: int, a, b, s, m, da, db, ds):
    """X, dX/dp (None unless ds is carried) and K from the cel iterates after
    the given number of steps."""
    scale = 0.5 * math.pi / (m * (m + s))
    x = (a * m + b) * scale
    dx = None if ds is None else (da * m + db - (a * m + b) * ds / (m + s)) * scale
    # m is 2**steps times the arithmetic-geometric mean of 1 and kc
    return x, dx, math.pi * 2.0 ** (steps - 1) / m


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
    check_model(gamma)
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


# The unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53


def mz_rises(lam_lo: float, lam_hi: float, spacing: float, gamma: float,
             t_tilde: float = 0.0, n_sites: int | None = None) -> bool:
    """Whether Mz at T = 0, mz_finite_many(lams, gamma, [n_sites]) of a chain
    or mz_infinite_many(lams, gamma) of the infinite lattice (n_sites None),
    is proved to give a larger value at every lambda in [lam_lo, lam_hi] than
    at the lambda one lattice spacing below it, each lambda computed with one
    or two roundings (as a + offset). False for t_tilde > 0: no thermal proof
    is known.

    Each proof gives chi, a lower bound on dMz/dlambda over the interval, and
    E u, a bound on the absolute error of one computed value, u = 2**-53.
    Computed neighbours lie at least h_min = spacing - 8u M apart, with
    M = max|lambda|. The values rise if h_min chi > 2E u; this asks
    h_min chi > 4E u.

    Chain: with K = N / 2 modes, g_p = gamma^2 sin^2 phi_p and L_p the
    dispersion, dMz_N/dlambda = (2/N) sum g_p / L_p^3, and each term is least
    where L_p is greatest, at an end of the interval: so the slope is at
    least chi = (2/N) sum g_p / max(L_p(lam_lo), L_p(lam_hi))^3. One computed
    value lies within E = (2/N)(K(K+1)/2 + 3.4K) + 1 (in units of u) of the
    exact sum: recursive summation of K terms of magnitude at most 1, each
    term with five roundings (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 4.2), then the scaling.

    Lattice: dMz/dlambda = (1/pi) int_0^pi gamma^2 sin^2 phi / L^3 dphi. On
    [pi/3, 2 pi/3], sin^2 phi >= 3/4 and |lambda - cos phi| <= M + 1/2, so
    the slope is at least chi = gamma^2 / (4 (gamma^2 + (M + 1/2)^2)^(3/2)).
    One computed Mz lies within E = 2500 (in units of u) of the exact one:
    - Rounding. Bar 1 - lambda and 1 + lambda (one rounding each of an exact
      input), every operation of mz_and_correlators_many and _cel adds,
      multiplies, divides or takes the root of positive numbers, so no error
      cancels: a sum carries the larger relative error of its terms plus u,
      a product or quotient the sum of its factors' plus u, a root half its
      argument's plus u (Higham, sec. 3.1-3.4). Counted operation by
      operation, X and K lie within 1216u and 19.2u of what exact arithmetic
      gives after ten cel steps, and within 294u and 12.6u after five.
    - K - X. Where |lambda| > 1, Mz = h lambda (X + Y), Y = kc^2 (K - X) / p
      and h = 2 / (pi sqrt(a)). K - X > 0 may cancel, but |h lambda| X,
      |h lambda| Y and |h lambda| kc^2 K / p <= sqrt(1 - 1/lambda^2) are
      each at most 1 (X, Y >= 0, |Mz| <= 1, K <= pi / (2 kc)), so Mz errs by
      at most (2 e_X + e_K + 29)u, for X and K within e_X u and e_K u: 2481u
      after ten steps, 630u after five. Where |lambda| <= 1, Mz = h lambda X
      errs by at most 1036u.
    - Truncation. After n steps the exact X and K are within (1 - rho) X and
      (1 - rho) K / rho of the integrals, rho = kc / m: the remaining
      integral is cel(rho, (s/m)^2, a, b s / m^2) / m, which the finish
      evaluates at rho = 1. A sample finished after five steps passed the
      exit test, so 1 - rho <= 1e-15 (1 + 2u) + 21.4u < 30.5u, and Mz errs
      by at most 630u + 3 * 30.5u < 722u. rho depends on kc alone, and from
      any kc in [_KC_FLOOR, 1 / _KC_FLOOR] ten steps leave 1 - rho < 6e-31.
    - Clamp. At lambda = +-1, kc = 0 is clamped to _KC_FLOOR, which moves X
      by at most _KC_FLOOR pi / (2 sqrt(p)) and Mz by at most _KC_FLOOR;
      for |gamma| <= _T0_GAMMA_MAX no other lambda has kc below it.
    2481u, these and the terms of second order in u sum to less than 2500u.
    """
    if t_tilde:
        return False
    far = max(abs(lam_lo), abs(lam_hi))
    if n_sites is None:
        q = gamma * gamma + (far + 0.5) * (far + 0.5)
        chi = gamma * gamma / (4.0 * q * math.sqrt(q))
        error = 2500.0
    else:
        modes = _chain_modes(gamma, (int(n_sites),))
        c = np.array([m[0] for m in modes])
        g2s2 = np.array([m[1] for m in modes])
        reach = np.maximum(np.abs(lam_lo - c), np.abs(lam_hi - c))
        with np.errstate(over="ignore"):
            chi = 2.0 / n_sites * np.sum(g2s2 / (g2s2 + reach * reach) ** 1.5)
        k = n_sites // 2
        error = 2.0 / n_sites * (k * (k + 1) / 2 + 3.4 * k) + 1.0
    h_min = spacing - 8.0 * _UNIT_ROUNDOFF * far
    return bool(h_min * chi > 4.0 * error * _UNIT_ROUNDOFF)


def diagonal_correlators(lam: float, gamma: float) -> tuple[float, float, float]:
    """(Cxx, Cyy, Czz) nearest-neighbour correlators at T=0, infinite lattice.

    Cxx = G(-1), Cyy = G(+1), Czz = Mz^2 - G(-1) G(+1).
    """
    check_model(gamma, lambdas=(lam,))
    mz, g_minus, g_plus = (float(v[0]) for v in mz_and_correlators_many([lam], gamma))
    return g_minus, g_plus, mz * mz - g_minus * g_plus


def dmz_dT_many(lams, gamma: float, t_tilde: float) -> np.ndarray:
    """Temperature derivative of the infinite-lattice magnetization."""
    if not (_DMZ_T_TILDE_MIN <= t_tilde < math.inf):
        raise DomainError(
            f"t_tilde must be finite and at least {_DMZ_T_TILDE_MIN!r}, below which"
            f" 2 pi t_tilde^2 is not a normal float, got {t_tilde!r}")
    scale = 2.0 * math.pi * t_tilde * t_tilde
    return _thermal_quadrature("dmz_dT", lams, gamma, t_tilde) / scale


def _dmz_dT_integrand(t_tilde: float):
    """(cos phi - lambda) sech^2(L / (2 t_tilde)), in place."""
    def integrand(d, disp):
        disp /= 2.0 * t_tilde
        d *= _sech2(disp)
        return d

    return integrand


# The thermal integrands by kind, each built from t_tilde; _bin_interpolant
# keys its cache on the kind.
_THERMAL_INTEGRANDS = {"mz": _mz_integrand, "dmz_dT": _dmz_dT_integrand}

