"""First-significant-digit extraction, unit-interval rescaling, digit
histograms, and reference digit laws (Benford, uniform, Poisson).

Digit extraction is pure arithmetic: scale |x| into [1, 10) by the power of
ten recovered from floor(log10), correct the two float boundary cases, and
take the integer part. Subnormals are first scaled by the exact 1e22, since
10**e underflows for them. No string formatting is involved, so results do
not depend on locale or repr behaviour.

unit_histograms is the window pipeline's digit stage: it counts a batch of
windows of one array at once into a (windows x 9) int64 matrix, one row of
digit counts per window and a zero row per degenerate window. It tests the
batch once: if the batch is monotone, it counts every window from the
positions of the digit thresholds d * 10**k, in raw values, found by
bisection, and leaves to digits_of only the values next to a threshold;
otherwise each window goes through histogram. rising_counts counts windows
of a sequence known to rise strictly without the array: it reads the
sequence through a function, and finds each threshold's position by a
search that reads a few values. The two share the counting from positions
(_threshold_counts). Either way each row equals
histogram(rescale_unit(window)). A digit histogram is such a row of 9
counts wherever it appears; histogram counts the digits report's values
into one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindowError, DomainError, ConfigurationError


class DistKind(enum.Enum):
    BENFORD = "benford"
    UNIFORM = "uniform"
    POISSON = "poisson"


_DIGITS = np.arange(1, 10)
_SMALLEST_NORMAL = np.finfo(float).tiny
# Relative distance from a digit threshold d * 10**k within which a value of
# a sorted window is counted by digits_of itself. digits_of is off by a few
# ulp at most, far inside this margin.
_MARGIN = 1e-12
# Half-width added to those bands, relative to the largest magnitude in the
# window: more than the rounding of lo + t * scale and of (b - lo) / scale.
_ULPS = 8 * np.finfo(float).eps
# The least probability a reference law may give a digit. The mean deviation
# divides by E_D = n P(D), so each of its terms is at most 1e300 + 1 and their
# sum is finite; the Poisson law keeps to it for kappa from about 1.6e-37 to 1.6e38.
_LEAST_PROBABILITY = 1e-300
# rising_counts first reads each window at the multiples of one step, about
# this many of them a window: fewer leave wider brackets to search, more cost
# reads of their own; 64 was about the fastest of 16 to 256 on scale's defaults.
_COARSE_POINTS = 64


@dataclass(frozen=True)
class ReferenceDistribution:
    """A reference law assigning a probability to each first digit 1..9."""

    kind: DistKind
    kappa: float | None = None

    def __post_init__(self):
        if self.kind is DistKind.POISSON:
            if self.kappa is None or not (0 < self.kappa < math.inf):
                raise ConfigurationError(
                    f"poisson reference requires finite kappa > 0, got {self.kappa!r}"
                )
            if probabilities(self).min() < _LEAST_PROBABILITY:
                raise ConfigurationError(
                    f"poisson reference with kappa={self.kappa!r} gives a digit a"
                    f" probability below {_LEAST_PROBABILITY:g}"
                )
        elif self.kappa is not None:
            raise ConfigurationError("kappa is only meaningful for the poisson kind")

    @classmethod
    def benford(cls) -> "ReferenceDistribution":
        return cls(DistKind.BENFORD)

    def label(self) -> str:
        if self.kind is DistKind.POISSON:
            return f"poisson(kappa={self.kappa:g})"
        return self.kind.value


def digits_of(values) -> np.ndarray:
    """Vectorized first significant digits; 0 marks values with none.

    Raises on non-finite entries.
    """
    a = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(a)):
        raise DomainError("first significant digit undefined for non-finite input")
    mag = np.abs(a).ravel()
    out = np.zeros(mag.shape, dtype=np.int64)
    nz = mag > 0.0
    m = mag[nz]
    if m.size and m.min() < _SMALLEST_NORMAL:
        # 10**e underflows for subnormals; 1e22 is an exact power of ten, so
        # scaling them by it adds only one rounding
        m = np.where(m < _SMALLEST_NORMAL, m * 1e22, m)
    e = np.floor(np.log10(m))
    m = m / np.power(10.0, e)
    m = np.where(m >= 10.0, m / 10.0, m)
    m = np.where(m < 1.0, m * 10.0, m)
    out[nz] = m.astype(np.int64)
    return out.reshape(a.shape)


def rescale_unit(values) -> np.ndarray:
    """Affine map of the data onto [0, 1]; order preserving.

    Constant input has no such map and raises DegenerateWindowError.
    """
    a = np.asarray(values, dtype=float)
    if a.size < 2:
        raise DegenerateWindowError("rescale_unit needs at least 2 values")
    if not np.all(np.isfinite(a)):
        raise DomainError("rescale_unit requires finite values")
    lo = a.min()
    hi = a.max()
    if hi == lo:
        raise DegenerateWindowError("all values equal; unit rescaling undefined")
    return (a - lo) / (hi - lo)


def histogram(values) -> np.ndarray:
    """int64 counts of the first significant digits 1..9; exact zeros,
    which have none, are not counted."""
    return np.bincount(digits_of(values).ravel(), minlength=10)[1:]


def unit_histograms(values, starts, stops) -> np.ndarray:
    """(W x 9) int64 digit counts: row i is histogram(rescale_unit(w))
    of window w = values[starts[i]:stops[i]], or zeros where rescale_unit
    finds w degenerate (flat, or fewer than 2 values); raises DomainError
    where it finds a non-finite window. A window that is not degenerate
    rescales its maximum to exactly 1.0, a digit 1, so its row is not zero.

    The windows are counted together. If the batch never falls, one
    _threshold_counts call counts its windows that are not flat, with one
    np.searchsorted placing every band edge; if it never rises, the same
    call counts them on the batch read reversed. Windows of a batch that
    does both, and those that _threshold_counts leaves, go through histogram.
    """
    a = np.asarray(values, dtype=float).ravel()
    s = np.asarray(starts, dtype=np.intp)
    e = np.asarray(stops, dtype=np.intp)
    rows = np.zeros((s.size, 9), dtype=np.int64)
    # windows left to histogram(rescale_unit(...)), which raises DomainError
    # on the non-finite ones and DegenerateWindowError (a zero row) on short ones
    other = range(s.size)
    if np.isfinite(a).all():
        falls = (a[1:] < a[:-1]).any()
        if falls and not (a[1:] > a[:-1]).any():
            # read reversed, the batch never falls; each window holds the same values
            a, s, e, falls = a[::-1].copy(), a.size - e, a.size - s, False
        if not falls:
            long = np.flatnonzero(e - s >= 2)
            up = long[a[e[long] - 1] > a[s[long]]]  # flat windows keep a zero row
            lo, stop = a[s[up]], e[up]
            first = np.searchsorted(a, lo, side="right")  # first positive r of each window
            rows[up] = _threshold_counts(a.__getitem__, lo, a[first], a[stop - 1], first, stop,
                                         lambda edges, keep: np.searchsorted(a, edges))
            other = up[~rows[up].any(axis=1)]
    for i in other:
        try:
            rows[i] = histogram(rescale_unit(a[s[i] : e[i]]))
        except DegenerateWindowError:
            pass
    return rows


def _threshold_counts(value_at, lo, after, hi, first, e, positions) -> np.ndarray:
    """histogram(rescale_unit(window)) of non-flat windows of a non-decreasing
    sequence, as (W x 9) rows, counted from where the sequence crosses the
    digit thresholds; a zero row for a window whose smallest positive
    rescaled value is below 1e-300, or whose values all lie below 1e-290 in
    magnitude.

    Window i ends before index e[i]; lo[i] and hi[i] are its least and
    largest values, and after[i] its first value above lo[i], at index
    first[i]. value_at(indices) reads the sequence at an integer array of
    indices. positions(edges, keep) gives, for each band edge of the windows
    keep (one row each), the index of the first value at or above it, as
    np.searchsorted over the whole sequence would; an edge at or below
    after, or above hi, may get any index at or below first, or at or above
    e.

    A window's rescaled values r = (b - lo) / scale are sorted: its exact
    zeros are a prefix, and the values between two digit thresholds d * 10**k
    are one run. Each threshold t is bracketed in raw values, around
    lo + t * scale, by a band of half-width _MARGIN * t * scale plus
    _ULPS * max(|lo|, |hi|), wider than the rounding of lo + t * scale and
    of r. The runs between bands are counted from the band edges' positions
    alone; only values inside a band are read, and get their r, and digits_of
    in one call, so the counts equal histogram's by construction.
    """
    scale = hi - lo
    mag = np.maximum(np.abs(lo), np.abs(hi))
    r0 = (after - lo) / scale
    # thresholds this small approach the subnormals and lose precision; an
    # infinite scale gives r0 = 0 and leaves the window to histogram
    keep = np.flatnonzero((r0 >= 1e-300) & (mag >= 1e-290))
    rows = np.zeros((lo.size, 9), dtype=np.int64)
    if not keep.size:
        return rows
    lo, scale, mag, first, e = lo[keep], scale[keep], mag[keep], first[keep], e[keep]
    w = keep.size
    # from the decade one below the smallest positive value, so that no value
    # lies below the first threshold even if floor(log10) is one too high;
    # the last threshold is 1.0, the largest value
    k = np.arange(math.floor(math.log10(r0[keep].min())) - 1, 0)
    t = np.append((_DIGITS * 10.0 ** k[:, None]).ravel(), 1.0)
    off = t * scale[:, None]
    level = lo[:, None] + off  # the thresholds in raw values
    half = off * _MARGIN + (_ULPS * mag)[:, None]
    # band edges in order: below t[0], above t[0], below t[1], ..., below t[-1]
    edges = np.empty((w, 2 * t.size - 1))
    np.subtract(level, half, out=edges[:, 0::2])
    np.add(level[:, :-1], half[:, :-1], out=edges[:, 1::2])
    pos = positions(edges, keep)
    # clipped to the positive values of each window; the running maximum
    # merges bands that overlap, so the runs between edges partition them
    np.maximum(pos, first[:, None], out=pos)
    np.minimum(pos, e[:, None], out=pos)
    np.maximum.accumulate(pos, axis=1, out=pos)
    # values pos[:, 2j + 1] .. pos[:, 2j + 2] - 1 lie clear of thresholds j
    # and j + 1, so their digit is that of threshold j
    counts = (pos[:, 2::2] - pos[:, 1::2]).reshape(w, -1, 9).sum(axis=1)
    # the bands: values pos[:, 2j] .. pos[:, 2j + 1] - 1 next to threshold j,
    # and pos[:, -1] .. e - 1 next to 1.0; their values, read band by band
    band_len = (np.column_stack([pos[:, 1::2], e]) - pos[:, 0::2]).ravel()
    band = np.repeat(np.arange(band_len.size), band_len)
    at = np.arange(band.size) + (pos[:, 0::2].ravel() - np.cumsum(band_len) + band_len)[band]
    row = band // t.size
    rise = value_at(at) - lo[row]
    top = band % t.size == t.size - 1
    # the top band holds the exact 1.0 (digit 1), where b - lo rounds to the
    # scale, and values within the band below it, which are > 0.9 (digit 9)
    ones = np.bincount(row[top & (rise == scale[row])], minlength=w)
    counts[:, 0] += ones
    counts[:, 8] += e - pos[:, -1] - ones
    near = ~top
    if near.any():
        d = digits_of(rise[near] / scale[row[near]])
        counts += np.bincount(row[near] * 9 + d - 1, minlength=9 * w).reshape(w, 9)
    rows[keep] = counts
    return rows


def rising_counts(value_at, starts, stops) -> np.ndarray:
    """(W x 9) int64 digit counts of windows [starts[i], stops[i]) of a
    sequence that rises strictly, read by value_at(indices) only where a
    count needs it: row i equals unit_histograms' row of the same window.

    The windows of one call are read together:
    - first at their ends, the index after each start, and the multiples of
      one coarse step (about _COARSE_POINTS of them a window), which
      overlapping windows share;
    - then each band edge of _threshold_counts that lies inside a window is
      placed between two neighbouring indices, from the coarse points around
      it (_narrow). An edge above a threshold needs no search of its own
      unless a value lies in the band, which is rare;
    - last, the values inside the bands.
    The first call of value_at reads each of its indices once, in ascending
    order; later calls may read an index twice, which is rare. A window of
    fewer than 2 values gets a zero row; one that threshold counting leaves
    goes through histogram.
    """
    starts = np.asarray(starts, dtype=np.intp)
    stops = np.asarray(stops, dtype=np.intp)
    rows = np.zeros((starts.size, 9), dtype=np.int64)
    up = np.flatnonzero(stops - starts >= 2)
    if not up.size:
        return rows
    s, e = starts[up], stops[up]

    # the multiples of step in [s, e), with no window left without a point
    step = max(1, int((e - s).max()) // _COARSE_POINTS)
    c0 = -(-s // step) * step
    n = (e - 1 - c0) // step + 1
    grid = np.repeat(c0 - step * (np.cumsum(n) - n), n) + step * np.arange(n.sum())
    known = np.sort(np.concatenate([grid, s, s + 1, e - 1]))
    known = known[np.append(True, known[1:] != known[:-1])]
    f = value_at(known)
    lo, after, hi = f[np.searchsorted(known, np.stack([s, s + 1, e - 1]))]

    def crossings(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first index of window w at or above each x, from s + 1 up
        to e, and the value there (inf at e)."""
        low = x <= after[w]
        pos = np.where(low, s[w] + 1, e[w])
        val = np.where(low, after[w], math.inf)
        inside = ~low & (x <= hi[w])
        # f[j - 1] < x <= f[j], at indices in the window, whose own s + 1 and
        # e - 1 are known
        j = np.searchsorted(f, x[inside])
        pos[inside], val[inside] = _narrow(value_at, x[inside], known[j - 1], known[j],
                                           f[j - 1], f[j])
        return pos, val

    def positions(edges: np.ndarray, keep: np.ndarray) -> np.ndarray:
        w = np.broadcast_to(keep[:, None], edges[:, 0::2].shape)
        pos = np.empty(edges.shape, dtype=np.intp)
        pos[:, 0::2], val = crossings(edges[:, 0::2], w)
        # an edge above a threshold has the index of the edge below it,
        # unless a value lies in the band between them
        pos[:, 1::2] = pos[:, 0:-1:2]
        band = val[:, :-1] < edges[:, 1::2]
        pos[:, 1::2][band] = crossings(edges[:, 1::2][band], w[:, :-1][band])[0]
        return pos

    rows[up] = _threshold_counts(value_at, lo, after, hi, s + 1, e, positions)
    for i in up[~rows[up].any(axis=1)]:
        rows[i] = histogram(rescale_unit(value_at(np.arange(starts[i], stops[i]))))
    return rows


def _narrow(value_at, x, a, b, fa, fb) -> tuple[np.ndarray, np.ndarray]:
    """The first index at or above each x of a sequence that rises strictly,
    read by value_at(indices), and the value there, from brackets of
    indices a < b with values fa < x <= fb.

    Each bracket is narrowed by regula falsi, bisecting on every third step.
    A guess is read with the index below it, so that a guess on the crossing
    ends the search in one step.
    """
    todo = np.flatnonzero(b - a > 1)
    rounds = 0
    while todo.size:
        ta, tb, tfa, tfb, tx = a[todo], b[todo], fa[todo], fb[todo], x[todo]
        if rounds % 3 == 2:
            guess = (ta + tb + 1) // 2
        else:
            guess = ta + np.ceil((tx - tfa) / (tfb - tfa) * (tb - ta)).astype(np.intp)
        guess = np.clip(guess, ta + 1, tb)
        below, at = value_at(np.concatenate([guess - 1, guess])).reshape(2, -1)
        # x lies at or below guess - 1, above guess, or between the two
        under, over = below >= tx, at < tx
        a[todo] = np.where(over, guess, np.where(under, ta, guess - 1))
        fa[todo] = np.where(over, at, np.where(under, tfa, below))
        b[todo] = np.where(under, guess - 1, np.where(over, tb, guess))
        fb[todo] = np.where(under, below, np.where(over, tfb, at))
        todo = todo[b[todo] - a[todo] > 1]
        rounds += 1
    return b, fb


def probabilities(dist: ReferenceDistribution) -> np.ndarray:
    """P(D) for D = 1..9 under the reference law; sums to 1."""
    if dist.kind is DistKind.BENFORD:
        return np.log10(1.0 + 1.0 / _DIGITS)
    if dist.kind is DistKind.UNIFORM:
        return np.full(9, 1.0 / 9.0)
    # Poisson weights kappa^D / D!; the e^{-kappa} factor cancels on
    # normalizing over D = 1..9. Computed in log space to keep large kappa
    # exact-ish.
    logw = _DIGITS * math.log(dist.kappa) - np.array(
        [math.lgamma(d + 1.0) for d in _DIGITS]
    )
    w = np.exp(logw - logw.max())
    return w / w.sum()


def expected_counts(dist: ReferenceDistribution, n) -> np.ndarray:
    """E(D) = n P(D), kept real-valued; n is a count, or an array of counts
    with a last axis of 1 for one row of E(D) each."""
    if np.any(np.asarray(n) < 1):
        raise DomainError("expected_counts requires n >= 1")
    return n * probabilities(dist)
