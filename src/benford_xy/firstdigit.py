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
of a sequence known to rise strictly without the array: one search places
each threshold, reading the sequence through a function at a few values
next to it. The two share the counting from positions (_threshold_counts).
Either way each row equals histogram(rescale_unit(window)). A digit
histogram is such a row of 9 counts wherever it appears; histogram counts
the digits report's values into one.
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
    np.searchsorted placing every threshold; if it never rises, the same
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
            rows[up] = _threshold_counts(
                lo, a[first], a[stop - 1], first, stop, a.take,
                lambda x, w: (p := np.clip(np.searchsorted(a, x), first[w], stop[w]),
                              a.take(p, mode="clip")))
            other = up[~rows[up].any(axis=1)]
    for i in other:
        try:
            rows[i] = histogram(rescale_unit(a[s[i] : e[i]]))
        except DegenerateWindowError:
            pass
    return rows


def _threshold_counts(lo, after, hi, first, e, value_at, crossings) -> np.ndarray:
    """histogram(rescale_unit(window)) of non-flat windows of a non-decreasing
    sequence, as (W x 9) rows, counted from where the sequence crosses the
    digit thresholds; a zero row for a window whose smallest positive
    rescaled value is below 1e-300, or whose values all lie below 1e-290 in
    magnitude.

    Window i ends before index e[i]; lo[i] and hi[i] are its least and
    largest values, and after[i] its first value above lo[i], at index
    first[i]. value_at(indices) reads the sequence at an integer array of
    indices. crossings(x, w) gives, for raw values x in the windows w (rows
    of keep, broadcast against x), the first index from first to e whose
    value is at or above x (e if none), and that value (any value at e).

    A window's rescaled values r = (b - lo) / scale are sorted: its exact
    zeros are a prefix, and the values between two digit thresholds d * 10**k
    are one run. Each threshold t is bracketed in raw values, around
    lo + t * scale, by a band of half-width _MARGIN * t * scale plus
    _ULPS * max(|lo|, |hi|), wider than the rounding of lo + t * scale and
    of r. The runs between bands are counted from the band edges' positions
    alone; only values inside a band get their r, and digits_of in one call,
    so the counts equal histogram's by construction. A band's lower edge
    comes with the value there, which places its upper edge too unless it
    lies in the band; only a band's other values, which are rare, are read.
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
    # band j holds values start[:, j] .. end[:, j] - 1, and the band next to
    # 1.0 runs to the window's end; a band ends where it starts unless the
    # value at its lower edge lies in it
    cross, at = crossings(level - half, keep[:, None])
    start, end = cross.copy(), cross[:, :-1].copy()
    above = level[:, :-1] + half[:, :-1]
    held = np.flatnonzero(at[:, :-1] < above)
    if held.size:
        end.ravel()[held] = crossings(above.ravel()[held], keep[held // (t.size - 1)])[0]
    if (start[:, 1:] < end).any():
        # the running maximum merges bands that overlap, so that the runs
        # between bands partition the values
        np.maximum.accumulate(end, axis=1, out=end)
        np.maximum(start[:, 1:], end, out=start[:, 1:])
    # values end[:, j] .. start[:, j + 1] - 1 lie clear of thresholds j and
    # j + 1, so their digit is that of threshold j; summed over the decades
    counts = np.einsum("ijk->ik", (start[:, 1:] - end).reshape(w, -1, 9))
    size = np.column_stack([end, e]) - start
    band = np.flatnonzero(size)
    n = size.ravel()[band]
    of = np.repeat(np.arange(band.size), n)
    idx = np.arange(of.size) + (start.ravel()[band] - np.cumsum(n) + n)[of]
    band = band[of]
    # a band's first value came with its crossing, unless a merge moved it
    b = at.ravel()[band]
    unread = idx != cross.ravel()[band]
    if unread.any():
        b[unread] = value_at(idx[unread])
    row = band // t.size
    rise = b - lo[row]
    top = band % t.size == t.size - 1
    # the top band holds the exact 1.0 (digit 1), where b - lo rounds to the
    # scale, and values within the band below it, which are > 0.9 (digit 9)
    ones = np.bincount(row[top & (rise == scale[row])], minlength=w)
    counts[:, 0] += ones
    counts[:, 8] += e - start[:, -1] - ones
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

    The windows of one call are read together: first at their ends, the
    index after each start, and the multiples of one coarse step (about
    _COARSE_POINTS a window), which overlapping windows share, in one sorted
    call without repeats; then by one search (_narrow) that places the lower
    edge of each band of _threshold_counts inside a window and reads the
    value there, all that _threshold_counts reads unless a band holds a
    second value (rare). A window of fewer than 2 values gets a zero row;
    one that threshold counting leaves goes through histogram.
    """
    starts = np.asarray(starts, dtype=np.intp)
    stops = np.asarray(stops, dtype=np.intp)
    rows = np.zeros((starts.size, 9), dtype=np.int64)
    up = np.flatnonzero(stops - starts >= 2)
    if not up.size:
        return rows
    s, e = starts[up], stops[up]

    # the multiples of step in [s, e), each window adding those past the
    # windows before it, with no window left without a point
    step = max(1, int((e - s).max()) // _COARSE_POINTS)
    c0 = -(-np.maximum(s, np.maximum.accumulate(np.append(0, e[:-1]))) // step) * step
    n = np.maximum(0, (e - 1 - c0) // step + 1)
    grid = np.repeat(c0 - step * (np.cumsum(n) - n), n) + step * np.arange(n.sum())
    known = np.sort(np.concatenate([grid, s, s + 1, e - 1]))
    known = known[np.append(True, known[1:] != known[:-1])]
    f = value_at(known)
    lo, after, hi = f[np.searchsorted(known, np.stack([s, s + 1, e - 1]))]

    def crossings(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First index of window w at or above each x, s + 1 to e, and its value (inf at e)."""
        low = x <= after[w]
        pos = np.where(low, s[w] + 1, e[w])
        val = np.where(low, after[w], math.inf)
        # the window's own s + 1 and e - 1 are known, so a search stays inside it
        inside = np.flatnonzero(~low & (x <= hi[w]))
        pos.ravel()[inside], val.ravel()[inside] = _narrow(value_at, x.ravel()[inside], known, f)
        return pos, val

    rows[up] = _threshold_counts(lo, after, hi, s + 1, e, value_at, crossings)
    for i in up[~rows[up].any(axis=1)]:
        rows[i] = histogram(rescale_unit(value_at(np.arange(starts[i], stops[i]))))
    return rows


def _narrow(value_at, x, known, f) -> tuple[np.ndarray, np.ndarray]:
    """The first index at or above each x of a sequence that rises strictly,
    read by value_at(indices), and the value there, from its values f at
    the sorted indices known, with f[0] < x <= f[-1].

    The first guess interpolates the known values linearly; a guess that
    misses narrows the bracket of its two known neighbours, which regula
    falsi narrows further, bisecting on every third step. A guess is read
    with the index below it, so that a guess on the crossing ends its search.
    """
    guess = np.minimum(np.ceil(np.interp(x, f, known)), known[-1]).astype(np.intp)
    pos, val = np.empty(x.size, dtype=np.intp), np.empty(x.size)
    todo, rounds = slice(None), 0  # every search, at first
    while guess.size:
        below, at = value_at(np.concatenate([guess - 1, guess])).reshape(2, -1)
        pos[todo], val[todo] = guess, at
        # x lies at or below guess - 1, above guess, or between the two; a
        # guess that misses lies inside the bracket, as its values show
        under = below >= x
        go = np.flatnonzero(under | (at < x))
        if rounds:
            todo, a, b, fa, fb = todo[go], a[go], b[go], fa[go], fb[go]
        else:
            j = np.searchsorted(f, x[go])
            todo, a, b, fa, fb = go, known[j - 1], known[j], f[j - 1], f[j]
        x, guess, below, at, under = x[go], guess[go], below[go], at[go], under[go]
        a, b = np.where(under, a, guess), np.where(under, guess - 1, b)
        fa, fb = np.where(under, fa, at), np.where(under, below, fb)
        pos[todo], val[todo] = b, fb
        go = b - a > 1
        todo, x, a, b, fa, fb = todo[go], x[go], a[go], b[go], fa[go], fb[go]
        rounds += 1
        step = (b - a) / 2 if rounds % 3 == 2 else (x - fa) / (fb - fa) * (b - a)
        guess = np.clip(a + np.ceil(step).astype(np.intp), a + 1, b)
    return pos, val


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
