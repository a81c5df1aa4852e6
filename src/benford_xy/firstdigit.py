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
batch once: a monotone batch goes to rising_counts, read reversed if it
never rises; otherwise each window goes through histogram. rising_counts
counts the windows of any sequence that never falls, read through a
function (np.take of the batch, or a kernel proved to rise), from the
positions of the digit thresholds d * 10**k in raw values: one search
(_narrow) places each threshold, reading the sequence at a few values next
to it, and digits_of sees only the values next to a threshold. Either way
each row equals histogram(rescale_unit(window)). A digit histogram is such
a row of 9 counts wherever it appears; histogram counts the digits report's
values into one.
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

    The windows are counted together. A finite batch that never falls is
    counted by one rising_counts call reading it through np.take; one that
    never rises, by the same call on the batch reversed. Windows of a batch
    that does both, or that holds a non-finite value, go through histogram.
    """
    a = np.asarray(values, dtype=float).ravel()
    s = np.asarray(starts, dtype=np.intp)
    e = np.asarray(stops, dtype=np.intp)
    if np.isfinite(a).all():
        if not (a[1:] < a[:-1]).any():
            return rising_counts(a.take, s, e)
        if not (a[1:] > a[:-1]).any():
            # read reversed, the batch never falls; each window holds the same values
            return rising_counts(a[::-1].copy().take, a.size - e, a.size - s)
    rows = np.zeros((s.size, 9), dtype=np.int64)
    for i in range(s.size):
        try:
            rows[i] = histogram(rescale_unit(a[s[i] : e[i]]))
        except DegenerateWindowError:
            pass
    return rows


def rising_counts(value_at, starts, stops) -> np.ndarray:
    """(W x 9) int64 digit counts of windows [starts[i], stops[i]) of a
    sequence that never falls, read by value_at(indices) only where a count
    needs it: row i is histogram(rescale_unit(w)) of window w, or zeros where
    w is flat or holds fewer than 2 values.

    The windows of one call are read together: first at their ends, the
    index after each start, and the multiples of one coarse step (about
    _COARSE_POINTS a window), which overlapping windows share, in one sorted
    call without repeats. A window's rescaled values r = (b - lo) / scale are
    sorted: its exact zeros are a prefix, and the values between two digit
    thresholds d * 10**k are one run. Each threshold t is bracketed in raw
    values, around lo + t * scale, by a band of half-width
    _MARGIN * t * scale plus _ULPS * max(|lo|, |hi|), wider than the rounding
    of lo + t * scale and of r. One search (_narrow) places each band's
    lower edge, and the first value above lo of a window that starts on a
    run of equal values, and reads the value there; that value places the
    band's upper edge too unless it lies in the band. The runs between bands
    are counted from the edges alone; only values inside a band get their r,
    and digits_of in one call, so the counts equal histogram's by
    construction, and only a band's further values (rare) are read again. A
    window whose smallest positive r is below 1e-300, or whose values all
    lie below 1e-290 in magnitude, goes through histogram.
    """
    starts = np.asarray(starts, dtype=np.intp)
    stops = np.asarray(stops, dtype=np.intp)
    rows = np.zeros((starts.size, 9), dtype=np.int64)
    win = np.flatnonzero(stops - starts >= 2)
    if not win.size:
        return rows
    s, e = starts[win], stops[win]

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
    up = hi > lo  # flat windows keep a zero row
    win, e, first, lo, after, hi = (v[up] for v in (win, e, s + 1, lo, after, hi))
    # the first value above lo, which the search finds on a run of equal values
    run = np.flatnonzero(after == lo)
    if run.size:
        first[run], after[run] = _narrow(value_at, np.nextafter(lo[run], math.inf), known, f)
    scale = hi - lo
    mag = np.maximum(np.abs(lo), np.abs(hi))
    r0 = (after - lo) / scale
    # thresholds this small approach the subnormals and lose precision; an
    # infinite scale gives r0 = 0
    keep = (r0 >= 1e-300) & (mag >= 1e-290)
    for i in win[~keep]:
        rows[i] = histogram(rescale_unit(value_at(np.arange(starts[i], stops[i]))))
    if not keep.any():
        return rows
    win, e, first, lo, after, hi, scale, mag = (
        v[keep] for v in (win, e, first, lo, after, hi, scale, mag))
    w = win.size

    def crossing(x: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First index of window i at or above each x, first to e, and its value (inf at e)."""
        low = x <= after[i]
        pos = np.where(low, first[i], e[i])
        val = np.where(low, after[i], math.inf)
        # the values up to first are at most after and the one at e - 1 is hi,
        # so a search ends inside the window
        inside = np.flatnonzero(~low & (x <= hi[i]))
        pos.ravel()[inside], val.ravel()[inside] = _narrow(value_at, x.ravel()[inside], known, f)
        return pos, val

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
    cross, at = crossing(level - half, np.arange(w)[:, None])
    start, end = cross.copy(), cross[:, :-1].copy()
    above = level[:, :-1] + half[:, :-1]
    held = np.flatnonzero(at[:, :-1] < above)
    if held.size:
        end.ravel()[held] = crossing(above.ravel()[held], held // (t.size - 1))[0]
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
    rows[win] = counts
    return rows


def _narrow(value_at, x, known, f) -> tuple[np.ndarray, np.ndarray]:
    """The first index at or above each x of a sequence that never falls,
    read by value_at(indices), and the value there, from its values f at
    the sorted indices known, with f[0] < x <= f[-1].

    The first guess interpolates the known values linearly; a guess that
    misses replaces an end of the bracket [a, b] of its two known
    neighbours, which regula falsi narrows further, bisecting on every third
    step. The bracket keeps f(a) < x <= f(b), so no step divides by zero,
    and np.interp, which lands where f[i] <= x < f[i + 1], never lands
    between two equal values. A guess is read
    with the index below it, so that a guess on the crossing ends its search.
    """
    guess = np.minimum(np.ceil(np.interp(x, f, known)), known[-1]).astype(np.intp)
    pos, val = np.empty(x.size, dtype=np.intp), np.empty(x.size)
    todo, rounds = slice(None), 0  # every search, at first
    while guess.size:
        below, at = value_at(np.concatenate([guess - 1, guess])).reshape(2, -1)
        pos[todo], val[todo] = guess, at
        # x lies at or below guess - 1, above guess, or between the two; a
        # guess that misses moves an end of the bracket, as its values show
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
