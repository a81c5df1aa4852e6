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
batch once: if the batch is monotone, it counts every window by bisection
against the digit thresholds d * 10**k, in raw values, and leaves to
digits_of only the values next to a threshold; otherwise each window goes
through histogram. Either way each row equals histogram(rescale_unit(window)).
A digit histogram is such a row of 9 counts wherever it appears; histogram
counts the digits report's values into one.
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
    _sorted_counts call counts its windows that are not flat; if it never
    rises, the same call counts them on the batch read reversed. Windows of
    a batch that does both, and those that _sorted_counts leaves, go through
    histogram.
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
            rows[up] = _sorted_counts(a, s[up], e[up])
            other = up[~rows[up].any(axis=1)]
    for i in other:
        try:
            rows[i] = histogram(rescale_unit(a[s[i] : e[i]]))
        except DegenerateWindowError:
            pass
    return rows


def _sorted_counts(b: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """histogram(rescale_unit(b[s:e])) of non-flat windows of b, which
    is non-decreasing, as (W x 9) rows; a zero row for a window whose
    smallest positive rescaled value is below 1e-300, or whose values all lie
    below 1e-290 in magnitude.

    A window's rescaled values r = (b - lo) / scale are sorted: its exact
    zeros are a prefix, and the values between two digit thresholds d * 10**k
    are one run. Each threshold t is bracketed in raw values, around
    lo + t * scale, by a band of half-width _MARGIN * t * scale plus
    _ULPS * max(|lo|, |hi|), wider than the rounding of lo + t * scale and
    of r. One np.searchsorted finds the band edges of every window. Only
    values inside a band get their r, and digits_of in one call, so the
    counts equal histogram's by construction.
    """
    lo, hi = b[s], b[e - 1]
    scale = hi - lo
    mag = np.maximum(np.abs(lo), np.abs(hi))
    first = np.searchsorted(b, lo, side="right")  # first positive r of each window
    r0 = (b[first] - lo) / scale
    # thresholds this small approach the subnormals and lose precision; an
    # infinite scale gives r0 = 0 and leaves the window to histogram
    keep = np.flatnonzero((r0 >= 1e-300) & (mag >= 1e-290))
    rows = np.zeros((s.size, 9), dtype=np.int64)
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
    pos = np.searchsorted(b, edges)
    # clipped to the positive values of each window; the running maximum
    # merges bands that overlap, so the runs between edges partition them
    np.maximum(pos, first[:, None], out=pos)
    np.minimum(pos, e[:, None], out=pos)
    np.maximum.accumulate(pos, axis=1, out=pos)
    # b[pos[:, 2j + 1] : pos[:, 2j + 2]] lies clear of thresholds j and j + 1,
    # so its digit is that of threshold j
    counts = (pos[:, 2::2] - pos[:, 1::2]).reshape(w, -1, 9).sum(axis=1)
    # the bands: b[pos[:, 2j] : pos[:, 2j + 1]] next to threshold j, and
    # b[pos[:, -1] : e] next to 1.0; their values, gathered band by band
    band_len = (np.column_stack([pos[:, 1::2], e]) - pos[:, 0::2]).ravel()
    band = np.repeat(np.arange(band_len.size), band_len)
    at = np.arange(band.size) + (pos[:, 0::2].ravel() - np.cumsum(band_len) + band_len)[band]
    row = band // t.size
    rise = b[at] - lo[row]
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
