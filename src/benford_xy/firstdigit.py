"""First-significant-digit extraction, unit-interval rescaling, digit
histograms, and reference digit laws (Benford, uniform, Poisson).

Digit extraction is pure arithmetic: scale |x| into [1, 10) by the power of
ten recovered from floor(log10), correct the two float boundary cases, and
take the integer part. Subnormals are first scaled by the exact 1e22, since
10**e underflows for them. No string formatting is involved, so results do
not depend on locale or repr behaviour.

unit_histogram is the window pipeline's digit stage. On a window that is
monotone it counts by bisection against the digit thresholds d * 10**k and
leaves to digits_of only the values next to a threshold, so its counts are
those of histogram(rescale_unit(values)).
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
        elif self.kappa is not None:
            raise ConfigurationError("kappa is only meaningful for the poisson kind")

    @classmethod
    def benford(cls) -> "ReferenceDistribution":
        return cls(DistKind.BENFORD)

    @classmethod
    def uniform(cls) -> "ReferenceDistribution":
        return cls(DistKind.UNIFORM)

    @classmethod
    def poisson(cls, kappa: float) -> "ReferenceDistribution":
        return cls(DistKind.POISSON, kappa)

    def label(self) -> str:
        if self.kind is DistKind.POISSON:
            return f"poisson(kappa={self.kappa:g})"
        return self.kind.value


@dataclass(frozen=True)
class DigitHistogram:
    """Observed first-digit counts; skipped counts inputs with no significant
    digit (exact zeros)."""

    counts: tuple[int, ...]
    total: int
    skipped: int

    def __post_init__(self):
        if len(self.counts) != 9 or any(c < 0 for c in self.counts):
            raise ConfigurationError("counts must be 9 nonnegative integers")
        if sum(self.counts) != self.total:
            raise ConfigurationError("counts must sum to total")

    def frequencies(self) -> np.ndarray:
        if self.total == 0:
            raise DomainError("histogram with total = 0 has no frequencies")
        return np.asarray(self.counts, dtype=float) / self.total


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


def histogram(values) -> DigitHistogram:
    """Tally first significant digits; exact zeros go to skipped."""
    d = digits_of(values)
    counts = np.bincount(d.ravel(), minlength=10)
    return DigitHistogram(
        counts=tuple(int(c) for c in counts[1:10]),
        total=int(counts[1:10].sum()),
        skipped=int(counts[0]),
    )


def unit_histogram(values) -> DigitHistogram:
    """histogram(rescale_unit(values)), counted by bisection when the values
    are monotone.

    The rescaled values of a monotone window are sorted: its exact zeros are
    a prefix, and the values between two digit thresholds d * 10**k are one
    run, found with np.searchsorted. Values within a relative _MARGIN of a
    threshold are counted by digits_of, so the counts equal histogram's by
    construction. Windows that are not monotone, or whose smallest positive
    value is below 1e-300, are counted by histogram. Raises what
    rescale_unit raises.
    """
    r = rescale_unit(values).ravel()
    if (r[1:] < r[:-1]).any():
        if (r[1:] > r[:-1]).any():
            return histogram(r)
        r = r[::-1]
    zeros = int(np.searchsorted(r, 0.0, side="right"))
    smallest = float(r[zeros])  # r[-1] is 1.0
    if smallest < 1e-300:
        # thresholds this small approach the subnormals and lose precision
        return histogram(r)
    # from the decade one below the smallest positive value, so that no value
    # lies below the first threshold even if floor(log10) is one too high;
    # the last threshold is 1.0, the largest value
    k = np.arange(math.floor(math.log10(smallest)) - 1, 0)
    thresholds = np.append((_DIGITS * 10.0 ** k[:, None]).ravel(), 1.0)
    lo, hi = np.searchsorted(r, thresholds * [[1.0 - _MARGIN], [1.0 + _MARGIN]])
    # r[hi[j]:lo[j + 1]] lies clear of thresholds j and j + 1, so its digit
    # is that of threshold j; r[lo[j]:hi[j]] lies next to threshold j
    counts = (lo[1:] - hi[:-1]).reshape(-1, 9).sum(axis=0)
    # the last near run, r[lo[-1]:], holds the exact 1.0 (digit 1) and any
    # values within _MARGIN below it, which are >= 0.999999999999 (digit 9)
    ones = r.size - int(np.searchsorted(r, 1.0))
    counts[0] += ones
    counts[8] += r.size - lo[-1] - ones
    near = [r[lo[j] : hi[j]] for j in np.flatnonzero(hi[:-1] > lo[:-1])]
    if near:
        counts += np.bincount(digits_of(np.concatenate(near)), minlength=10)[1:]
    return DigitHistogram(
        counts=tuple(int(c) for c in counts), total=r.size - zeros, skipped=zeros
    )


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


def expected_counts(dist: ReferenceDistribution, n: int) -> np.ndarray:
    """E(D) = n P(D), kept real-valued."""
    if n < 1:
        raise DomainError("expected_counts requires n >= 1")
    return n * probabilities(dist)
