"""Interval mathematics: exact percentile-bootstrap MOS confidence
intervals and the analytic worst-case width bound from exact binomial
intervals.

The bootstrap interval is the ideal bootstrap (Efron and Tibshirani 1993):
the distribution of a resampled mean of n votes on 1..5 is the n-fold
convolution of the sample's vote pmf, computed by FFT, so no resampling
and no random stream are involved.  Each bound is the smallest lattice
mean whose CDF reaches its quantile less 1e-9 (see ``bootstrap_ci_mos``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Interval:
    low: float
    high: float
    level: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"level must be in (0, 1), got {self.level}")
        if self.low > self.high:
            raise DataError(f"interval bounds out of order: [{self.low}, {self.high}]")

    @property
    def width(self) -> float:
        return self.high - self.low


def bootstrap_ci_mos(votes, level: float = 0.95) -> Interval:
    """Percentile-bootstrap confidence interval for the mean of a vote
    multiset, computed exactly rather than by resampling.

    Votes are integers in 1..5, so the mean of n votes resampled with
    replacement lies on the lattice min(votes) + i/n, and its distribution
    is the n-fold self-convolution of the sample's vote pmf: Efron and
    Tibshirani's (1993) ideal bootstrap, the limit of infinitely many
    resamples.  The convolution is one real FFT of the pmf, trimmed to the
    [min, max] vote support and zero-padded to the smallest power of two
    above span * n (the sum has span * n + 1 support points, so nothing
    wraps), raised to the n-th power by repeated squaring.

    Each bound is the smallest lattice mean whose CDF reaches its quantile
    q = alpha/2 or 1 - alpha/2 less 1e-9; the slack absorbs FFT rounding, so
    a CDF that equals q exactly counts as reaching it.  The interval need
    not be symmetric around the sample mean, and always lies within
    [min(votes), max(votes)]; constant votes give a zero-width interval.
    """
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level}")
    arr = np.asarray(votes).ravel()
    n = arr.size
    if n < 2:
        raise DataError(f"need at least 2 votes for a CI, got {n}")
    with np.errstate(invalid="ignore"):  # NaN and inf fail the checks below
        ints = arr.astype(np.int64)
    lo, hi = int(ints.min()), int(ints.max())
    if lo < 1 or hi > 5 or (arr.dtype.kind not in "iu" and not np.array_equal(ints, arr)):
        raise DataError("votes must be integers in 1..5")
    if lo == hi:
        return Interval(low=float(lo), high=float(lo), level=level)
    # Loaded at first use, so that commands without a CI never import it.
    from numpy import fft

    last = (hi - lo) * n
    size = 1 << last.bit_length()
    spectrum = fft.rfft(np.bincount(ints - lo) / n, size)
    # Repeated squaring: numpy's complex ``**`` is slower for large n.
    power = None
    exponent = n
    while True:
        if exponent & 1:
            power = spectrum if power is None else power * spectrum
        exponent >>= 1
        if not exponent:
            break
        spectrum = spectrum * spectrum
    cdf = np.cumsum(fft.irfft(power, size)[: last + 1])
    q = (1.0 - level) / 2.0
    steps = cdf.searchsorted([q - 1e-9, 1.0 - q - 1e-9])
    low, high = (lo * n + steps) / n
    return Interval(low=float(low), high=float(high), level=level)


def clopper_pearson(successes: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial proportion interval via the inverse incomplete beta.

    The beta quantiles come from ``scipy.special.betaincinv``, imported at
    first use.  It is not the routine the ``ppf`` of scipy's beta
    distribution calls, but on scipy 1.17.1 the two agree bit for bit at
    every argument used here for n <= 400 (tests check n <= 200).

    Edge cases: lower bound 0 when successes = 0, upper bound 1 when
    successes = n.
    """
    from scipy.special import betaincinv

    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    if not 0 <= successes <= n:
        raise ConfigError(f"successes must lie in [0, {n}], got {successes}")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level}")
    alpha = 1.0 - level
    low = 0.0 if successes == 0 else float(betaincinv(successes, n - successes + 1, alpha / 2.0))
    high = 1.0 if successes == n else float(betaincinv(successes + 1, n - successes, 1.0 - alpha / 2.0))
    return low, high


def max_ci_width(mos: float, n: int, level: float = 0.95) -> float:
    """Worst-case MOS confidence interval width at a given vote count.

    The maximum-variance rating distribution for a target mean puts a
    fraction p = (mos - 1) / 4 of votes on 5 and the rest on 1, so the
    MOS interval is 4x the exact binomial interval for round(p * n)
    successes out of n.  Ties in the rounding go to even, which keeps the
    bound symmetric in mos around 3 for even vote counts.
    """
    if not 1.0 <= mos <= 5.0:
        raise DataError(f"mos must lie in [1, 5], got {mos}")
    p = (mos - 1.0) / 4.0
    successes = int(round(p * n))
    low, high = clopper_pearson(successes, n, level)
    return 4.0 * (high - low)
