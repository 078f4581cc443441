"""Confidence intervals, each a (low, high) pair: exact
percentile-bootstrap MOS intervals, exact binomial intervals, and the
analytic worst-case MOS width bound built on them.

The bootstrap interval is the ideal bootstrap (Efron and Tibshirani 1993):
the distribution of a resampled mean of n votes on 1..5 is the n-fold
convolution of the sample's vote pmf, computed by FFT on the smallest
length of the form 2^a * 3^b * 5^c that holds it, so no resampling and no
random stream are involved.  Each bound is the smallest lattice
mean whose CDF reaches its quantile less 1e-9 (see ``bootstrap_ci_mos``).

``bootstrap_ci_mos`` takes one vote multiset as a 1-D array, or k of them
as the rows of a (k, n) matrix, and returns (low, high): two floats, or two
(k,) arrays.  A single multiset is the one-row case of the same kernel,
which groups rows by their vote span (max - min) and batches the FFTs of
each group, so row i of a matrix gives bit for bit the interval of row i.
"""

from __future__ import annotations

import functools

import numpy as np

from .data import NUM_SCORES, SCORE_MAX, SCORE_MIN
from .errors import ConfigError, DataError, _integer

# Spectrum points per batch of rows in ``bootstrap_ci_mos`` (10 rows at
# n = 200): small batches keep the temporaries in cache whatever k is.
_CHUNK_POINTS = 1 << 13

# Each bound is the first lattice mean whose CDF reaches its quantile less
# this slack, which absorbs FFT rounding.  Every CDF reaches a tail of this
# much or less at once, which would put each lower bound on the lowest vote.
_CDF_SLACK = 1e-9


def _check_tail(level: float, name: str = "level") -> None:
    """Raise :class:`ConfigError` unless ``level`` leaves more than
    ``_CDF_SLACK`` in each tail, as a bootstrap bound needs."""
    if (1.0 - level) / 2.0 <= _CDF_SLACK:
        raise ConfigError(
            f"{name} must leave more than {_CDF_SLACK:g} in each tail for a "
            f"bootstrap CI, got {level}"
        )


@functools.lru_cache(maxsize=1024)
def _fft_length(m: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= m, a length pocketfft transforms
    fast.  A sweep asks for a few lengths many times, hence the cache."""
    best = 1 << (m - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power-of-two multiple of odd that reaches m
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def bootstrap_ci_mos(votes, level: float = 0.95) -> tuple:
    """Percentile-bootstrap confidence interval for the mean of a vote
    multiset, computed exactly rather than by resampling.

    Returns ``(low, high)``, as :func:`clopper_pearson` does: two floats
    for one multiset of n votes, shape (n,), or two (k,) arrays for k
    multisets as the rows of a (k, n) matrix, whose entry i is bit for bit
    the bound of row i alone.  Every vote of every row must be an integer
    in 1..5, and n at least 2.  ``level`` must leave more than 1e-9 in each
    tail, (1 - level) / 2 > 1e-9, else :class:`ConfigError` is raised.

    Votes are integers in 1..5, so the mean of n votes resampled with
    replacement lies on the lattice min(votes) + i/n, and its distribution
    is the n-fold self-convolution of the sample's vote pmf: Efron and
    Tibshirani's (1993) ideal bootstrap, the limit of infinitely many
    resamples.  The convolution is one real FFT of the pmf, trimmed to the
    [min, max] vote support and zero-padded to the smallest length
    2^a * 3^b * 5^c of at least span * n + 1 points (the sum has
    span * n + 1 support points, so nothing wraps), raised to the n-th
    power by repeated squaring.  Rows are grouped by span, 0 to 4, so each
    group shares one FFT size and runs as batched FFTs over a few rows at a
    time; span 0 needs no FFT.

    Each bound is the smallest lattice mean whose CDF reaches its quantile,
    q = alpha/2 or 1 - alpha/2, less 1e-9, so low <= high; the slack absorbs
    FFT rounding (a CDF equal to q counts as reaching it).  The interval
    need not be symmetric around the sample mean, and lies within
    [min(votes), max(votes)]; constant votes give a zero-width interval.
    """
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level}")
    _check_tail(level)
    arr = np.asarray(votes)
    if arr.ndim > 2:
        raise DataError(f"votes must be one multiset or a matrix of them, got shape {arr.shape}")
    rows = arr if arr.ndim == 2 else arr.reshape(1, -1)
    k, n = rows.shape
    if n < 2:
        raise DataError(f"need at least 2 votes for a CI, got {n}")
    with np.errstate(invalid="ignore"):  # NaN and inf fail the checks below
        ints = rows.astype(np.int64, copy=False)
    lo, hi = ints.min(axis=1), ints.max(axis=1)
    if (
        (lo < SCORE_MIN).any()
        or (hi > SCORE_MAX).any()
        or (rows.dtype.kind not in "iu" and not np.array_equal(ints, rows))
    ):
        raise DataError(f"votes must be integers in {SCORE_MIN}..{SCORE_MAX}")
    # Each row's vote counts on its own support [lo, hi], in one bincount:
    # row i's votes less lo[i], plus NUM_SCORES * i, in one subtraction.
    offsets = ints - (lo - NUM_SCORES * np.arange(k))[:, None]
    counts = np.bincount(offsets.ravel(), minlength=NUM_SCORES * k).reshape(k, NUM_SCORES)
    q = (1.0 - level) / 2.0
    targets = (q - _CDF_SLACK, 1.0 - q - _CDF_SLACK)
    steps = np.zeros((2, k), np.int64)
    span = hi - lo
    for s in range(1, NUM_SCORES):
        group = np.flatnonzero(span == s)
        if not group.size:
            continue
        # Loaded at first use, so that commands without a CI never import it.
        from numpy import fft

        last = s * n
        size = _fft_length(last + 1)
        batch = max(1, _CHUNK_POINTS // size)
        for start in range(0, group.size, batch):
            part = group[start : start + batch]
            spectrum = fft.rfft(counts[part, : s + 1] / n, size, axis=-1)
            # Repeated squaring: numpy's complex ``**`` is slower for large n.
            power = None
            exponent = n
            while True:
                if exponent & 1:
                    if power is None:
                        power = spectrum.copy()
                    else:
                        power *= spectrum
                exponent >>= 1
                if not exponent:
                    break
                spectrum *= spectrum
            cdf = np.cumsum(fft.irfft(power, size, axis=-1)[:, : last + 1], axis=-1)
            # Each CDF ends at 1 up to rounding, above both targets, so
            # argmax always finds the first index that reaches one.
            for bound, target in enumerate(targets):
                steps[bound, part] = (cdf >= target).argmax(axis=1)
    low, high = (lo * n + steps) / n
    if arr.ndim < 2:
        return float(low[0]), float(high[0])
    return low, high


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

    successes = _integer("successes", successes)
    n = _integer("n", n)
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
    n = _integer("n", n)
    if not SCORE_MIN <= mos <= SCORE_MAX:
        raise DataError(f"mos must lie in [{SCORE_MIN}, {SCORE_MAX}], got {mos}")
    p = (mos - SCORE_MIN) / (SCORE_MAX - SCORE_MIN)
    successes = int(round(p * n))
    low, high = clopper_pearson(successes, n, level)
    return (SCORE_MAX - SCORE_MIN) * (high - low)
