"""Interval mathematics: percentile-bootstrap MOS confidence intervals
and the analytic worst-case width bound from exact binomial intervals."""

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


def bootstrap_ci_mos(
    votes,
    resamples: int = 1000,
    level: float = 0.95,
    rng: np.random.Generator | None = None,
) -> Interval:
    """Percentile-bootstrap confidence interval for the mean of a vote
    multiset.

    Draws ``resamples`` same-size resamples with replacement and takes the
    empirical (alpha/2, 1-alpha/2) quantiles of their means.  Votes take
    few distinct values, so each resample's value counts are drawn in one
    multinomial step; the resulting means are distributed exactly as under
    one-by-one resampling.  The interval need not be symmetric around the
    sample mean, and always lies within [min(votes), max(votes)].
    """
    if resamples < 100:
        raise ConfigError(f"resamples must be >= 100, got {resamples}")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level}")
    arr = np.asarray(votes, dtype=float)
    if arr.size < 2:
        raise DataError(f"need at least 2 votes for a CI, got {arr.size}")
    if rng is None:
        rng = np.random.default_rng()
    distinct, counts = np.unique(arr, return_counts=True)
    probs = counts / arr.size
    draws = rng.multinomial(arr.size, probs, size=resamples)
    means = (draws @ distinct) / arr.size
    alpha = 1.0 - level
    low, high = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
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
