"""Bootstrap interval and exact binomial bound tests."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cp_bounds_bisect, two_point_dataset
from qvotes import (
    ConfigError,
    DataError,
    bootstrap_ci_mos,
    clopper_pearson,
    draw_run_sample,
    max_ci_width,
)
from qvotes import bootstrap


def monte_carlo_ci_mos(votes, resamples, level, rng):
    """qvotes 0.2.0's Monte Carlo percentile bootstrap: ``resamples``
    multinomial value counts, then linearly interpolated quantiles of the
    resampled means."""
    arr = np.asarray(votes, dtype=float)
    distinct, counts = np.unique(arr, return_counts=True)
    draws = rng.multinomial(arr.size, counts / arr.size, size=resamples)
    means = (draws @ distinct) / arr.size
    alpha = 1.0 - level
    return np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])


def compositions(n, parts):
    """Every tuple of ``parts`` non-negative integers summing to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in compositions(n - k, parts - 1):
            yield (k, *rest)


@functools.lru_cache(maxsize=None)
def enumerated_sum_weights(votes):
    """n^n times the probability of each resample sum, by multinomial
    enumeration: value counts k have weight n! / prod(k!) * prod(c^k)."""
    n = len(votes)
    values = sorted(set(votes))
    counts = [votes.count(v) for v in values]
    weights: dict[int, int] = {}
    for ks in compositions(n, len(values)):
        coefficient = math.factorial(n)
        for k in ks:
            coefficient //= math.factorial(k)
        total = sum(k * v for k, v in zip(ks, values))
        weights[total] = weights.get(total, 0) + coefficient * math.prod(
            c**k for k, c in zip(ks, counts)
        )
    return weights


def enumerated_ci_mos(votes, level):
    """The exact percentile interval in exact arithmetic: each bound is the
    smallest resample mean whose CDF reaches its quantile.

    Every CDF value is a multiple of n^-n, so for n <= 8 and a quantile of
    denominator at most 40 it is either exactly the quantile or at least
    1/(40 * 8^8) = 1.5e-9 away from it: the kernel's 1e-9 slack changes
    nothing there, and its bounds must equal these."""
    n = len(votes)
    weights = enumerated_sum_weights(tuple(votes))
    q = (1 - Fraction(str(level))) / 2
    bounds = []
    for target in (q, 1 - q):
        cumulative = 0
        for total in sorted(weights):
            cumulative += weights[total]
            if Fraction(cumulative, n**n) >= target:
                bounds.append(Fraction(total, n))
                break
    return tuple(bounds)


class TestBootstrapCiMos:
    def test_constant_votes(self):
        assert bootstrap_ci_mos([4, 4, 4, 4]) == (4.0, 4.0)

    def test_needs_two_votes(self):
        with pytest.raises(DataError):
            bootstrap_ci_mos([3])

    @pytest.mark.parametrize("votes", [[1, 0, 3], [5, 6], [2.5, 3], [3, 3.5, 4], [4, np.nan]])
    def test_votes_must_be_integers_from_one_to_five(self, votes):
        with pytest.raises(DataError):
            bootstrap_ci_mos(votes)

    def test_level_must_lie_in_unit_interval(self):
        for level in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigError):
                bootstrap_ci_mos([1, 5], level=level)

    def test_level_must_leave_more_than_the_slack_in_each_tail(self):
        # With (1 - level) / 2 <= 1e-9 the lower target is <= 0, every CDF
        # reaches it at the first lattice point, and the lower bound used
        # to fall to the lowest vote: (1.0, 4.23) at level 0.999999999.
        votes = [1] * 20 + [3] * 90 + [5] * 90
        assert bootstrap_ci_mos(votes, 0.99999999) == (3.15, 4.21)
        for level in (0.999999999, 1.0 - 1e-12):
            for arg in (votes, np.array([votes, votes[::-1]])):
                with pytest.raises(ConfigError, match=(
                    rf"^level must leave more than 1e-09 in each tail for a bootstrap CI, got {level}$"
                )):
                    bootstrap_ci_mos(arg, level)

    def test_two_point_width_matches_normal_theory(self):
        # {1,5} half and half at n=100: sigma = 2, normal-theory 95% width
        # is 2 * 1.96 * 2 / sqrt(100) = 0.784
        votes = [1] * 50 + [5] * 50
        expected = 2 * 1.959964 * 2.0 / np.sqrt(100)
        low, high = bootstrap_ci_mos(votes)
        assert high - low == pytest.approx(expected, rel=0.10)

    def test_width_halves_when_n_quadruples(self):
        widths = {}
        for n in (100, 400):
            votes = [1] * (n // 2) + [5] * (n // 2)
            low, high = bootstrap_ci_mos(votes)
            widths[n] = high - low
        assert widths[400] == pytest.approx(widths[100] / 2, rel=0.15)

    def test_interval_within_vote_range(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            votes = rng.integers(1, 6, size=int(rng.integers(2, 40)))
            low, high = bootstrap_ci_mos(votes)
            assert votes.min() <= low <= high <= votes.max()

    def test_deterministic_for_fixed_stream(self):
        # No random stream is involved: the same votes give the same bounds.
        votes = [1, 2, 3, 4, 5, 5, 4]
        assert bootstrap_ci_mos(votes) == bootstrap_ci_mos(np.array(votes, dtype=float))

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.875, 0.9, 0.95])
    def test_equals_multinomial_enumeration(self, level):
        # Many CDFs land exactly on a quantile: with votes {1, 5} at level
        # 0.5 the lowest mean has CDF 1/4, and with {1, 1, 2, 2} at level
        # 0.875 it has CDF 1/16, which the FFT gives as 0.06249999999999999.
        for n in range(2, 9):
            for votes in map(list, itertools.combinations_with_replacement(range(1, 6), n)):
                low, high = enumerated_ci_mos(votes, level)
                assert bootstrap_ci_mos(votes, level) == (float(low), float(high)), votes

    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_agrees_with_monte_carlo_bootstrap(self, n):
        # 20000 resamples put the Monte Carlo quantiles within one lattice
        # step of the exact ones (plus rounding of the lattice means)
        rng = np.random.default_rng(n)
        step = 1.0 / n + 1e-12
        for probs in ([0.1, 0.2, 0.3, 0.25, 0.15], [0.35, 0.1, 0.1, 0.1, 0.35], [0, 0.3, 0.4, 0.3, 0]):
            votes = rng.choice(np.arange(1, 6), size=n, p=probs)
            exact_low, exact_high = bootstrap_ci_mos(votes)
            low, high = monte_carlo_ci_mos(votes, 20000, 0.95, rng)
            assert abs(exact_low - low) <= step
            assert abs(exact_high - high) <= step


def per_row_ci_mos(votes, level):
    """qvotes 0.3.0's one-multiset kernel: the FFT convolution of one row's
    pmf on a power-of-two length, and each bound by ``searchsorted`` on its
    CDF."""
    ints = np.asarray(votes).astype(np.int64)
    n = ints.size
    lo, hi = int(ints.min()), int(ints.max())
    if lo == hi:
        return float(lo), float(lo)
    last = (hi - lo) * n
    size = 1 << last.bit_length()
    spectrum = np.fft.rfft(np.bincount(ints - lo) / n, size)
    power = None
    exponent = n
    while True:
        if exponent & 1:
            power = spectrum if power is None else power * spectrum
        exponent >>= 1
        if not exponent:
            break
        spectrum = spectrum * spectrum
    cdf = np.cumsum(np.fft.irfft(power, size)[: last + 1])
    q = (1.0 - level) / 2.0
    low, high = (lo * n + cdf.searchsorted([q - 1e-9, 1.0 - q - 1e-9])) / n
    return float(low), float(high)


def vote_matrix(seed, k, n, dtype):
    """k rows of n votes, each row on a random [lo, lo + span] with every
    span 0..4 equally likely."""
    rng = np.random.default_rng(seed)
    span = rng.integers(0, 5, size=(k, 1))
    lo = rng.integers(1, 6 - span)
    return (lo + rng.integers(0, span + 1, size=(k, n))).astype(dtype)


class TestBatchedBootstrapCiMos:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 60),
        n=st.integers(2, 60),
        dtype=st.sampled_from([np.int64, np.int32, np.uint8, np.float64, np.float32]),
        level=st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
    )
    def test_rows_equal_one_dimensional_calls(self, seed, k, n, dtype, level):
        votes = vote_matrix(seed, k, n, dtype)
        lows, highs = bootstrap_ci_mos(votes, level)
        assert lows.shape == highs.shape == (k,)
        for i, row in enumerate(votes):
            single = bootstrap_ci_mos(row, level)
            assert type(single) is tuple and all(type(b) is float for b in single)
            assert (lows[i], highs[i]) == single
            assert single == per_row_ci_mos(row, level)

    @pytest.mark.parametrize("bad", [0, 6, 2.5, np.nan])
    def test_one_bad_row_fails_the_call(self, bad):
        votes = vote_matrix(3, 12, 20, np.float64)
        votes[7, 11] = bad
        with pytest.raises(DataError):
            bootstrap_ci_mos(votes)

    @pytest.mark.parametrize("level", [0.5, 0.875, 0.95])
    def test_stacked_multisets_equal_enumeration(self, level):
        for n in range(2, 9):
            rows = list(itertools.combinations_with_replacement(range(1, 6), n))
            lows, highs = bootstrap_ci_mos(np.array(rows), level)
            for i, votes in enumerate(rows):
                low, high = enumerated_ci_mos(list(votes), level)
                assert (lows[i], highs[i]) == (float(low), float(high)), votes

    def test_row_batch_size_does_not_change_bits(self, monkeypatch):
        votes = vote_matrix(5, 40, 200, np.int64)
        whole = bootstrap_ci_mos(votes)
        monkeypatch.setattr(bootstrap, "_CHUNK_POINTS", 1)
        one_by_one = bootstrap_ci_mos(votes)
        assert np.array_equal(whole[0], one_by_one[0])
        assert np.array_equal(whole[1], one_by_one[1])

    def test_shapes(self):
        one = bootstrap_ci_mos(np.array([[1, 5]]))
        assert type(one) is tuple and [b.shape for b in one] == [(1,), (1,)]
        low, high = bootstrap_ci_mos(np.ones((0, 4), dtype=int))
        assert low.shape == high.shape == (0,)
        with pytest.raises(DataError):
            bootstrap_ci_mos(np.ones((3, 1), dtype=int))
        with pytest.raises(DataError):
            bootstrap_ci_mos(np.ones((2, 2, 2), dtype=int))


def is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestFftLength:
    def test_smallest_5_smooth_length_that_holds_m_points(self):
        # downward from the first 5-smooth number at or above the top
        top = 20_000
        smallest = next(m for m in itertools.count(top) if is_5_smooth(m))
        for m in range(top, 0, -1):
            if is_5_smooth(m):
                smallest = m
            assert bootstrap._fft_length(m) == smallest, m

    def test_bounds_equal_power_of_two_lengths(self):
        # 20,000 rows with n from 2 to 400, against the power-of-two kernel
        rng = np.random.default_rng(2026)
        ns = rng.integers(2, 401, size=20_000)
        for n in np.unique(ns).tolist():
            votes = vote_matrix(n, int((ns == n).sum()), n, np.int64)
            level = float(rng.choice([0.8, 0.9, 0.95, 0.99]))
            lows, highs = bootstrap_ci_mos(votes, level)
            for i, row in enumerate(votes):
                assert (lows[i], highs[i]) == per_row_ci_mos(row, level), (n, i)


class TestClopperPearson:
    def test_matches_cdf_bisection(self):
        for s, n in [(0, 50), (5, 10), (1, 7), (7, 7), (33, 120), (100, 200)]:
            low, high = clopper_pearson(s, n)
            oracle_low, oracle_high = cp_bounds_bisect(s, n)
            assert low == pytest.approx(oracle_low, abs=1e-9)
            assert high == pytest.approx(oracle_high, abs=1e-9)

    def test_zero_successes_closed_form(self):
        low, high = clopper_pearson(0, 50)
        assert low == 0.0
        assert high == pytest.approx(1 - 0.025 ** (1 / 50), abs=1e-12)

    def test_all_successes(self):
        low, high = clopper_pearson(50, 50)
        assert high == 1.0
        assert low == pytest.approx(0.025 ** (1 / 50), abs=1e-12)

    @pytest.mark.parametrize("level", [0.9, 0.95])
    def test_bitwise_equal_to_beta_ppf(self, level):
        from scipy.stats import beta

        alpha = 1.0 - level
        n, s = np.array([(n, s) for n in range(1, 201) for s in range(n + 1)]).T
        # beta.ppf applied elementwise; the edge values are fixed, not computed
        low = np.where(s == 0, 0.0, beta.ppf(alpha / 2.0, s, n - s + 1))
        high = np.where(s == n, 1.0, beta.ppf(1.0 - alpha / 2.0, s + 1, n - s))
        got = np.array([clopper_pearson(int(a), int(b), level) for a, b in zip(s, n)])
        assert np.array_equal(got[:, 0], low)
        assert np.array_equal(got[:, 1], high)

    def test_validation(self):
        with pytest.raises(ConfigError):
            clopper_pearson(5, 4)
        with pytest.raises(ConfigError):
            clopper_pearson(-1, 4)
        with pytest.raises(ConfigError):
            clopper_pearson(1, 0)
        for level in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ConfigError, match=r"^level must be in \(0, 1\), got "):
                clopper_pearson(1, 4, level)
        # Non-integral and bool counts used to be taken as they were.
        for successes, n in [(2.5, 10), (2, 10.0), (True, 4), (1, True)]:
            with pytest.raises(ConfigError, match="must be an integer"):
                clopper_pearson(successes, n)
        assert clopper_pearson(np.int64(3), np.uint16(10)) == clopper_pearson(3, 10)


class TestMaxCiWidth:
    def test_midpoint_mos(self):
        # p = 0.5 at n = 10: exact interval [0.18709, 0.81291], width * 4
        assert max_ci_width(3.0, 10) == pytest.approx(2.503, abs=1e-3)

    @pytest.mark.parametrize("n", [10.5, 10.0, True])
    def test_vote_count_must_be_an_integer(self, n):
        # 10.5 used to give a width between those of 10 and 11 votes, and
        # True the width at n = 1.
        with pytest.raises(ConfigError, match="n must be an integer"):
            max_ci_width(3.0, n)
        assert max_ci_width(3.0, np.int32(10)) == max_ci_width(3.0, 10)

    def test_extreme_mos(self):
        # p = 0: lower bound 0, upper bound 1 - (alpha/2)^(1/n)
        assert max_ci_width(1.0, 50) == pytest.approx(4 * (1 - 0.025 ** (1 / 50)), abs=1e-12)
        assert max_ci_width(1.0, 50) == pytest.approx(0.2845, abs=1e-4)

    def test_symmetry(self):
        for n in (10, 50, 115):
            assert max_ci_width(1.0, n) == pytest.approx(max_ci_width(5.0, n), abs=1e-12)
            assert max_ci_width(2.0, n) == pytest.approx(max_ci_width(4.0, n), abs=1e-12)

    def test_maximized_at_mos_three(self):
        for n in (10, 60, 200):
            at_three = max_ci_width(3.0, n)
            for mos in np.linspace(1.0, 5.0, 41):
                assert max_ci_width(float(mos), n) <= at_three + 1e-12

    def test_monotone_decreasing_in_n(self):
        widths = [max_ci_width(3.0, n) for n in range(5, 300, 5)]
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_mos_out_of_range(self):
        with pytest.raises(DataError):
            max_ci_width(0.5, 10)
        with pytest.raises(DataError):
            max_ci_width(5.5, 10)

    def test_dominates_bootstrap_on_max_variance_raters(self):
        # the analytic bound must sit above the empirical bootstrap width
        ds = two_point_dataset(p_five=0.5, n_users=20, votes_per_user=10)
        for n in (10, 50, 150):
            widths = []
            for run in range(40):
                scores, _ = draw_run_sample(ds, n, run, 3)["c1"]
                low, high = bootstrap_ci_mos(scores)
                widths.append(high - low)
            assert np.mean(widths) <= max_ci_width(3.0, n)
