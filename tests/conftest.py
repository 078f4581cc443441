"""Shared dataset builders, independent oracles, and benchmark-data discovery."""

from __future__ import annotations

import collections
import csv
import io
import math
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from qvotes import RatingDataset, load_ratings, load_reference
from qvotes.data import RATING_COLUMNS, STIMULUS_COLUMN

DATA_ENV = "QVOTES_DATA"
ACCEPT_RUNS_ENV = "QVOTES_ACCEPT_RUNS"
DATASET_TAGS = ("401", "501", "701")


# -- dataset builders ---------------------------------------------------------


class Vote(NamedTuple):
    condition_id: str
    user_id: str
    score: int
    stimulus_id: str | None = None


def make_dataset(rows, label="toy") -> RatingDataset:
    """Rows are (condition, user, score[, stimulus]) tuples, written as CSV
    text and loaded by ``load_ratings``, so the file rules apply: ids are
    stripped, scores checked, and a stimulus is on every vote or on none."""
    rows = [tuple(row) for row in rows]
    with_stimuli = any(len(row) > 3 and row[3] is not None for row in rows)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(RATING_COLUMNS + ((STIMULUS_COLUMN,) if with_stimuli else ()))
    for row in rows:
        stimulus = (row[3] if len(row) > 3 else None,) if with_stimuli else ()
        writer.writerow(row[:3] + stimulus)
    return load_ratings(io.StringIO(text.getvalue()), label=label)


def votes(ds: RatingDataset) -> list[Vote]:
    """The dataset's votes, in the order of the rows they were loaded from."""
    stim = [None] * ds.n_votes if ds._stim_idx is None else ds._stim_idx.tolist()
    return [
        Vote(ds.conditions[c], ds.users[u], s, None if t is None else ds.stimuli[t])
        for c, u, s, t in zip(ds._cond_idx.tolist(), ds._user_idx.tolist(), ds._scores.tolist(), stim)
    ]


def raters(ds: RatingDataset, condition_id: str) -> tuple[str, ...]:
    """The users who voted on ``condition_id``, in sorted-id order."""
    return tuple(sorted({v.user_id for v in votes(ds) if v.condition_id == condition_id}))


def mos_dict(mos) -> dict[str, float]:
    """A MOS vector as ``{condition id: MOS}``, in its condition order."""
    return dict(zip(mos.conditions, mos.values.tolist()))


def synthetic_dataset(
    seed=0,
    n_conditions=10,
    n_users=20,
    repeats=(1, 3),
    noise=0.8,
    coverage=0.85,
    label="synthetic",
) -> RatingDataset:
    """Noisy raters over a quality ladder: per-condition true quality plus
    per-user bias plus vote noise, rounded onto the 1-5 scale."""
    rng = np.random.default_rng(seed)
    true = np.linspace(1.4, 4.6, n_conditions)
    bias = rng.normal(0.0, 0.3, n_users)
    rows = []
    for u in range(n_users):
        for c in range(n_conditions):
            if rng.random() > coverage:
                continue
            for _ in range(rng.integers(repeats[0], repeats[1] + 1)):
                score = int(np.clip(round(true[c] + bias[u] + rng.normal(0.0, noise)), 1, 5))
                rows.append((f"c{c:02d}", f"u{u:02d}", score))
    return make_dataset(rows, label=label)


def two_point_dataset(p_five=0.5, n_users=20, votes_per_user=10, label="twopoint") -> RatingDataset:
    """Maximum-variance raters: a fraction p of users always votes 5, the
    rest always vote 1, each with equal vote counts, one condition."""
    n_five = round(p_five * n_users)
    rows = []
    for u in range(n_users):
        score = 5 if u < n_five else 1
        rows.extend(("c1", f"u{u:02d}", score) for _ in range(votes_per_user))
    return make_dataset(rows, label=label)


# -- independent oracles ------------------------------------------------------


def brute_force_ranks(values):
    """Rank by counting: smaller elements + average position in the tie group."""
    ranks = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        ties = sum(1 for w in values if w == v)
        ranks.append(smaller + (ties + 1) / 2.0)
    return ranks


def brute_force_srcc(a, b) -> float:
    ra = brute_force_ranks(list(a))
    rb = brute_force_ranks(list(b))
    n = len(ra)
    ma = math.fsum(ra) / n
    mb = math.fsum(rb) / n
    cov = math.fsum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = math.fsum((x - ma) ** 2 for x in ra)
    vb = math.fsum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def binomial_cdf(s: int, n: int, p: float, comb_row=None) -> float:
    if comb_row is None:
        comb_row = [math.comb(n, k) for k in range(n + 1)]
    return float(
        math.fsum(comb_row[k] * p**k * (1.0 - p) ** (n - k) for k in range(s + 1))
    )


def cp_bounds_bisect(s: int, n: int, level: float = 0.95, iterations: int = 80):
    """Exact binomial interval bounds located by bisecting the CDF directly."""
    alpha = 1.0 - level
    comb_row = [math.comb(n, k) for k in range(n + 1)]

    def solve(target, cdf_at):
        lo, hi = 0.0, 1.0
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if cdf_at(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # upper bound: P(X <= s) = alpha/2 ; CDF decreases in p
    high = 1.0 if s == n else solve(alpha / 2.0, lambda p: binomial_cdf(s, n, p, comb_row))
    # lower bound: P(X <= s-1) = 1 - alpha/2
    low = 0.0 if s == 0 else solve(1.0 - alpha / 2.0, lambda p: binomial_cdf(s - 1, n, p, comb_row))
    return low, high


def cp_widths_bisect_all(n: int, level: float = 0.95, iterations: int = 60) -> np.ndarray:
    """4 * (p_H - p_L) for every success count 0..n, bisection vectorized
    over success counts."""
    alpha = 1.0 - level
    ks = np.arange(n + 1)
    comb_row = np.array([math.comb(n, k) for k in ks], dtype=float)

    def cdf_at(p, s_index):
        # batched binomial CDF: one p per success count
        terms = comb_row * np.power(p[:, None], ks) * np.power(1.0 - p[:, None], n - ks)
        return np.cumsum(terms, axis=1)[np.arange(p.size), s_index]

    def solve(target, s_index):
        lo = np.zeros(s_index.size)
        hi = np.ones(s_index.size)
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            above = cdf_at(mid, s_index) > target
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return 0.5 * (lo + hi)

    highs = np.ones(n + 1)
    if n >= 1:
        highs[:n] = solve(alpha / 2.0, np.arange(n))
    lows = np.zeros(n + 1)
    if n >= 1:
        lows[1:] = solve(1.0 - alpha / 2.0, np.arange(n))
    return 4.0 * (highs - lows)


def two_stage_pmf(ds: RatingDataset, condition_id: str) -> np.ndarray:
    """Full enumeration of the user-then-score sampling distribution:
    P(user | condition) times P(score | user, condition), both counted
    from the dataset's votes."""
    mine = [(v.user_id, v.score) for v in votes(ds) if v.condition_id == condition_id]
    per_user = collections.Counter(user for user, _ in mine)
    pmf = np.zeros(5)
    for (user, score), count in collections.Counter(mine).items():
        pmf[score - 1] += per_user[user] / len(mine) * (count / per_user[user])
    return pmf


# -- published benchmark data -------------------------------------------------


def published_dir() -> Path:
    root = os.environ.get(DATA_ENV)
    if root:
        return Path(root)
    return Path(__file__).resolve().parent.parent / "data"


def published_paths(tag: str):
    base = published_dir()
    ratings = base / f"cs{tag}.csv"
    lab = base / f"lab{tag}.csv"
    if ratings.is_file() and lab.is_file():
        return ratings, lab
    return None


def load_published(tag: str):
    """Load one benchmark dataset pair or skip the calling test."""
    paths = published_paths(tag)
    if paths is None:
        pytest.skip(
            f"benchmark data not found (expected cs{tag}.csv and lab{tag}.csv "
            f"under {published_dir()}; set {DATA_ENV} to override)"
        )
    ratings, lab = paths
    return load_ratings(ratings, label=f"cs{tag}"), load_reference(lab)


def acceptance_runs(default: int = 50) -> int:
    return int(os.environ.get(ACCEPT_RUNS_ENV, default))
