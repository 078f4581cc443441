"""MOS variants, rank correlation, RMSE, and first-order score mapping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RatingDataset, ReferenceMos, _shared_reference
from .errors import ConfigError, DataError, DegenerateDataError

MOS_METHODS = ("user_balanced", "plain")


@dataclass(frozen=True)
class MosVector:
    """Per-condition MOS values in stable condition order."""

    conditions: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if len(self.conditions) != values.size:
            raise DataError("conditions and values must align")
        if values.size and not ((values >= 1.0) & (values <= 5.0)).all():
            raise DataError("MOS values must lie in [1, 5]")


@dataclass(frozen=True)
class LinearMap:
    """First-order map ``y = slope * x + intercept`` with output clipped
    to the MOS scale when applied."""

    slope: float
    intercept: float

    def apply(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        return np.clip(self.slope * values + self.intercept, 1.0, 5.0)


@dataclass(frozen=True)
class ComparisonResult:
    # The order of ``compare --json``'s keys.
    n_shared: int
    srcc: float
    rmse: float
    rmse_after_mapping: float | None
    mapping: LinearMap | None


def dataset_mos(ds: RatingDataset, method: str = "user_balanced") -> MosVector:
    """Per-condition MOS vector for the whole dataset.

    ``user_balanced`` averages each user's mean score on the condition,
    so every user who rated it weighs the same; ``plain`` averages its
    votes.  The user-balanced values are derived once per dataset and
    kept on it; every call returns its own copy, so writing to one
    result's ``values`` does not change the next.
    """
    if method not in MOS_METHODS:
        raise ConfigError(f"method must be one of {MOS_METHODS}, got {method!r}")
    if method == "plain":
        values = ds._score_sums / ds._cond_totals
    else:
        values = ds._balanced_mos.copy()
    return MosVector(conditions=ds.conditions, values=values)


def average_ranks(values) -> np.ndarray:
    """Fractional ranks (1-based), ties receiving their group average.

    Raises :class:`DataError` on NaN; ±inf orders and ties as usual.
    Every run of equal values gets one averaged rank, so the order in
    which the sort leaves tied entries never reaches the result, and an
    unstable sort gives the same bytes as a stable one.  NaN is the
    exception (NaN != NaN makes each its own tie group), hence the check.
    """
    a = np.asarray(values, dtype=float)
    _require_no_nan(a)
    order = np.argsort(a)
    s = a[order]
    return _tie_ranks(order, s[1:] != s[:-1])


def _tie_ranks(order: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """Ranks (1-based) of the entries that ``order`` sorts, each tie group
    receiving its average rank, where ``breaks[i]`` says that the entry
    after the i-th in that order starts a new tie group."""
    boundaries = np.flatnonzero(np.concatenate(([True], breaks, [True])))
    ranks = np.empty(order.size)
    ranks[order] = np.repeat((boundaries[:-1] + boundaries[1:] + 1) / 2.0, np.diff(boundaries))
    return ranks


def _require_no_nan(a: np.ndarray) -> None:
    if np.isnan(a).any():
        raise DataError("inputs must not contain NaN")


def _as_pair(a, b, min_len: int):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise DataError("inputs must be one-dimensional")
    if a.size != b.size:
        raise DataError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < min_len:
        raise DataError(f"need at least {min_len} points, got {a.size}")
    _require_no_nan(a)
    _require_no_nan(b)
    return a, b


def srcc(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Raises :class:`DataError` on NaN, as do :func:`rmse` and
    :func:`fit_line`.
    """
    a, b = _as_pair(a, b, min_len=3)
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DegenerateDataError("rank correlation undefined for a constant vector")
    return _ranked_srcc(_centred_ranks(a), _centred_ranks(b))


def _centred_ranks(values: np.ndarray) -> tuple[np.ndarray, np.float64]:
    """The half of :func:`srcc` that reads one vector: its average ranks
    minus their mean, and their sum of squares, which is 0 exactly when
    the vector is constant.  A sweep ranks a fixed vector once."""
    r = average_ranks(values)
    r -= r.mean()
    return r, r @ r


def _ranked_srcc(a: tuple, b: tuple) -> float:
    """:func:`srcc` of two vectors of one length from their
    :func:`_centred_ranks`, neither of them constant."""
    (ra, saa), (rb, sbb) = a, b
    return float(np.clip((ra @ rb) / np.sqrt(saa * sbb), -1.0, 1.0))


def _grouped_ranks(
    groups: np.ndarray, values: np.ndarray, sizes: np.ndarray, tol: float = 0.0
) -> np.ndarray:
    """Fractional ranks (1-based) of ``values`` within each group, ties
    receiving their group average, as :func:`average_ranks` per group.

    ``values`` must hold no NaN.  The entries are ordered by value with
    numpy's default (unstable) sort, then by group with a stable sort of
    the labels in the narrowest unsigned type that holds them: a radix
    sort up to 16 bits.  In that order, an entry starts a new tie group
    when its group changes or its value exceeds the previous one by more
    than ``tol``; each tie group gets one averaged rank, so how the value
    sort orders them does not show in the result.  With ``tol`` 0 the
    ties are those of equal values, as in :func:`average_ranks`; the
    comparison adds ``tol`` rather than subtracting neighbours, so that
    infinities need no inf - inf.
    """
    by_value = np.argsort(values)
    labels = groups[by_value].astype(np.min_scalar_type(sizes.size - 1))
    order = by_value[np.argsort(labels, kind="stable")]
    g = groups[order]
    v = values[order]
    ranks = _tie_ranks(order, (g[1:] != g[:-1]) | (v[1:] > v[:-1] + tol))
    ranks -= (np.cumsum(sizes) - sizes)[groups]
    return ranks


def _grouped_srcc(groups: np.ndarray, a: np.ndarray, b: np.ndarray, b_tol: float = 0.0):
    """Spearman rank correlation of ``a`` against ``b`` within each group.

    ``groups`` labels every point with a non-negative int64, and ``a`` and
    ``b`` are float vectors of its length without NaN; nothing is checked.
    Entry g of the result equals ``srcc(a[groups == g], b[groups == g])``,
    or is NaN where that call would raise: fewer than 3 points or a
    constant vector.  With ``b_tol`` 0, ranks are half-integers, so their
    centred sums are exact and each defined entry is bitwise equal to the
    scalar call's result.  Values of ``b`` that differ by at most ``b_tol``
    rank as ties (see :func:`_grouped_ranks`).
    """
    sizes = np.bincount(groups)
    centre = (sizes[groups] + 1) / 2.0
    ra = _grouped_ranks(groups, a, sizes) - centre
    rb = _grouped_ranks(groups, b, sizes, b_tol) - centre
    saa = np.bincount(groups, ra * ra, minlength=sizes.size)
    sbb = np.bincount(groups, rb * rb, minlength=sizes.size)
    sab = np.bincount(groups, ra * rb, minlength=sizes.size)
    defined = (sizes >= 3) & (saa > 0.0) & (sbb > 0.0)
    out = np.full(sizes.size, np.nan)
    out[defined] = np.clip(
        sab[defined] / np.sqrt(saa[defined] * sbb[defined]), -1.0, 1.0
    )
    return out


def rmse(a, b) -> float:
    """Root mean squared difference of two equally long vectors."""
    a, b = _as_pair(a, b, min_len=1)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def fit_line(x, y) -> LinearMap:
    """Least-squares line mapping ``x`` onto ``y``."""
    x, y = _as_pair(x, y, min_len=2)
    if np.ptp(x) == 0.0:
        raise DegenerateDataError("cannot fit a line to constant x values")
    dx = x - x.mean()
    dy = y - y.mean()
    slope = float((dx @ dy) / (dx @ dx))
    intercept = float(y.mean() - slope * x.mean())
    return LinearMap(slope=slope, intercept=intercept)


def compare_to_reference(
    cs: MosVector, ref: ReferenceMos, with_mapping: bool = False
) -> ComparisonResult:
    """SRCC and RMSE between a MOS vector and a reference table.

    With ``with_mapping``, also reports the RMSE after a first-order map
    of the MOS values onto the reference scale.  SRCC is unchanged by
    any increasing linear map, so only one value is reported.
    """
    index, y = _shared_reference(cs.conditions, ref)
    x = cs.values[index]
    result_srcc = srcc(x, y)
    result_rmse = rmse(x, y)
    mapping = None
    mapped_rmse = None
    if with_mapping:
        mapping = fit_line(x, y)
        mapped_rmse = rmse(mapping.apply(x), y)
    return ComparisonResult(
        n_shared=index.size,
        srcc=result_srcc,
        rmse=result_rmse,
        rmse_after_mapping=mapped_rmse,
        mapping=mapping,
    )
