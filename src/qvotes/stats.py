"""MOS variants, rank correlation, RMSE, and first-order score mapping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SCORE_MAX, SCORE_MIN, RatingDataset, ReferenceMos, _shared_reference
from .errors import ConfigError, DataError, DegenerateDataError

MOS_METHODS = ("user_balanced", "plain")


@dataclass(frozen=True)
class MosVector:
    """Per-condition MOS values in stable condition order."""

    conditions: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = _as_vector(self.values)
        object.__setattr__(self, "values", values)
        if len(self.conditions) != values.size:
            raise DataError("conditions and values must align")
        if values.size and not ((values >= SCORE_MIN) & (values <= SCORE_MAX)).all():
            raise DataError(f"MOS values must lie in [{SCORE_MIN}, {SCORE_MAX}]")


@dataclass(frozen=True)
class LinearMap:
    """First-order map ``y = slope * x + intercept`` with output clipped
    to the MOS scale when applied."""

    slope: float
    intercept: float

    def apply(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        return np.clip(self.slope * values + self.intercept, SCORE_MIN, SCORE_MAX)


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
        values = np.add.reduceat(ds._vote_scores, ds._vote_bounds[:-1]) / ds._cond_totals
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
    a = _as_vector(values)
    _require_no_nan(a)
    return _grouped_ranks(np.zeros(a.size, dtype=np.int64), a, np.zeros(1))


def _as_vector(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise DataError("inputs must be one-dimensional")
    return a


def _require_no_nan(a: np.ndarray) -> None:
    if np.isnan(a).any():
        raise DataError("inputs must not contain NaN")


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise DataError("inputs must not contain ±inf")


def _as_pair(a, b, min_len: int):
    a = _as_vector(a)
    b = _as_vector(b)
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
    :func:`fit_line`; ±inf ranks as :func:`average_ranks` ranks it.
    """
    a, b = _as_pair(a, b, min_len=3)
    ra, rb = _centred_ranks(a), _centred_ranks(b)
    if ra[1] == 0.0 or rb[1] == 0.0:
        raise DegenerateDataError("rank correlation undefined for a constant vector")
    return _ranked_srcc(ra, rb)


def _centred_ranks(values: np.ndarray) -> tuple[np.ndarray, np.float64]:
    """The half of :func:`srcc` that reads one vector without NaN: its
    average ranks less their mean, (size + 1) / 2, and their sum of
    squares, which is 0 exactly when the vector is constant, so a rank
    correlation with it is undefined.  A sweep ranks a fixed vector once."""
    shift = np.full(1, (values.size + 1) / 2.0)
    r = _grouped_ranks(np.zeros(values.size, dtype=np.int64), values, shift)
    return r, r @ r


def _counted_ranks(values: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.float64]:
    """:func:`_centred_ranks` of integers ``values`` in [lo, hi], from a
    histogram of them instead of a sort: O(k + hi - lo) for k values, so
    O(k + 4n) for the k vote sums of a run of n votes per condition,
    ranked as ``_counted_ranks(sums, n * SCORE_MIN, n * SCORE_MAX)``.

    The values equal to v fill sorted positions [start, end), where end
    counts the values up to v and start those below it, so their tie
    group's average rank is (start + end + 1) / 2, the half-integer that
    :func:`_grouped_ranks` computes.  Centring takes off (k + 1) / 2, the
    mean of any k ranks, as :func:`_centred_ranks` does.  So each centred
    rank is the integer (start + end - k) over 2, exact, and the table of
    them holds one per value in [lo, hi].  Dividing integers of at most 5n
    by one positive n keeps their order and which of them are equal (their
    float quotients lie at least 1/n apart), so the ranks and their sum of
    squares are bit for bit those of ``_centred_ranks(values / n)`` and
    ``_centred_ranks(values)``.
    """
    shifted = values - lo
    counts = np.bincount(shifted, minlength=hi - lo + 1)
    r = ((2 * np.cumsum(counts) - counts - values.size) / 2.0)[shifted]
    return r, r @ r


def _ranked_srcc(a: tuple, b: tuple) -> float:
    """:func:`srcc` of two vectors of one length from their
    :func:`_centred_ranks` (or :func:`_counted_ranks`), neither of them
    constant."""
    (ra, saa), (rb, sbb) = a, b
    return min(1.0, max(-1.0, float((ra @ rb) / np.sqrt(saa * sbb))))


def _grouped_ranks(
    groups: np.ndarray, values: np.ndarray, shift: np.ndarray, tol: float = 0.0
) -> np.ndarray:
    """Fractional ranks (1-based) of ``values`` within each group, ties
    receiving their group average, less ``shift[g]`` for an entry of
    group g.  The one sort-based ranking: :func:`average_ranks` and
    :func:`_centred_ranks` are its one-group case.

    ``values`` must hold no NaN, and ``shift`` has one entry per group
    label.  The entries are ordered by value with numpy's default
    (unstable) sort, then by group with a stable sort of the labels in
    the narrowest unsigned type that holds them: a radix sort up to 16
    bits.  In that order, group g's entries follow those of every lower
    label, so a rank there counts them too; ``shift`` takes them off once
    per tie group, before the ranks are spread over its entries.  An entry
    starts a new tie group when its group changes or its value exceeds the
    previous one by more than ``tol``; each tie group gets one averaged
    rank, so how the value sort orders them does not show in the result.
    With ``tol`` 0 the ties are those of equal values, as in
    :func:`average_ranks`; the comparison adds ``tol`` rather than
    subtracting neighbours, so that infinities need no inf - inf.
    """
    if not values.size:
        return np.empty(0)
    by_value = np.argsort(values)
    labels = groups[by_value].astype(np.min_scalar_type(shift.size - 1))
    order = by_value[np.argsort(labels, kind="stable")]
    g = groups[order]
    v = values[order]
    breaks = (g[1:] != g[:-1]) | (v[1:] > v[:-1] + tol)
    boundaries = np.flatnonzero(np.concatenate(([True], breaks, [True])))
    ties = (boundaries[:-1] + boundaries[1:] + 1) / 2.0 - shift[g[boundaries[:-1]]]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(ties, np.diff(boundaries))
    return ranks


def _grouped_srcc(groups: np.ndarray, a: np.ndarray, b: np.ndarray, b_tol: float = 0.0):
    """Spearman rank correlation of ``a`` against ``b`` within each group.

    ``groups`` labels every point with a non-negative int64, and ``a`` and
    ``b`` are float vectors of its length without NaN; nothing is checked.
    IRR's are: its group labels are user indices, and its two vectors are
    means of votes in [1, 5].  Entry g of the result equals
    ``srcc(a[groups == g], b[groups == g])``, or is NaN where that call
    would raise: fewer than 3 points or a constant vector.

    Both vectors are ranked with one shift per group, the entries of the
    lower labels plus the group's mean rank (size + 1) / 2, which
    :func:`_grouped_ranks` takes off each tie group, so the ranks come out
    centred.  Ranks and shifts are half-integers, so the centred ranks
    and their sums are exact; with ``b_tol`` 0, each defined entry is
    bitwise equal to the scalar call's result.  Values of ``b`` that
    differ by at most ``b_tol`` rank as ties (see :func:`_grouped_ranks`).
    """
    sizes = np.bincount(groups)
    shift = (np.cumsum(sizes) - sizes) + (sizes + 1) / 2.0
    ra = _grouped_ranks(groups, a, shift)
    rb = _grouped_ranks(groups, b, shift, b_tol)
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
    """Root mean squared difference of two equally long finite vectors."""
    a, b = _as_pair(a, b, min_len=1)
    _require_finite(a, b)
    return _rmse(a, b)


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`rmse` of two float vectors of one non-zero length, unchecked.
    A sweep's are: a run's MOS is finite and in [1, 5], and a target
    holds no NaN."""
    return float(np.sqrt(np.mean((a - b) ** 2)))


def fit_line(x, y) -> LinearMap:
    """Least-squares line mapping finite ``x`` onto finite ``y``; a constant
    ``x``, infinite or not, raises :class:`DegenerateDataError` first."""
    x, y = _as_pair(x, y, min_len=2)
    if x.max() > x.min():  # else _line_fit finds x constant
        _require_finite(x, y)
    fit = _line_fit(x, y)
    if fit is None:
        raise DegenerateDataError("cannot fit a line to constant x values")
    return fit


def _line_fit(x: np.ndarray, y: np.ndarray) -> LinearMap | None:
    """:func:`fit_line` of two float vectors of one length without NaN,
    unchecked, as a sweep's are; None for a constant ``x`` (``x.max() ==
    x.min()``, so a constant infinite one too), which no line maps."""
    if x.max() == x.min():
        return None
    x_mean = x.mean()
    dx = x - x_mean
    y_mean = y.mean()
    slope = float((dx @ (y - y_mean)) / (dx @ dx))
    return LinearMap(slope, float(y_mean - slope * x_mean))


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
