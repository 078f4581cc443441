"""Rating data ingestion, cleaning, and empirical distributions.

The core container is :class:`RatingDataset`: a collection of individual
1-5 votes indexed by (condition, user, score), with per-condition caches
for the two-stage resampling used elsewhere in the package.  Conditions
and users keep first-appearance order so downstream vectors have a
stable, reproducible layout.

Input files are UTF-8 delimited text (comma by default) with a header
row.  Ratings need ``condition_id,user_id,score`` columns (plus an
optional ``stimulus_id``), reference tables need ``condition_id,mos``.
Unknown extra columns are ignored; ``column_map`` renames the canonical
columns to whatever the file actually uses.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, DataError

SCORE_MIN = 1
SCORE_MAX = 5
NUM_SCORES = SCORE_MAX - SCORE_MIN + 1

RATING_COLUMNS = ("condition_id", "user_id", "score")
STIMULUS_COLUMN = "stimulus_id"
REFERENCE_COLUMNS = ("condition_id", "mos")


@dataclass(frozen=True)
class RatingRecord:
    """A single quality vote by one user on one condition."""

    condition_id: str
    user_id: str
    score: int
    stimulus_id: str | None = None

    def __post_init__(self):
        if not self.condition_id or not self.user_id:
            raise DataError("condition_id and user_id must be non-empty")
        if not SCORE_MIN <= int(self.score) <= SCORE_MAX:
            raise DataError(
                f"score must be in [{SCORE_MIN}, {SCORE_MAX}], got {self.score!r}"
            )


def _first_appearance_index(values: list) -> tuple[dict, np.ndarray]:
    """Position of each distinct value in first-appearance order, and
    every value's position."""
    pos = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return pos, np.fromiter(map(pos.__getitem__, values), dtype=np.int32, count=len(values))


# Inverse-CDF sampling of many conditions at once.  Every uniform a numpy
# Generator draws is u = a * 2^-53 for a 53-bit integer a, and cdf <= u
# exactly when ceil(cdf * 2^53) <= a (scaling by 2^53 is exact).  Tagging
# each user CDF entry's integer cut with its condition's position in a
# block, in bits 54 and up, makes the cuts of the whole block one ascending
# array, so one searchsorted picks the users of every condition.  A tag
# <= 1023 * 2^54 plus a cut <= 2^53 stays below 2^64.
UNIT_BITS = 53
_TAG_SHIFT = 54
MAX_BLOCK = 1024


def _invert(user_cdf: np.ndarray, sizes: np.ndarray, score_cdf: np.ndarray, draws: np.ndarray):
    """Votes of a block of at most MAX_BLOCK conditions from their 53-bit
    draws.

    ``user_cdf`` and ``score_cdf`` hold the CDFs of the block's consecutive
    rows and ``sizes`` each condition's number of rows.  Row i of the
    (conditions, 2n) ``draws`` picks n users with its first n entries and
    then their scores with the next n, exactly as
    ``searchsorted(side="right")`` on the float CDFs does.  Returns
    (scores, rows local to each condition), both (conditions, n).
    """
    n = draws.shape[1] // 2
    first = np.cumsum(sizes) - sizes
    tags = np.arange(sizes.size, dtype=np.uint64) << np.uint64(_TAG_SHIFT)
    keys = user_cdf * 2.0**UNIT_BITS
    np.ceil(keys, out=keys)
    keys = keys.astype(np.uint64)
    keys |= np.repeat(tags, sizes)
    pos = keys.searchsorted(draws[:, :n] + tags[:, None], side="right")
    u = draws[:, n:] * 2.0**-UNIT_BITS
    scores = np.ones(pos.shape, np.int64)
    # The last CDF entry is 1.0, above every u.
    for column in range(NUM_SCORES - 1):
        scores += score_cdf[:, column][pos] <= u
    return scores, pos - first[:, None]


@dataclass(frozen=True)
class _ConditionVotes:
    """Per-condition vote counts in sampling-friendly form.

    ``user_rows`` holds the global user indices of contributing users in
    ascending order; ``counts`` is the (users x 5) score count matrix
    restricted to those users.
    """

    user_rows: np.ndarray   # (m,) global user index per contributing user
    counts: np.ndarray      # (m, 5) score counts
    row_totals: np.ndarray  # (m,) votes per contributing user
    user_prob: np.ndarray   # (m,) stage-1 draw probabilities
    user_cdf: np.ndarray    # (m,) cumulative user_prob, last entry exactly 1
    score_cdf: np.ndarray   # (m, 5) per-user cumulative score distribution
    n_votes: int
    score_sum: int

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` votes: user first, then a score from that user's
        empirical distribution.  Returns (scores, local user rows).

        The first n uniforms pick the users by inverse CDF and the next n
        the scores; this draws exactly what ``rng.choice(m, size=n,
        p=user_prob)`` followed by ``rng.random(n)`` draws.
        """
        draws = (rng.random(2 * n) * 2.0**UNIT_BITS).astype(np.uint64)
        scores, rows = _invert(self.user_cdf, np.array([self.user_cdf.size]), self.score_cdf, draws[None])
        return scores[0], rows[0]


class RatingDataset:
    """Immutable set of votes with per-(condition, user, score) counts.

    Safe to share read-only across threads once constructed; all caches
    are built eagerly by the constructor.
    """

    def __init__(self, records: Iterable[RatingRecord], label: str = ""):
        records = list(records)
        self._init_columns(
            [r.condition_id for r in records],
            [r.user_id for r in records],
            [int(r.score) for r in records],
            [r.stimulus_id for r in records],
            label,
        )

    @classmethod
    def _from_columns(cls, conditions, users, scores, stimuli, label: str = ""):
        """A dataset from parallel per-vote lists of validated values
        (``stimuli`` holds None where a vote has no stimulus id)."""
        ds = cls.__new__(cls)
        ds._init_columns(conditions, users, scores, stimuli, label)
        return ds

    def _init_columns(self, conditions, users, scores, stimuli, label):
        n = len(conditions)
        if not n:
            raise DataError("dataset needs at least one rating")
        self.label = label
        with_stim = n - stimuli.count(None)
        if 0 < with_stim < n:
            raise DataError(
                "stimulus_id must be present on every vote or on none "
                f"(found {with_stim} of {n})"
            )
        self._cond_pos, self._cond_idx = _first_appearance_index(conditions)
        self._user_pos, self._user_idx = _first_appearance_index(users)
        self._scores = np.array(scores, dtype=np.int64)
        self.conditions: tuple[str, ...] = tuple(self._cond_pos)
        self.users: tuple[str, ...] = tuple(self._user_pos)
        self.stimuli: tuple[str, ...] | None = None
        self._stim_idx = None
        if with_stim:
            stim_pos, self._stim_idx = _first_appearance_index(stimuli)
            self.stimuli = tuple(stim_pos)
        self._per_condition = self._build_conditions()

    def _build_conditions(self) -> list[_ConditionVotes]:
        """Every condition's cache, from one grouping of the votes by
        (condition, user); users ascend within a condition.  Also keeps
        the CDFs of all conditions, row after row, for sampling blocks of
        conditions at once."""
        n_users = len(self.users)
        pairs, pair_of_vote = np.unique(
            self._cond_idx.astype(np.int64) * n_users + self._user_idx,
            return_inverse=True,
        )
        counts = np.bincount(
            pair_of_vote * NUM_SCORES + (self._scores - SCORE_MIN),
            minlength=pairs.size * NUM_SCORES,
        ).reshape(pairs.size, NUM_SCORES)
        row_totals = counts.sum(axis=1)
        bounds = np.searchsorted(pairs // n_users, np.arange(len(self.conditions) + 1))
        cond_totals = np.add.reduceat(row_totals, bounds[:-1])
        score_sums = np.add.reduceat(counts @ np.arange(SCORE_MIN, SCORE_MAX + 1), bounds[:-1])
        user_prob = row_totals / np.repeat(cond_totals, np.diff(bounds))
        score_cdf = np.cumsum(counts / row_totals[:, None], axis=1)
        score_cdf[:, -1] = 1.0
        user_rows = (pairs % n_users).astype(np.int32)
        user_cdf = np.empty_like(user_prob)
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            # Normalised as Generator.choice normalises its cumulative p.
            np.cumsum(user_prob[a:b], out=user_cdf[a:b])
            user_cdf[a:b] /= user_cdf[b - 1]
        self._row_bounds = bounds
        self._user_rows = user_rows
        self._user_cdf = user_cdf
        self._score_cdf = score_cdf
        out = []
        for a, b, total, score_sum in zip(
            bounds[:-1].tolist(), bounds[1:].tolist(), cond_totals.tolist(), score_sums.tolist()
        ):
            out.append(
                _ConditionVotes(
                    user_rows=user_rows[a:b],
                    counts=counts[a:b],
                    row_totals=row_totals[a:b],
                    user_prob=user_prob[a:b],
                    user_cdf=user_cdf[a:b],
                    score_cdf=score_cdf[a:b],
                    n_votes=total,
                    score_sum=score_sum,
                )
            )
        return out

    # -- basic accessors -------------------------------------------------

    @property
    def n_votes(self) -> int:
        return self._scores.size

    def condition_index(self, condition_id: str) -> int:
        try:
            return self._cond_pos[condition_id]
        except KeyError:
            raise DataError(f"unknown condition {condition_id!r}") from None

    def condition_votes(self, index: int) -> _ConditionVotes:
        return self._per_condition[index]

    def _sample_block(self, start: int, stop: int, draws: np.ndarray):
        """Votes of conditions ``start..stop-1`` (at most MAX_BLOCK) from
        their (stop - start, 2n) 53-bit draws; see :func:`_invert`."""
        r0, r1 = self._row_bounds[start], self._row_bounds[stop]
        sizes = np.diff(self._row_bounds[start : stop + 1])
        return _invert(self._user_cdf[r0:r1], sizes, self._score_cdf[r0:r1], draws)

    def votes_per_condition(self) -> np.ndarray:
        return np.array([c.n_votes for c in self._per_condition], dtype=np.int64)

    def condition_scores(self, condition_id: str) -> np.ndarray:
        """All scores given to one condition, in vote order."""
        j = self.condition_index(condition_id)
        return self._scores[self._cond_idx == j].copy()

    def count(self, condition_id: str, user_id: str, score: int) -> int:
        """Number of times ``user_id`` gave ``score`` to ``condition_id``."""
        j = self.condition_index(condition_id)
        if user_id not in self._user_pos:
            return 0
        if not SCORE_MIN <= score <= SCORE_MAX:
            return 0
        cache = self._per_condition[j]
        pos = np.searchsorted(cache.user_rows, self._user_pos[user_id])
        if pos == cache.user_rows.size or cache.user_rows[pos] != self._user_pos[user_id]:
            return 0
        return int(cache.counts[pos, score - SCORE_MIN])

    def users_for(self, condition_id: str) -> tuple[str, ...]:
        cache = self._per_condition[self.condition_index(condition_id)]
        return tuple(self.users[g] for g in cache.user_rows)

    def counts(self) -> dict[tuple[str, str, int], int]:
        """All nonzero (condition, user, score) counts as a dict."""
        out: dict[tuple[str, str, int], int] = {}
        for cond, cache in zip(self.conditions, self._per_condition):
            for row, g in enumerate(cache.user_rows):
                for q in range(NUM_SCORES):
                    c = int(cache.counts[row, q])
                    if c:
                        out[(cond, self.users[g], q + SCORE_MIN)] = c
        return out

    def to_records(self) -> list[RatingRecord]:
        stim = self.stimuli
        return [
            RatingRecord(
                condition_id=self.conditions[self._cond_idx[i]],
                user_id=self.users[self._user_idx[i]],
                score=int(self._scores[i]),
                stimulus_id=stim[self._stim_idx[i]] if stim is not None else None,
            )
            for i in range(self.n_votes)
        ]

    def summary(self) -> dict:
        per_cond = self.votes_per_condition().astype(float)
        return {
            "label": self.label,
            "conditions": len(self.conditions),
            "users": len(self.users),
            "votes": self.n_votes,
            "stimuli": len(self.stimuli) if self.stimuli is not None else None,
            "votes_per_condition_mean": float(per_cond.mean()),
            "votes_per_condition_std": float(per_cond.std(ddof=1)) if per_cond.size > 1 else 0.0,
            "votes_per_condition_min": int(per_cond.min()),
            "votes_per_condition_max": int(per_cond.max()),
        }


@dataclass(frozen=True)
class ReferenceMos:
    """Per-condition reference MOS values (typically from a lab test)."""

    mos: dict[str, float]

    def __post_init__(self):
        for cond, value in self.mos.items():
            if not 1.0 <= value <= 5.0:
                raise DataError(f"reference MOS for {cond!r} outside [1, 5]: {value}")

    @property
    def conditions(self) -> tuple[str, ...]:
        return tuple(self.mos)

    def __len__(self) -> int:
        return len(self.mos)

    def __contains__(self, condition_id: str) -> bool:
        return condition_id in self.mos

    def __getitem__(self, condition_id: str) -> float:
        return self.mos[condition_id]


def reference_coverage(
    ref: ReferenceMos, ds: RatingDataset
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Returns (shared, reference-only, dataset-only) condition ids."""
    ds_set = set(ds.conditions)
    ref_set = set(ref.mos)
    shared = tuple(c for c in ds.conditions if c in ref_set)
    ref_only = tuple(c for c in ref.mos if c not in ds_set)
    ds_only = tuple(c for c in ds.conditions if c not in ref_set)
    return shared, ref_only, ds_only


# -- loading -------------------------------------------------------------


def _open_text(source):
    """Returns (text file object, needs_close)."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if hasattr(source, "read"):
        if isinstance(source, io.TextIOBase):
            return source, False
        return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
    raise ConfigError(f"unsupported source type: {type(source).__name__}")


@contextmanager
def _csv_rows(source, delimiter: str):
    """A ``csv.reader`` over ``source`` (a path or an open stream), closed
    on exit if opened here.  A delimiter ``csv`` rejects raises
    :class:`ConfigError`; bytes that are not UTF-8 raise :class:`DataError`
    naming the source."""
    fh, needs_close = _open_text(source)
    try:
        try:
            reader = csv.reader(fh, delimiter=delimiter)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid delimiter {delimiter!r}: {exc}") from None
        yield reader
    except UnicodeDecodeError as exc:
        name = source if isinstance(source, (str, Path)) else getattr(source, "name", "input")
        raise DataError(f"{name} is not UTF-8 text: {exc.reason}") from None
    finally:
        if needs_close:
            fh.close()


def _resolve_columns(header, wanted, column_map, required):
    names = [h.strip() for h in header]
    index = {}
    missing = []
    for canonical in wanted:
        actual = column_map.get(canonical, canonical)
        if actual in names:
            index[canonical] = names.index(actual)
        elif canonical in required:
            missing.append(actual)
    if missing:
        raise DataError(f"missing required column(s): {', '.join(missing)}")
    return index


def _check_column_map(column_map, allowed):
    column_map = dict(column_map or {})
    unknown = set(column_map) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown column_map key(s): {', '.join(sorted(unknown))}; "
            f"expected a subset of {allowed}"
        )
    return column_map


def _parse_score(text: str, line: int) -> int:
    try:
        value = int(text)
    except ValueError:
        try:
            as_float = float(text)
        except ValueError:
            raise DataError(f"non-integer score {text!r} at line {line}") from None
        if not as_float.is_integer():
            raise DataError(f"non-integer score {text!r} at line {line}")
        value = int(as_float)
    if not SCORE_MIN <= value <= SCORE_MAX:
        raise DataError(f"score out of range at line {line}: {text}")
    return value


def load_ratings(
    source,
    label: str = "",
    delimiter: str = ",",
    column_map: dict[str, str] | None = None,
) -> RatingDataset:
    """Load votes from a delimited table into a :class:`RatingDataset`.

    ``source`` is a path or an open text/binary stream.  Duplicate
    (condition, user, score) rows accumulate.  Raises :class:`DataError`
    naming the offending line for malformed rows.
    """
    column_map = _check_column_map(column_map, RATING_COLUMNS + (STIMULUS_COLUMN,))
    with _csv_rows(source, delimiter) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input: missing header row") from None
        index = _resolve_columns(
            header, RATING_COLUMNS + (STIMULUS_COLUMN,), column_map, RATING_COLUMNS
        )
        stim_col = index.get(STIMULUS_COLUMN)
        cond_col, user_col, score_col = (index[c] for c in RATING_COLUMNS)
        needed = max(cond_col, user_col, score_col)
        conds, users, scores, stims = [], [], [], []
        for row in reader:
            if not "".join(row).strip():
                continue
            if len(row) <= needed:
                raise DataError(f"missing field at line {reader.line_num}")
            cond = row[cond_col].strip()
            user = row[user_col].strip()
            if not cond or not user:
                raise DataError(f"empty condition_id or user_id at line {reader.line_num}")
            scores.append(_parse_score(row[score_col].strip(), reader.line_num))
            conds.append(cond)
            users.append(user)
            stims.append(
                row[stim_col].strip() or None
                if stim_col is not None and len(row) > stim_col
                else None
            )
    if not conds:
        raise DataError("no rating rows found")
    return RatingDataset._from_columns(conds, users, scores, stims, label=label)


def load_reference(
    source,
    delimiter: str = ",",
    column_map: dict[str, str] | None = None,
) -> ReferenceMos:
    """Load a per-condition reference MOS table.

    Duplicate condition ids and MOS values outside [1, 5] are errors.
    """
    column_map = _check_column_map(column_map, REFERENCE_COLUMNS)
    with _csv_rows(source, delimiter) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input: missing header row") from None
        index = _resolve_columns(header, REFERENCE_COLUMNS, column_map, REFERENCE_COLUMNS)
        mos: dict[str, float] = {}
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            line = reader.line_num
            if len(row) <= max(index.values()):
                raise DataError(f"missing field at line {line}")
            cond = row[index["condition_id"]].strip()
            if not cond:
                raise DataError(f"empty condition_id at line {line}")
            if cond in mos:
                raise DataError(f"duplicate condition_id {cond!r} at line {line}")
            raw = row[index["mos"]].strip()
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"non-numeric mos {raw!r} at line {line}") from None
            if not 1.0 <= value <= 5.0:
                raise DataError(f"mos out of range at line {line}: {raw}")
            mos[cond] = value
    if not mos:
        raise DataError("no reference rows found")
    return ReferenceMos(mos)


# -- cleaning ------------------------------------------------------------


def remove_outliers_iqr(
    ds: RatingDataset,
    k: float = 3.0,
    scope: str = "condition",
) -> tuple[RatingDataset, int]:
    """Remove votes lying ``k`` interquartile ranges or more from their
    group median.

    Groups are conditions by default, or stimuli with ``scope="stimulus"``
    (requires stimulus ids).  Quartiles use linear interpolation between
    order statistics.  When a group's IQR is zero the literal rule would
    delete the whole group, so the criterion degenerates to removing only
    votes different from the median.

    Returns the cleaned dataset and the number of votes removed.  A single
    pass is applied; re-running on the cleaned output can remove further
    votes because group medians and IQRs shift.
    """
    if k <= 0:
        raise ConfigError(f"k must be positive, got {k}")
    if scope == "condition":
        group_idx = ds._cond_idx
        n_groups = len(ds.conditions)
    elif scope == "stimulus":
        if ds._stim_idx is None:
            raise DataError("per-stimulus outlier removal needs stimulus ids")
        group_idx = ds._stim_idx
        n_groups = len(ds.stimuli)
    else:
        raise ConfigError(f"scope must be 'condition' or 'stimulus', got {scope!r}")

    # One grouping: a stable sort lists each group's votes in file order.
    scores = ds._scores
    order = np.argsort(group_idx, kind="stable")
    ends = np.cumsum(np.bincount(group_idx, minlength=n_groups))
    keep = np.ones(ds.n_votes, dtype=bool)
    for sel in np.split(order, ends[:-1]):
        votes = scores[sel].astype(float)
        median = np.median(votes)
        q25, q75 = np.percentile(votes, [25.0, 75.0])
        iqr = q75 - q25
        if iqr == 0.0:
            outlier = votes != median
        else:
            outlier = np.abs(votes - median) >= k * iqr
        keep[sel[outlier]] = False

    kept = int(keep.sum())
    if kept == ds.n_votes:
        return ds, 0
    if not kept:
        raise DataError("outlier removal deleted every vote")
    stimuli = (
        [None] * kept
        if ds.stimuli is None
        else [ds.stimuli[i] for i in ds._stim_idx[keep].tolist()]
    )
    return RatingDataset._from_columns(
        [ds.conditions[i] for i in ds._cond_idx[keep].tolist()],
        [ds.users[i] for i in ds._user_idx[keep].tolist()],
        scores[keep].tolist(),
        stimuli,
        label=ds.label,
    ), ds.n_votes - kept


# -- empirical distributions ----------------------------------------------


def empirical_user_prob(ds: RatingDataset, condition_id: str) -> dict[str, float]:
    """P(user | condition): each contributing user's share of the votes."""
    cache = ds.condition_votes(ds.condition_index(condition_id))
    return {
        ds.users[g]: float(p) for g, p in zip(cache.user_rows, cache.user_prob)
    }


def empirical_score_dist(ds: RatingDataset, condition_id: str, user_id: str) -> np.ndarray:
    """P(score | condition, user) as a length-5 probability vector."""
    cache = ds.condition_votes(ds.condition_index(condition_id))
    if user_id not in ds._user_pos:
        raise DataError(f"unknown user {user_id!r}")
    g = ds._user_pos[user_id]
    pos = np.searchsorted(cache.user_rows, g)
    if pos == cache.user_rows.size or cache.user_rows[pos] != g:
        raise DataError(f"user {user_id!r} never rated condition {condition_id!r}")
    return cache.counts[pos] / cache.row_totals[pos]
