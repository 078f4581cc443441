"""Rating data ingestion and cleaning.

The core container is :class:`RatingDataset`: a collection of individual
1-5 votes, each a (condition, user, score) triple, held once, sorted by
that key (a stimulus is its last digit) for resampling.  The constructor
keeps the names some vote uses, in sorted-id order, so downstream vectors
have a stable layout that does not depend on the order of the input
rows.  Only :func:`load_ratings` and :func:`remove_outliers_iqr` build
datasets, so every vote passes the loader's checks; votes held in memory
load as CSV text through ``load_ratings(io.StringIO(text))``.

Input files are UTF-8 delimited text (comma by default) with a header
row.  Ratings need ``condition_id,user_id,score`` columns (plus an
optional ``stimulus_id``), reference tables need ``condition_id,mos``.
Unknown extra columns are ignored; ``column_map`` renames the canonical
columns to whatever the file actually uses, and a column it names is
required; its keys are checked when the header is read.  A leading
UTF-8 byte-order mark, as spreadsheet programs write, is dropped: paths
and binary streams lose its three bytes and are decoded as UTF-8, and a
text stream loses a leading U+FEFF before its first row is parsed.

Every input, here and the curve files of :mod:`qvotes.simulate`, is read
into one string by :func:`_read_text`; its lines end at LF, CRLF or a
bare CR for paths and streams alike.  Plain ratings text (no ``"``, NUL
or bare CR, every body line with the header's field count, non-blank ids
and valid scores) is parsed by numpy scans of its UTF-8 bytes, each
distinct cell value stripped, coded and checked once.  Other ratings
text, every reference table and every curve CSV go through
:func:`_csv_table`, the one ``csv`` reader, which names the line of a
short row, a bad quote or a field over ``csv.field_size_limit()``.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError

SCORE_MIN = 1
SCORE_MAX = 5
NUM_SCORES = SCORE_MAX - SCORE_MIN + 1

RATING_COLUMNS = ("condition_id", "user_id", "score")
STIMULUS_COLUMN = "stimulus_id"
REFERENCE_COLUMNS = ("condition_id", "mos")


def _codes(column: list) -> tuple[tuple, np.ndarray]:
    """Distinct values of ``column`` in first-appearance order, and each
    entry's position among them."""
    pos = {value: i for i, value in enumerate(dict.fromkeys(column))}
    return tuple(pos), np.fromiter(map(pos.__getitem__, column), np.int32, count=len(column))


def _sorted(names: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """``(names, codes)`` without the names no code uses, renumbered so
    that the names ascend."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    order = sorted(used.tolist(), key=names.__getitem__)
    rank = np.empty(len(names), np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return tuple(names[i] for i in order), rank[codes]


class RatingDataset:
    """Immutable set of votes, as :func:`load_ratings` and
    :func:`remove_outliers_iqr` build it.

    The constructor takes ``conditions``, ``users`` and ``stimuli`` as
    per-vote (names, codes) pairs and ``scores`` as the votes' checked
    integer scores.  It keeps the names some vote uses, sorted, so each
    name tuple is distinct, ascending and all used.  A stimulus name is
    None where a vote has no stimulus id, and ``stimuli`` is None when no
    vote has one.  The votes are held once, in the sorted layout of
    :meth:`_build_conditions`, which every accessor reads.  To build a
    dataset from values held in memory, pass them as CSV text to
    ``load_ratings(io.StringIO(text))``, which applies the file rules.
    """

    def __init__(self, conditions, users, scores, stimuli, label: str = ""):
        n = scores.size
        if not n:
            raise DataError("dataset needs at least one rating")
        self.label = label
        self.conditions: tuple[str, ...]
        self.users: tuple[str, ...]
        self.conditions, cond_codes = _sorted(*conditions)
        self.users, user_codes = _sorted(*users)
        self.stimuli: tuple[str, ...] | None = None
        stim_codes = None
        if stimuli is not None:
            names, codes = stimuli
            if None not in names:
                self.stimuli, stim_codes = _sorted(names, codes)
            elif with_stim := n - int(np.count_nonzero(codes == names.index(None))):
                raise DataError(
                    "stimulus_id must be present on every vote or on none "
                    f"(found {with_stim} of {n})"
                )
        self._build_conditions(cond_codes, user_codes, scores, stim_codes)

    def _build_conditions(self, conds, users, scores, stims) -> None:
        """The votes ordered by (condition, user, score, stimulus), from one
        sort of that key, and what the sweeps read of them; the codes and
        scores passed in are not kept.  The stimulus, the key's last digit,
        is decoded into ``_vote_stims`` (None without stimuli).

        Condition j's votes are entries ``_vote_bounds[j]:_vote_bounds[j + 1]``
        of ``_vote_scores`` and of ``_vote_rows``, each vote's
        (condition, user) row.  Rows ``_row_bounds[j]:_row_bounds[j + 1]``
        belong to condition j, one per user who rated it, users ascending;
        ``_row_conds`` and ``_user_rows`` name each row's condition and
        user, and ``_user_means`` gives that user's mean score on the
        condition."""
        n_users = len(self.users)
        key = (conds.astype(np.int64) * n_users + users) * NUM_SCORES + (scores - SCORE_MIN)
        self._vote_stims = None
        if stims is None:
            key = np.sort(key)
        else:
            n_stims = len(self.stimuli)
            if len(self.conditions) * n_users * NUM_SCORES * n_stims > 2**63:
                raise DataError("too many distinct condition, user and stimulus ids to sort")
            key, stims = np.divmod(np.sort(key * n_stims + stims), n_stims)
            self._vote_stims = stims.astype(np.int32)
        pair = key // NUM_SCORES
        self._vote_scores = key - pair * NUM_SCORES + SCORE_MIN
        new_row = np.diff(pair, prepend=-1) != 0
        row_edges = np.append(np.flatnonzero(new_row), key.size)
        self._vote_rows = np.cumsum(new_row) - 1
        pairs = pair[row_edges[:-1]]
        self._row_conds = pairs // n_users
        self._row_bounds = np.searchsorted(self._row_conds, np.arange(len(self.conditions) + 1))
        self._user_rows = (pairs % n_users).astype(np.int32)
        self._vote_bounds = row_edges[self._row_bounds]
        self._cond_totals = np.diff(self._vote_bounds)
        row_sums = np.add.reduceat(self._vote_scores, row_edges[:-1])
        self._score_sums = np.add.reduceat(row_sums, self._row_bounds[:-1])
        self._user_means = row_sums / np.diff(row_edges)

    def _equal_size_blocks(self):
        """For each number m of users per condition: the conditions with m
        users and the (conditions, m) matrix of their rows."""
        sizes = np.diff(self._row_bounds)
        for m in np.flatnonzero(np.bincount(sizes)).tolist():
            group = np.flatnonzero(sizes == m)
            yield group, self._row_bounds[group][:, None] + np.arange(m)

    @cached_property
    def _balanced_mos(self) -> np.ndarray:
        """Each condition's mean of its users' mean scores, read-only.  It
        is derived on first use and kept, as the votes never change."""
        values = np.empty(len(self.conditions))
        # A row's mean along axis 1 sums pairwise in the same order as the
        # mean of that condition's users alone.
        for group, rows in self._equal_size_blocks():
            values[group] = self._user_means[rows].mean(axis=1)
        values.flags.writeable = False
        return values

    # -- basic accessors -------------------------------------------------

    @property
    def n_votes(self) -> int:
        return self._vote_scores.size

    def votes_per_condition(self) -> np.ndarray:
        return self._cond_totals.copy()

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
            if not SCORE_MIN <= value <= SCORE_MAX:
                raise DataError(f"reference MOS for {cond!r} outside [{SCORE_MIN}, {SCORE_MAX}]: {value}")

    def __len__(self) -> int:
        return len(self.mos)

    def __contains__(self, condition_id: str) -> bool:
        return condition_id in self.mos

    def __getitem__(self, condition_id: str) -> float:
        return self.mos[condition_id]


def _shared_reference(
    conditions: tuple[str, ...], ref: ReferenceMos
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending indices into ``conditions`` of those ``ref`` rates,
    and their reference MOS.  Fewer than 3 raise :class:`DataError`:
    validity needs a rank correlation and a fitted line over them."""
    mos = ref.mos
    shared = {j: mos[c] for j, c in enumerate(conditions) if c in mos}
    if len(shared) < 3:
        raise DataError(f"need at least 3 shared conditions, got {len(shared)}")
    return np.fromiter(shared, np.int64), np.fromiter(shared.values(), float)


def reference_coverage(
    ref: ReferenceMos, ds: RatingDataset
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Returns (shared, reference-only, dataset-only) condition ids, each sorted."""
    ds_set = set(ds.conditions)
    ref_set = set(ref.mos)
    shared = tuple(c for c in ds.conditions if c in ref_set)
    ref_only = tuple(sorted(c for c in ref.mos if c not in ds_set))
    ds_only = tuple(c for c in ds.conditions if c not in ref_set)
    return shared, ref_only, ds_only


# -- loading -------------------------------------------------------------


def _is_utf8(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: it holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _read_text(source) -> str:
    """The whole of ``source`` (a path, any ``os.PathLike`` or an open
    stream) as one string, without a leading byte-order mark: the one
    decoder of every input file.  Paths and binary streams are decoded
    as UTF-8; bytes that are not UTF-8 raise :class:`DataError` naming
    the path, or the stream's ``name``."""
    is_path = isinstance(source, (str, os.PathLike))
    try:
        if is_path:
            with open(source, "rb") as fh:
                data = fh.read()
        elif hasattr(source, "read"):
            data = source.read()
        else:
            raise ConfigError(f"unsupported source type: {type(source).__name__}")
        # A text stream keeps a byte-order mark as U+FEFF; dropped before
        # parsing, it cannot hide a quote that opens the first cell.  Bytes
        # drop it themselves: the utf-8-sig codec is a module import away.
        if isinstance(data, str):
            return data.removeprefix("\ufeff")
        return data.removeprefix(codecs.BOM_UTF8).decode("utf-8")
    except UnicodeDecodeError as exc:
        name = os.fspath(source) if is_path else getattr(source, "name", "input")
        raise DataError(f"{name} is not UTF-8 text: {exc.reason}") from None


def _csv_table(text: str, delimiter: str, wanted, column_map, required):
    """``text`` read by ``csv`` as a table.  Yields the column index of
    its header, from :func:`_resolve_columns`, then each body row that is
    not blank as a (line, row) pair; a row without every required column
    raises :class:`DataError` naming its line.

    Lines split as in a file opened with ``newline=""``: ``csv`` reads
    them from the UTF-8 bytes of ``text``, a copy at one byte per ASCII
    character where an ``io.StringIO`` would take four.  A delimiter
    ``csv`` rejects raises :class:`ConfigError`; a ``csv.Error``, such as
    a field over ``csv.field_size_limit()``, raises :class:`DataError`
    naming its line, in the header as in the body.
    """
    # A text stream may hold lone surrogates; they pass through unchanged.
    lines = io.TextIOWrapper(
        io.BytesIO(text.encode("utf-8", "surrogatepass")),
        encoding="utf-8", errors="surrogatepass", newline="",
    )
    reader = _csv_reader(lines, delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise DataError("empty input: missing header row")
        index = _resolve_columns(header, wanted, column_map, required)
        yield index
        needed = max(index[c] for c in required)
        for row in reader:
            if "".join(row).strip():
                if len(row) <= needed:
                    raise DataError(f"missing field at line {reader.line_num}")
                yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"malformed CSV at line {reader.line_num}: {exc}") from None


def _csv_reader(lines, delimiter: str):
    """``csv.reader(lines, delimiter=delimiter)``, or :class:`ConfigError`
    for a delimiter ``csv`` rejects: the CLI's ``--delimiter`` rule too."""
    try:
        return csv.reader(lines, delimiter=delimiter)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid delimiter {delimiter!r}: {exc}") from None


def _resolve_columns(header, wanted, column_map, required):
    """The index in ``header`` of each ``wanted`` column, named there as
    ``column_map`` (None for none) says: the one check of a column map.
    An unknown key or two keys on one column raise :class:`ConfigError`,
    a missing required or mapped column :class:`DataError`."""
    column_map = dict(column_map or {})
    if unknown := set(column_map) - set(wanted):
        raise ConfigError(
            f"unknown column_map key(s): {', '.join(sorted(unknown))}; "
            f"expected a subset of {wanted}"
        )
    names = [h.strip() for h in header]
    index = {}
    missing = []
    for canonical in wanted:
        actual = column_map.get(canonical, canonical)
        if actual in names:
            index[canonical] = names.index(actual)
        elif canonical in required or canonical in column_map:
            missing.append(actual)
    if missing:
        raise DataError(f"missing required column(s): {', '.join(missing)}")
    first = {}
    for canonical, i in index.items():
        other = first.setdefault(i, canonical)
        if other != canonical:
            raise ConfigError(f"{other} and {canonical} both map to column {names[i]!r}")
    return index


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
    (condition, user, score) rows are separate votes.  Raises :class:`DataError`
    naming the offending line for malformed rows.
    """
    text = _read_text(source)
    # A stream that only this call holds, as the CLI passes, frees its
    # bytes here rather than keeping them alive while the text is parsed.
    del source
    columns = _plain_columns(text, delimiter, column_map) or _csv_columns(
        text, delimiter, column_map
    )
    del text  # the dataset build needs only the columns
    return RatingDataset(*columns, label=label)


# Bytes that one column's cells, gathered at the width of its longest,
# may take per byte of input; a file whose cells vary more in length takes
# the ``csv`` path.
_GATHER_BOUND = 4


def _plain_columns(text: str, delimiter: str, column_map: dict):
    """The (conditions, users, scores, stimuli) columns of plain ratings
    text, parsed by numpy scans of its UTF-8 bytes, or None if ``text``
    is not plain or one column's gathered cells would take more than
    ``_GATHER_BOUND`` bytes per byte of input.

    Plain text has no ``"``, NUL or bare ``\\r`` (CRLF counts as LF), a
    one-byte delimiter, and body lines with exactly the header's field
    count, non-blank ids and valid scores, none over
    ``csv.field_size_limit()`` bytes.  ``csv`` splits such text at every
    delimiter and line end, as here, so only the speed differs; any
    other text, and every fault, is left to :func:`_csv_columns`.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1 and delimiter.isascii()):
        return None
    # A quoted file is turned away before it costs a CRLF-free copy.
    if delimiter in '"\r\n\0' or any(c in text for c in '"\0'):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if not text or "\r" in text:
        return None
    try:
        raw = text.encode()
    except UnicodeEncodeError:  # a lone surrogate from a text stream
        return None
    data = np.frombuffer(raw, np.uint8)
    # Every cell ends at a delimiter or a newline; a line of F fields is F
    # such ends, the last of them a newline, or the end of the text.
    ends = np.flatnonzero((data == ord(delimiter)) | (data == ord("\n")))
    at_newline = data[ends] == ord("\n")
    if raw[-1] != ord("\n"):
        ends = np.append(ends, len(raw))
        at_newline = np.append(at_newline, True)
    fields = int(np.argmax(at_newline)) + 1
    if ends.size % fields or ends.size == fields:
        return None
    at_newline = at_newline.reshape(-1, fields)
    if not at_newline[:, -1].all() or at_newline[:, :-1].any():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1)).reshape(-1, fields)
    lengths = ends.reshape(-1, fields) - starts
    del data, ends, at_newline
    if lengths.max() > csv.field_size_limit():
        return None
    header = raw[: starts[1, 0] - 1].decode().split(delimiter)
    index = _resolve_columns(
        header, RATING_COLUMNS + (STIMULUS_COLUMN,), column_map, RATING_COLUMNS
    )
    wanted = [index[c] for c in RATING_COLUMNS] + [index.get(STIMULUS_COLUMN)]
    starts, lengths = starts[1:], lengths[1:]
    # A cell is gathered as 8-byte words, at least one.
    words = {c: max(1, -(-int(lengths[:, c].max()) // 8)) for c in wanted if c is not None}
    if 8 * len(starts) * max(words.values()) > _GATHER_BOUND * len(raw):
        return None
    # Entry i of ``word`` is bytes i..i+7 as a big-endian integer, so that
    # keys order as their bytes do; the zero padding covers the words of
    # the last cells.
    raw += bytes(8 * max(words.values()))
    word = np.ndarray((len(raw) - 7,), ">u8", raw, strides=(1,))
    # Entry n keeps the first n bytes of a word and zeroes the rest.
    head = np.array([2**64 - 2 ** (64 - 8 * n) for n in range(9)], np.uint64)

    def column(c, clean):
        """Each distinct ``clean(cell)`` of column ``c`` and each row's
        position among them.  The cells are coded by one ``np.unique`` of
        their words, so ``clean`` runs once per distinct cell."""
        start, length = starts[:, c], lengths[:, c]
        keys = np.empty((len(start), words[c]), np.uint64)
        for i in range(words[c]):
            keys[:, i] = word[start + 8 * i] & head[np.clip(length - 8 * i, 0, 8)]
        if words[c] > 1:
            keys = keys.astype(">u8").view(f"S{8 * words[c]}")
        distinct, codes = np.unique(keys.ravel(), return_inverse=True)
        if words[c] == 1:
            distinct = distinct.astype(">u8").view("S8")
        names: dict = {}
        remap = [names.setdefault(clean(cell.decode()), len(names)) for cell in distinct.tolist()]
        return tuple(names), np.array(remap, np.int32)[codes]

    conditions = column(wanted[0], str.strip)
    users = column(wanted[1], str.strip)
    if "" in conditions[0] or "" in users[0]:
        return None
    try:
        scores, codes = column(wanted[2], lambda cell: _parse_score(cell.strip(), 0))
    except DataError:
        return None
    stimuli = None if wanted[3] is None else column(wanted[3], lambda cell: cell.strip() or None)
    return conditions, users, np.array(scores, np.int64)[codes], stimuli


def _csv_columns(text: str, delimiter: str, column_map: dict):
    """The (conditions, users, scores, stimuli) columns of ratings text
    read row by row with ``csv``: the path for quoted or irregular text.
    Each row is checked as it is read, ids before the score, so the first
    bad row raises naming its line."""
    rows = _csv_table(
        text, delimiter, RATING_COLUMNS + (STIMULUS_COLUMN,), column_map, RATING_COLUMNS
    )
    index = next(rows)
    cond_col, user_col, score_col = (index[c] for c in RATING_COLUMNS)
    stim_col = index.get(STIMULUS_COLUMN)
    conds, users, scores, stims = [], [], [], []
    for line, row in rows:
        cond, user = row[cond_col].strip(), row[user_col].strip()
        if not cond or not user:
            raise DataError(f"empty condition_id or user_id at line {line}")
        conds.append(cond)
        users.append(user)
        scores.append(_parse_score(row[score_col].strip(), line))
        if stim_col is not None:
            stims.append(row[stim_col].strip() or None if len(row) > stim_col else None)
    if not conds:
        raise DataError("no rating rows found")
    stimuli = None if stim_col is None else _codes(stims)
    return _codes(conds), _codes(users), np.array(scores, np.int64), stimuli


def load_reference(
    source,
    delimiter: str = ",",
    column_map: dict[str, str] | None = None,
) -> ReferenceMos:
    """Load a per-condition reference MOS table.

    Duplicate condition ids and MOS values outside [1, 5] are errors.
    """
    rows = _csv_table(
        _read_text(source), delimiter, REFERENCE_COLUMNS, column_map, REFERENCE_COLUMNS
    )
    index = next(rows)
    mos: dict[str, float] = {}
    for line, row in rows:
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
        if not SCORE_MIN <= value <= SCORE_MAX:
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
    (requires stimulus ids).  Each group's median and quartiles come from
    its per-score vote counts, by numpy's linear rule (interpolation between
    order statistics).  When a group's IQR is zero the literal rule would
    delete the whole group, so the criterion degenerates to removing only
    votes different from the median.

    Returns the cleaned dataset and the number of votes removed.  A single
    pass is applied; re-running on the cleaned output can remove further
    votes because group medians and IQRs shift.
    """
    if not 0 < k < math.inf:
        raise ConfigError(f"k must be positive and finite, got {k}")
    if scope == "condition":
        groups = ds._row_conds[ds._vote_rows]
    elif scope == "stimulus":
        if ds.stimuli is None:
            raise DataError("per-stimulus outlier removal needs stimulus ids")
        groups = ds._vote_stims
    else:
        raise ConfigError(f"scope must be 'condition' or 'stimulus', got {scope!r}")

    # Whether a vote is kept depends only on its (group, score) cell.  From
    # running counts per cell, a group's i-th smallest vote is SCORE_MIN plus
    # the number of scores whose running count is <= i; votes are integers
    # and positions multiples of 1/4, so the quartiles are exact.
    cell = groups * NUM_SCORES + (ds._vote_scores - SCORE_MIN)
    running = np.bincount(cell, minlength=NUM_SCORES * (groups.max() + 1))
    running = running.reshape(-1, NUM_SCORES).cumsum(axis=1)
    position = (running[:, -1:] - 1) * np.array([0.25, 0.5, 0.75])
    below = np.floor(position)
    lo, hi = (SCORE_MIN + (running[:, None] <= below[..., None] + i).sum(axis=-1) for i in (0, 1))
    q25, median, q75 = (lo + (hi - lo) * (position - below)).T[..., None]
    iqr = q75 - q25
    score = np.arange(SCORE_MIN, SCORE_MAX + 1)
    keep = np.where(iqr == 0.0, score == median, np.abs(score - median) < k * iqr).ravel()[cell]

    kept = int(keep.sum())
    if kept == ds.n_votes:
        return ds, 0
    if not kept:
        raise DataError("outlier removal deleted every vote")
    rows = ds._vote_rows[keep]
    return RatingDataset(
        (ds.conditions, ds._row_conds[rows]),
        (ds.users, ds._user_rows[rows]),
        ds._vote_scores[keep],
        None if ds.stimuli is None else (ds.stimuli, ds._vote_stims[keep]),
        label=ds.label,
    ), ds.n_votes - kept
