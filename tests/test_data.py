"""Ingestion, dataset layout and cleaning tests."""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Vote, load_published, make_dataset, published_paths, raters, votes
from qvotes import (
    ConfigError,
    DataError,
    QvotesError,
    RatingDataset,
    ReferenceMos,
    load_ratings,
    load_reference,
    reference_coverage,
    remove_outliers_iqr,
)
from qvotes import data
from qvotes.cli import main
from qvotes.data import RATING_COLUMNS, _parse_score, _plain_columns


def ratings_csv(text: str) -> io.StringIO:
    return io.StringIO(text)


def vote_counts(ds: RatingDataset) -> collections.Counter:
    """How often each (condition, user, score) triple occurs among the votes."""
    return collections.Counter((v.condition_id, v.user_id, v.score) for v in votes(ds))


class TestLoadRatings:
    def test_counts_aggregate(self):
        ds = load_ratings(
            ratings_csv(
                "condition_id,user_id,score\n"
                "c1,u1,5\n"
                "c1,u1,5\n"
                "c1,u2,1\n"
            )
        )
        assert vote_counts(ds) == {("c1", "u1", 5): 2, ("c1", "u2", 1): 1}
        assert ds.n_votes == 3
        assert ds.conditions == ("c1",)
        assert ds.users == ("u1", "u2")

    def test_score_out_of_range_names_line(self):
        with pytest.raises(DataError, match="score out of range at line 3"):
            load_ratings(
                ratings_csv("condition_id,user_id,score\nc1,u1,4\nc1,u2,6\n")
            )

    def test_non_integer_score(self):
        with pytest.raises(DataError, match="non-integer score .* at line 2"):
            load_ratings(ratings_csv("condition_id,user_id,score\nc1,u1,4.5\n"))

    def test_integral_float_score_accepted(self):
        ds = load_ratings(ratings_csv("condition_id,user_id,score\nc1,u1,4.0\n"))
        assert vote_counts(ds)[("c1", "u1", 4)] == 1

    def test_missing_field_names_line(self):
        with pytest.raises(DataError, match="line 3"):
            load_ratings(ratings_csv("condition_id,user_id,score\nc1,u1,4\nc1,u2\n"))

    def test_empty_token_rejected(self):
        with pytest.raises(DataError, match="line 2"):
            load_ratings(ratings_csv("condition_id,user_id,score\n,u1,4\n"))

    def test_empty_input(self):
        with pytest.raises(DataError, match="missing header"):
            load_ratings(ratings_csv(""))

    def test_header_only(self):
        with pytest.raises(DataError, match="no rating rows"):
            load_ratings(ratings_csv("condition_id,user_id,score\n"))

    def test_missing_column(self):
        with pytest.raises(DataError, match="missing required column"):
            load_ratings(ratings_csv("condition,user_id,score\nc1,u1,4\n"))

    def test_extra_columns_ignored(self):
        ds = load_ratings(
            ratings_csv("condition_id,platform,user_id,score\nc1,mturk,u1,4\n")
        )
        assert vote_counts(ds)[("c1", "u1", 4)] == 1

    def test_column_map(self):
        ds = load_ratings(
            ratings_csv("cond,worker,vote\nc1,u1,4\n"),
            column_map={"condition_id": "cond", "user_id": "worker", "score": "vote"},
        )
        assert vote_counts(ds)[("c1", "u1", 4)] == 1

    def test_column_map_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown column_map key"):
            load_ratings(ratings_csv("a,b,c\n"), column_map={"who": "a"})

    @pytest.mark.parametrize("text", [
        "condition_id,user_id,score\nc1,u1,4\nc2,u2,3\n",
        '"condition_id",user_id,score\nc1,u1,4\nc2,u2,3\n',  # the csv path
    ])
    def test_column_map_two_keys_on_one_column(self, text):
        with pytest.raises(ConfigError, match="condition_id and user_id both map to column"):
            load_ratings(ratings_csv(text), column_map={"user_id": "condition_id"})

    @pytest.mark.parametrize("text", [
        "condition_id,user_id,score\nc1,u1,4\n",
        '"condition_id",user_id,score\nc1,u1,4\n',  # the csv path
    ])
    def test_column_map_names_a_required_column(self, text):
        with pytest.raises(DataError, match=r"^missing required column\(s\): stim$"):
            load_ratings(ratings_csv(text), column_map={"stimulus_id": "stim"})

    def test_alternate_delimiter(self):
        ds = load_ratings(
            ratings_csv("condition_id;user_id;score\nc1;u1;3\n"), delimiter=";"
        )
        assert vote_counts(ds)[("c1", "u1", 3)] == 1

    @pytest.mark.parametrize("delimiter", [",,", ""])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(ConfigError, match="delimiter"):
            load_ratings(ratings_csv("condition_id,user_id,score\nc1,u1,4\n"), delimiter=delimiter)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"condition_id,user_id,score\nc1,u\xff,4\n")
        with pytest.raises(DataError, match="latin1.csv is not UTF-8"):
            load_ratings(path)
        with pytest.raises(DataError, match="not UTF-8"):
            load_ratings(io.BytesIO(path.read_bytes()))

    def test_binary_stream(self):
        ds = load_ratings(io.BytesIO(b"condition_id,user_id,score\nc1,u1,4\n"))
        assert vote_counts(ds)[("c1", "u1", 4)] == 1

    def test_path_input(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("condition_id,user_id,score\nc1,u1,4\n")
        assert load_ratings(path).n_votes == 1
        assert load_ratings(str(path)).n_votes == 1

    def test_stimulus_column(self):
        ds = load_ratings(
            ratings_csv(
                "condition_id,user_id,score,stimulus_id\nc1,u1,4,f1\nc1,u2,3,f2\n"
            )
        )
        assert ds.stimuli == ("f1", "f2")

    def test_stimulus_all_or_none(self):
        with pytest.raises(DataError, match="stimulus_id"):
            load_ratings(
                ratings_csv(
                    "condition_id,user_id,score,stimulus_id\nc1,u1,4,f1\nc1,u2,3,\n"
                )
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_row_order_has_no_effect_on_counts(self, seed):
        rng = np.random.default_rng(seed)
        rows = [
            (f"c{rng.integers(3)}", f"u{rng.integers(4)}", int(rng.integers(1, 6)))
            for _ in range(25)
        ]
        shuffled = list(rows)
        rng.shuffle(shuffled)
        ds, again = make_dataset(rows), make_dataset(shuffled)
        for attr in ("_vote_scores", "_vote_rows", "_user_means", "_score_sums"):
            got, want = getattr(again, attr), getattr(ds, attr)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), attr


BOM = "\ufeff"


def bom_source(kind, text, tmp_path):
    """``text`` behind a UTF-8 byte-order mark, as a path, a binary stream
    or a text stream."""
    raw = (BOM + text).encode("utf-8")
    if kind == "path":
        path = tmp_path / "bom.csv"
        path.write_bytes(raw)
        return path
    return io.BytesIO(raw) if kind == "bytes" else io.StringIO(BOM + text)


class TestByteOrderMark:
    @pytest.mark.parametrize("kind", ["path", "bytes", "text"])
    def test_ratings(self, kind, tmp_path):
        text = "condition_id,user_id,score\nc1,u1,4\nc1,u2,3\n"
        ds = load_ratings(bom_source(kind, text, tmp_path))
        assert votes(ds) == votes(load_ratings(ratings_csv(text)))

    @pytest.mark.parametrize("kind", ["path", "bytes", "text"])
    def test_reference(self, kind, tmp_path):
        ref = load_reference(bom_source(kind, "condition_id,mos\nc1,3.2\n", tmp_path))
        assert ref.mos == {"c1": 3.2}

    @pytest.mark.parametrize("kind", ["path", "bytes", "text"])
    def test_quoted_first_column(self, kind, tmp_path):
        text = '"condition_id",user_id,score\nc1,u1,4\n'
        assert load_ratings(bom_source(kind, text, tmp_path)).conditions == ("c1",)


# -- row-by-row reference loader ------------------------------------------------

COLUMNS = ("condition_id", "user_id", "score", "stimulus_id", "note")


def load_ratings_by_row(text: str):
    """``load_ratings`` as one loop over the rows, checking each row in
    turn (blank, missing field, empty id, score), then the stimulus ids
    (on every vote or on none), on plain tuples rather than the loader's
    column code: the reference for both the numpy byte scan and the
    ``csv`` path.  Returns (conditions, users, stimuli, votes), with the
    ids in sorted order and the votes as (condition, user, score,
    stimulus) tuples, sorted."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    cond_col, user_col, score_col = (header.index(c) for c in COLUMNS[:3])
    stim_col = header.index("stimulus_id") if "stimulus_id" in header else None
    needed = max(cond_col, user_col, score_col)
    records = []
    for row in reader:
        if not "".join(row).strip():
            continue
        if len(row) <= needed:
            raise DataError(f"missing field at line {reader.line_num}")
        cond = row[cond_col].strip()
        user = row[user_col].strip()
        if not cond or not user:
            raise DataError(f"empty condition_id or user_id at line {reader.line_num}")
        score = _parse_score(row[score_col].strip(), reader.line_num)
        stim = row[stim_col].strip() or None if stim_col is not None and len(row) > stim_col else None
        records.append((cond, user, score, stim))
    if not records:
        raise DataError("no rating rows found")
    with_stim = sum(r[3] is not None for r in records)
    if 0 < with_stim < len(records):
        raise DataError(
            "stimulus_id must be present on every vote or on none "
            f"(found {with_stim} of {len(records)})"
        )
    return (
        tuple(sorted({r[0] for r in records})),
        tuple(sorted({r[1] for r in records})),
        tuple(sorted({r[3] for r in records})) if with_stim else None,
        sorted(records),
    )


def padded(values):
    return st.sampled_from([v for x in values for v in (x, f" {x}", f"{x}\t ")])


QUOTED_IDS = ["a,b", "two\nlines", 'say "hi"']


@st.composite
def rating_files(draw):
    """CSV text with shuffled columns, an optional stimulus column (full or
    partly empty) and an optional extra column; blank, whitespace-only and
    all-empty rows; padded and quoted cells; and up to two bad rows, where
    a row with an empty id may also have a bad score."""
    stim_mode = draw(st.sampled_from(["absent", "full", "partly empty"]))
    columns = list(COLUMNS[:3]) + (["stimulus_id"] if stim_mode != "absent" else [])
    columns += ["note"] if draw(st.booleans()) else []
    columns = draw(st.permutations(columns))
    conds = padded(["c1", "c2", "c3"]) | st.sampled_from(QUOTED_IDS)
    users = padded(["u1", "u2", "u3", "u4"]) | st.sampled_from(QUOTED_IDS)
    scores = padded(["1", "2", "3", "4", "5", "4.0", "5.0"])
    stims = padded(["s1", "s2"]) | st.sampled_from(QUOTED_IDS)
    blank_rows = st.sampled_from(
        [[], [" "], ["\t", ""], [""] * len(columns), [" "] * len(columns)]
    )

    def vote(stim_blank):
        cells = {
            "condition_id": draw(conds),
            "user_id": draw(users),
            "score": draw(scores),
            "stimulus_id": " " if stim_blank else draw(stims),
            "note": draw(st.sampled_from(["", "x", " ", "y,z"])),
        }
        return [cells[c] for c in columns]

    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            rows.append(draw(blank_rows))
        else:
            rows.append(vote(stim_mode == "partly empty" and draw(st.integers(0, 5)) == 0))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        bad = draw(st.sampled_from(["short", "empty condition", "empty user", "4.5", "0", "x"]))
        row = vote(False)
        if bad == "short":
            row = row[: draw(st.integers(1, max(columns.index(c) for c in COLUMNS[:3])))]
        elif bad.startswith("empty"):
            field = "condition_id" if bad == "empty condition" else "user_id"
            row[columns.index(field)] = draw(st.sampled_from(["", "  "]))
            if draw(st.booleans()):
                row[columns.index("score")] = "x"
        else:
            row[columns.index("score")] = bad
        rows.insert(draw(st.integers(0, len(rows))), row)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


class TestLoaderOracle:
    @given(text=rating_files())
    @settings(max_examples=400, deadline=None)
    def test_matches_row_by_row_loader(self, text):
        try:
            want = load_ratings_by_row(text)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_ratings(ratings_csv(text))
            assert str(got.value) == str(exc)
            return
        ds = load_ratings(ratings_csv(text))
        assert (ds.conditions, ds.users, ds.stimuli, sorted(votes(ds))) == want


def dataset_state(ds):
    """Everything a loaded dataset holds: its names, its sorted votes and
    its per-vote arrays as (dtype, bytes)."""
    arrays = (ds._vote_scores, ds._vote_rows, ds._vote_stims)
    return (ds.conditions, ds.users, ds.stimuli, sorted(votes(ds)),
            [None if a is None else (a.dtype.str, a.tobytes()) for a in arrays])


def load_outcome(text, **kwargs):
    """The state of ``load_ratings`` on ``text``, or its error message."""
    try:
        return dataset_state(load_ratings(ratings_csv(text), **kwargs))
    except DataError as exc:
        return f"DataError: {exc}"


@contextlib.contextmanager
def fast_path_results():
    """Patches ``_plain_columns`` to record whether it returned columns."""
    results = []

    def spy(*args):
        columns = _plain_columns(*args)
        results.append(columns is not None)
        return columns

    with mock.patch.object(data, "_plain_columns", spy):
        yield results


# Ids that are padded, non-ASCII, exactly 8 or 9 UTF-8 bytes long, or equal
# once stripped; scores in every accepted spelling.
PLAIN_CONDITIONS = ["c1", " c1", "c1 ", "cond0008", "cond00009", "é234567", "é2345678", "ü"]
PLAIN_USERS = ["u1", "u1  ", "user0008", "user00009", "wörker", " ß "]
PLAIN_SCORES = ["1", "2", "3", "4", "5", "4.0", " 5", "3 ", "2.00000000"]
PLAIN_STIMULI = ["s1", " s1", "stim0008", "stim00009", "ß"]
PLAIN_FAULTS = ["short row", "long row", "blank id", "blank line", "4.5", "0", "x", "quote", "bare CR"]


@st.composite
def plain_rating_files(draw):
    """(text, delimiter, column_map, plain): plain ratings text with
    shuffled columns, an optional stimulus column (full, blank or partly
    blank), an optional extra column, LF or CRLF line ends and an optional
    final newline; ``plain`` is False when one fault has been put in."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    columns = list(RATING_COLUMNS)
    stim_mode = draw(st.sampled_from(["absent", "full", "blank", "partly blank"]))
    columns += [] if stim_mode == "absent" else ["stimulus_id"]
    columns += ["note"] if draw(st.booleans()) else []
    columns = draw(st.permutations(columns))
    column_map = {"user_id": "worker"} if draw(st.booleans()) else {}
    header = [column_map.get(c, c) for c in columns]

    def cell(column, i):
        if column == "stimulus_id":
            if stim_mode == "blank" or (stim_mode == "partly blank" and i == 0):
                return draw(st.sampled_from(["", " "]))
            return draw(st.sampled_from(PLAIN_STIMULI))
        pool = {"condition_id": PLAIN_CONDITIONS, "user_id": PLAIN_USERS,
                "score": PLAIN_SCORES, "note": ["", "x", "a note"]}[column]
        return draw(st.sampled_from(pool))

    rows = [[cell(c, i) for c in columns] for i in range(draw(st.integers(1, 15)))]
    plain = True
    if draw(st.integers(0, 3)) == 0:
        plain = False
        fault = draw(st.sampled_from(PLAIN_FAULTS))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "short row":
            row.pop()
        elif fault == "long row":
            row.append("")
        elif fault == "blank id":
            row[columns.index(draw(st.sampled_from(["condition_id", "user_id"])))] = " "
        elif fault == "blank line":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif fault in ("quote", "bare CR"):
            row[0] += '"' if fault == "quote" else "\r"
        else:
            row[columns.index("score")] = fault
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(delimiter.join(row) for row in [header, *rows])
    text += newline if draw(st.booleans()) else ""
    return text, delimiter, column_map, plain


class TestPlainFastPath:
    """``_plain_columns`` against the ``csv`` path as the oracle: each file
    loads to the same dataset, or fails with the same message, both ways."""

    @given(case=plain_rating_files())
    @settings(max_examples=400, deadline=None)
    def test_matches_csv_path(self, case):
        text, delimiter, column_map, plain = case
        with fast_path_results() as ran:
            got = load_outcome(text, delimiter=delimiter, column_map=column_map)
        with mock.patch.object(data, "_plain_columns", lambda *args: None):
            want = load_outcome(text, delimiter=delimiter, column_map=column_map)
        assert got == want
        if plain:
            assert ran == [True]

    @pytest.mark.parametrize("text", [
        'condition_id,user_id,score\n"c1",u1,4\n',
        "condition_id,user_id,score\nc1,u1,4\n\nc1,u2,3\n",
        "condition_id,user_id,score\nc1,u1,4\rc1,u2,3\n",
        "condition_id,user_id,score\nc1,u\0,4\n",
        "condition_id,user_id,score\n",
        "",
    ])
    def test_irregular_text_takes_the_csv_path(self, text):
        assert _plain_columns(text, ",", {}) is None

    def test_gather_is_bounded_by_the_input(self):
        # One long id would make every row's key as wide as it is.
        rows = [f"c{i % 7},u{i % 5},{1 + i % 5}" for i in range(200)] + ["c" * 3000 + ",u1,4"]
        text = "condition_id,user_id,score\n" + "\n".join(rows) + "\n"
        assert _plain_columns(text, ",", {}) is None
        assert load_ratings(ratings_csv(text)).conditions[-1] == "c" * 3000
        assert _plain_columns(text.replace("c" * 3000, "c" * 20), ",", {}) is not None

    def test_row_by_row_oracle_reaches_the_fast_path(self):
        text = "condition_id,user_id,score,stimulus_id\nc1, u1,4.0,f1\nc2,u2 ,3,f2\n"
        with fast_path_results() as ran:
            ds = load_ratings(ratings_csv(text))
        assert ran == [True]
        assert (ds.conditions, ds.users, ds.stimuli, sorted(votes(ds))) == load_ratings_by_row(text)


LIMIT = csv.field_size_limit()


class TestCsvErrors:
    """A ``csv.Error`` is a :class:`DataError` naming its line."""

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_ratings_field_over_the_limit(self, quote):
        big = quote + "x" * (LIMIT + 1) + quote
        text = f"condition_id,user_id,score,note\nc1,u1,4,\nc1,u2,3,{big}\n"
        with pytest.raises(DataError, match=r"at line 3: field larger than field limit"):
            load_ratings(ratings_csv(text))

    def test_reference_field_over_the_limit(self):
        text = f"condition_id,mos\nc1,3.0\nc2,{'1' * (LIMIT + 1)}\n"
        with pytest.raises(DataError, match=r"at line 3: field larger than field limit"):
            load_reference(ratings_csv(text))

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_ratings_header_field_over_the_limit(self, quote):
        big = quote + "x" * (LIMIT + 1) + quote
        text = f"condition_id,user_id,score,{big}\nc1,u1,4,\n"
        with pytest.raises(DataError, match=r"at line 1: field larger than field limit"):
            load_ratings(ratings_csv(text))

    def test_reference_header_field_over_the_limit(self):
        text = f"condition_id,mos,{'x' * (LIMIT + 1)}\nc1,3.0,\n"
        with pytest.raises(DataError, match=r"at line 1: field larger than field limit"):
            load_reference(ratings_csv(text))


def line_end_sources(text, tmp_path):
    path = tmp_path / "lines.csv"
    path.write_bytes(text.encode())
    return [path, io.BytesIO(text.encode()), io.StringIO(text)]


class TestLineEnds:
    """A path, a binary stream and a text stream split lines alike, at LF,
    CRLF and a bare CR, as a file opened with ``newline=""`` does."""

    def test_ratings(self, tmp_path):
        text = "condition_id,user_id,score\nc1,u1,4\rc1,u2,5\r\nc2,u1,3\n"
        states = [dataset_state(load_ratings(s)) for s in line_end_sources(text, tmp_path)]
        want = dataset_state(load_ratings(ratings_csv("condition_id,user_id,score\nc1,u1,4\nc1,u2,5\nc2,u1,3\n")))
        assert states == [want] * 3

    def test_ratings_error_line(self, tmp_path):
        text = "condition_id,user_id,score\rc1,u1,4\rc1,u2,9\r"
        for source in line_end_sources(text, tmp_path):
            with pytest.raises(DataError, match="score out of range at line 3"):
                load_ratings(source)

    def test_quoted_line_ends_kept(self, tmp_path):
        # Untranslated, as in a file opened with newline="".
        text = 'condition_id,user_id,score\n"c\r\n1",u1,4\n"c\r2",u2,5\n'
        for source in line_end_sources(text, tmp_path):
            assert load_ratings(source).conditions == ("c\r\n1", "c\r2")

    def test_reference(self, tmp_path):
        text = "condition_id,mos\rc1,3.0\r\nc2,4.5\r"
        refs = [load_reference(s).mos for s in line_end_sources(text, tmp_path)]
        assert refs == [{"c1": 3.0, "c2": 4.5}] * 3


FUZZ_TOKENS = ['"', ",", ";", "\t", "\r", "\n", "\0", "\ufeff", "a", "é", "1", "4", "5.0", " "]
FUZZ_HEADERS = ["", "condition_id,user_id,score\n", "condition_id;user_id;score;stimulus_id\n",
                "condition_id,mos\n", "condition_id\tmos\n"]


class TestLoaderFuzz:
    """Random text, with csv's field limit lowered to 8 characters so that
    small inputs reach it, fails only with a :class:`QvotesError`, and the
    CLI with exit code 1 or 2."""

    @given(
        header=st.sampled_from(FUZZ_HEADERS),
        body=st.lists(st.sampled_from(FUZZ_TOKENS), max_size=60).map("".join),
        delimiter=st.sampled_from([",", ";", "\t"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_only_qvotes_errors_escape(self, header, body, delimiter):
        text = header + body
        old_limit = csv.field_size_limit(8)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "fuzz.csv"
                path.write_bytes(text.encode())
                good = Path(tmp) / "good.csv"
                good.write_text(f"condition_id{delimiter}user_id{delimiter}score\nc1{delimiter}u1{delimiter}4\n")
                for source in (path, io.StringIO(text)):
                    for load in (load_ratings, load_reference):
                        if isinstance(source, io.StringIO):
                            source.seek(0)
                        try:
                            load(source, delimiter=delimiter)
                        except QvotesError:
                            pass
                quiet = contextlib.redirect_stdout(io.StringIO())
                with quiet, contextlib.redirect_stderr(io.StringIO()):
                    codes = [
                        main(["validate", str(path), "--delimiter", delimiter]),
                        main(["validate", str(good), "--ref", str(path), "--delimiter", delimiter]),
                    ]
        finally:
            csv.field_size_limit(old_limit)
        assert set(codes) <= {0, 1, 2}


class TestConditionCaches:
    @given(rows=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(1, 5)), min_size=1, max_size=80
    ))
    @settings(max_examples=80, deadline=None)
    def test_grouped_build_matches_per_condition_scan(self, rows):
        labelled = [(f"c{c}", f"u{u}", s) for c, u, s in rows]
        ds = make_dataset(labelled)
        for j, cond in enumerate(ds.conditions):
            # the condition's votes as (user index, score)
            votes = [(ds.users.index(u), s) for c, u, s in labelled if c == cond]
            user_rows = sorted({g for g, _ in votes})
            means = [np.mean([s for h, s in votes if h == g]) for g in user_rows]
            a, b = ds._row_bounds[j : j + 2]
            assert ds._user_rows[a:b].tolist() == user_rows
            assert np.array_equal(ds._user_means[a:b], means)
            # the votes a run resamples, ordered by (user, score), each on
            # one of the condition's rows
            v = slice(*ds._vote_bounds[j : j + 2])
            vote_rows, scores = ds._vote_rows[v], ds._vote_scores[v]
            assert np.all((a <= vote_rows) & (vote_rows < b))
            assert list(zip(ds._user_rows[vote_rows].tolist(), scores.tolist())) == sorted(votes)
            assert ds._cond_totals[j] == len(votes)
            assert ds._score_sums[j] == sum(s for _, s in votes)
        assert ds._vote_bounds[-1] == len(labelled)


class TestLoadReference:
    def test_basic(self):
        ref = load_reference(ratings_csv("condition_id,mos\nc1,3.2\nc2,4.5\n"))
        assert len(ref) == 2
        assert ref["c1"] == pytest.approx(3.2)

    def test_out_of_range(self):
        with pytest.raises(DataError, match="mos out of range at line 2"):
            load_reference(ratings_csv("condition_id,mos\nc1,5.7\n"))

    def test_duplicate(self):
        with pytest.raises(DataError, match="duplicate condition_id 'c1' at line 3"):
            load_reference(ratings_csv("condition_id,mos\nc1,3.0\nc1,3.1\n"))

    def test_non_numeric(self):
        with pytest.raises(DataError, match="non-numeric mos"):
            load_reference(ratings_csv("condition_id,mos\nc1,good\n"))

    @pytest.mark.parametrize("text, message", [
        ("condition_id,mos\nc1,3.0\n ,3.1\n", "empty condition_id at line 3"),
        ("condition_id,mos\n", "no reference rows found"),
    ])
    def test_empty_condition_or_no_rows(self, text, message):
        with pytest.raises(DataError, match=message):
            load_reference(ratings_csv(text))

    def test_hand_built_table_is_checked(self):
        with pytest.raises(DataError, match=r"reference MOS for 'c2' outside \[1, 5\]: 5.5"):
            ReferenceMos({"c1": 3.0, "c2": 5.5})

    def test_delimiter_must_be_one_character(self):
        with pytest.raises(ConfigError, match="delimiter"):
            load_reference(ratings_csv("condition_id,mos\nc1,3.2\n"), delimiter=";;")

    def test_column_map_two_keys_on_one_column(self):
        with pytest.raises(ConfigError, match="condition_id and mos both map to column"):
            load_reference(
                ratings_csv("condition_id,mos\nc1,3.2\n"), column_map={"mos": "condition_id"}
            )

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_bytes(b"condition_id,mos\nc\xff1,3.2\n")
        with pytest.raises(DataError, match="ref.csv is not UTF-8"):
            load_reference(path)

    def test_coverage(self):
        ds = make_dataset([("c1", "u1", 3), ("c2", "u1", 4)])
        ref = load_reference(ratings_csv("condition_id,mos\nc2,4.0\nc9,2.0\n"))
        shared, ref_only, ds_only = reference_coverage(ref, ds)
        assert shared == ("c2",)
        assert ref_only == ("c9",)
        assert ds_only == ("c1",)

    def test_coverage_sorts_reference_only_ids(self):
        # The reference file's row order must not show.
        ds = make_dataset([("c1", "u1", 3), ("c2", "u1", 4)])
        ref = load_reference(ratings_csv("condition_id,mos\nc9,2.0\nc2,4.0\nc8,3.0\n"))
        assert reference_coverage(ref, ds) == (("c2",), ("c8", "c9"), ("c1",))


def user_shares(ds: RatingDataset, condition_id: str) -> dict[str, float]:
    """P(user | condition) as a uniform draw over the condition's votes
    gives it: each rater's share of them, read from the vote arrays."""
    users = raters(ds, condition_id)
    j = ds.conditions.index(condition_id)
    rows = ds._vote_rows[slice(*ds._vote_bounds[j : j + 2])] - ds._row_bounds[j]
    counts = np.bincount(rows, minlength=len(users))
    return dict(zip(users, (counts / counts.sum()).tolist()))


def score_dist(ds: RatingDataset, condition_id: str, user_id: str) -> np.ndarray:
    """P(score | condition, user) read from the vote arrays."""
    j = ds.conditions.index(condition_id)
    v = slice(*ds._vote_bounds[j : j + 2])
    mine = ds._user_rows[ds._vote_rows[v]] == ds.users.index(user_id)
    return np.bincount(ds._vote_scores[v][mine] - 1, minlength=5) / mine.sum()


class TestEmpiricalDistributions:
    """The paper's two-stage view, a user and then one of their scores,
    as the sorted votes give it to a uniform draw."""

    def test_user_prob(self):
        ds = make_dataset(
            [("x", "u1", 3)] * 3 + [("x", "u2", 4)]
        )
        assert user_shares(ds, "x") == {"u1": 0.75, "u2": 0.25}

    def test_user_prob_single_user(self):
        ds = make_dataset([("x", "u1", 2), ("x", "u1", 4)])
        assert user_shares(ds, "x") == {"u1": 1.0}

    def test_user_prob_uniform(self):
        rows = [("x", f"u{i}", 3) for i in range(4) for _ in range(2)]
        probs = user_shares(make_dataset(rows), "x")
        assert len(probs) == 4 and all(p == 0.25 for p in probs.values())

    def test_score_dist(self):
        ds = make_dataset([("x", "u1", 5), ("x", "u2", 1), ("x", "u1", 5), ("x", "u1", 4)])
        dist = score_dist(ds, "x", "u1")
        assert np.allclose(dist, [0, 0, 0, 1 / 3, 2 / 3])
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_score_dist_single_vote(self):
        ds = make_dataset([("x", "u1", 2)])
        assert np.allclose(score_dist(ds, "x", "u1"), [0, 1, 0, 0, 0])

    def test_score_dist_user_never_rated(self):
        # u2's vote on y is no part of x's votes
        ds = make_dataset([("x", "u1", 2), ("y", "u2", 3)])
        assert user_shares(ds, "x") == {"u1": 1.0}
        assert user_shares(ds, "y") == {"u2": 1.0}


def scores_of(ds: RatingDataset, condition_id: str) -> list[int]:
    """The scores of one condition's votes, in the order the dataset holds them."""
    return [v.score for v in votes(ds) if v.condition_id == condition_id]


class TestOutlierRemoval:
    def test_zero_iqr_degenerate_rule(self):
        # median 3, IQR 0: only the votes equal to the median survive
        votes = [1, 3, 3, 3, 3, 3, 3, 5]
        ds = make_dataset([("x", f"u{i}", v) for i, v in enumerate(votes)])
        cleaned, removed = remove_outliers_iqr(ds)
        assert removed == 2
        assert sorted(scores_of(cleaned, "x")) == [3] * 6

    def test_wide_spread_nothing_removed(self):
        # median 3, IQR 2, threshold 6: max distance is 2
        ds = make_dataset([("x", f"u{i}", v) for i, v in enumerate([1, 2, 3, 4, 5])])
        cleaned, removed = remove_outliers_iqr(ds)
        assert removed == 0
        assert cleaned is ds

    def test_groups_are_independent(self):
        rows = [("a", f"u{i}", v) for i, v in enumerate([1, 3, 3, 3, 3, 3, 3, 5])]
        rows += [("b", f"u{i}", v) for i, v in enumerate([1, 2, 3, 4, 5])]
        _, removed = remove_outliers_iqr(make_dataset(rows))
        assert removed == 2

    def test_per_stimulus_scope(self):
        rows = [("x", f"u{i}", v, "f1") for i, v in enumerate([1, 3, 3, 3, 3, 3, 3, 5])]
        rows += [("x", f"w{i}", v, "f2") for i, v in enumerate([1, 2, 3, 4, 5])]
        _, removed = remove_outliers_iqr(make_dataset(rows), scope="stimulus")
        assert removed == 2
        # pooled per condition the 13 votes collapse to IQR 0 and the
        # degenerate rule strips all six non-median votes instead
        _, removed_pooled = remove_outliers_iqr(make_dataset(rows), scope="condition")
        assert removed_pooled == 6

    def test_per_stimulus_scope_splits_tied_votes(self):
        # (x, u0, 1) is cast on f2, among its equals, and on f1, where it is
        # the one outlier: only f1's copy goes, whichever row comes first.
        rows = [("x", "u0", 1, "f2")] + [("x", f"w{i}", 1, "f2") for i in range(1, 5)]
        rows += [("x", "u0", 1, "f1")] + [("x", f"u{i}", 5, "f1") for i in range(1, 5)]
        for ordered in (rows, rows[::-1]):
            cleaned, removed = remove_outliers_iqr(make_dataset(ordered), scope="stimulus")
            assert removed == 1
            want = sorted(Vote(*row) for row in rows if row != ("x", "u0", 1, "f1"))
            assert votes(cleaned) == want

    def test_per_stimulus_needs_stimuli(self):
        ds = make_dataset([("x", "u1", 3)])
        with pytest.raises(DataError, match="stimulus"):
            remove_outliers_iqr(ds, scope="stimulus")

    def test_invalid_k_and_scope(self):
        ds = make_dataset([("x", "u1", 3)])
        # With k=nan no vote was ever an outlier, silently.
        for k in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="k must be positive and finite"):
                remove_outliers_iqr(ds, k=k)
        with pytest.raises(ConfigError):
            remove_outliers_iqr(ds, scope="file")

    def test_second_pass_can_remove_more(self):
        # One pass is the contract: after removing the 4 (median 1, IQR 1),
        # the surviving {1,1,1,2} has IQR 0 and a second pass drops the 2.
        votes = [1, 1, 1, 2, 4]
        ds = make_dataset([("x", f"u{i}", v) for i, v in enumerate(votes)])
        once, removed_first = remove_outliers_iqr(ds)
        assert removed_first == 1
        assert sorted(scores_of(once, "x")) == [1, 1, 1, 2]
        twice, removed_second = remove_outliers_iqr(once)
        assert removed_second == 1
        assert sorted(scores_of(twice, "x")) == [1, 1, 1]

    @given(
        votes=st.lists(st.integers(1, 5), min_size=2, max_size=30),
        k=st.sampled_from([1.5, 3.0, 5.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_median_value_survives(self, votes, k):
        ds = make_dataset([("x", f"u{i}", v) for i, v in enumerate(votes)])
        median = float(np.median(votes))
        cleaned, _ = remove_outliers_iqr(ds, k=k)
        kept = scores_of(cleaned, "x")
        at_median = [v for v in votes if v == median]
        # votes sitting exactly on the median are never outliers
        assert sum(1 for v in kept if v == median) == len(at_median)

    def test_label_preserved(self):
        votes = [1, 3, 3, 3, 3, 3, 3, 5]
        ds = make_dataset([("x", f"u{i}", v) for i, v in enumerate(votes)], label="mine")
        cleaned, _ = remove_outliers_iqr(ds)
        assert cleaned.label == "mine"


def outliers_by_group_scan(ds, k, scope):
    """remove_outliers_iqr as one scan of the votes per group, the groups
    listed from ``votes(ds)`` and the survivors loaded again as CSV: the
    reference for the grouped implementation."""
    listed = votes(ds)
    field = "condition_id" if scope == "condition" else "stimulus_id"
    groups = collections.defaultdict(list)
    for i, vote in enumerate(listed):
        groups[getattr(vote, field)].append(i)
    keep = np.ones(len(listed), dtype=bool)
    for members in groups.values():
        sel = np.array(members)
        scores = np.array([listed[i].score for i in members], dtype=float)
        median = np.median(scores)
        q25, q75 = np.percentile(scores, [25.0, 75.0])
        iqr = q75 - q25
        if iqr == 0.0:
            outlier = scores != median
        else:
            outlier = np.abs(scores - median) >= k * iqr
        keep[sel[outlier]] = False
    removed = int(len(listed) - keep.sum())
    if removed == 0:
        return ds, 0
    survivors = [vote for vote, ok in zip(listed, keep) if ok]
    if not survivors:
        raise DataError("outlier removal deleted every vote")
    return make_dataset(survivors, label=ds.label), removed


class TestOutlierRemovalOracle:
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(1, 5), st.integers(0, 2)),
            min_size=1,
            max_size=80,
        ),
        k=st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),
        scope=st.sampled_from(["condition", "stimulus", None]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_group_scan(self, rows, k, scope):
        # scope None: per-condition groups on a dataset without stimulus ids
        if scope is None:
            ds = make_dataset([(f"c{c}", f"u{u}", s) for c, u, s, _ in rows], label="o")
            scope = "condition"
        else:
            ds = make_dataset([(f"c{c}", f"u{u}", s, f"s{t}") for c, u, s, t in rows], label="o")
        try:
            want, want_removed = outliers_by_group_scan(ds, k, scope)
        except DataError:
            with pytest.raises(DataError, match="deleted every vote"):
                remove_outliers_iqr(ds, k=k, scope=scope)
            return
        got, removed = remove_outliers_iqr(ds, k=k, scope=scope)
        assert removed == want_removed
        assert (got.label, got.conditions, got.users, got.stimuli) == (
            want.label, want.conditions, want.users, want.stimuli
        )
        assert votes(got) == votes(want)
        for attr in ("_row_bounds", "_user_rows", "_cond_totals", "_score_sums", "_vote_bounds",
                     "_vote_scores", "_vote_rows", "_vote_stims", "_user_means"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


class TestDatasetBasics:
    @pytest.mark.parametrize("with_stimuli", [False, True])
    def test_holds_one_copy_of_the_votes(self, with_stimuli):
        # 6 votes, 5 (condition, user) rows, 2 conditions: only per-vote
        # arrays are as long as the votes.
        rows = [("c1", "u1", 3, "f1"), ("c1", "u1", 3, "f2"), ("c1", "u2", 5, "f1"),
                ("c2", "u1", 2, "f2"), ("c2", "u2", 1, "f1"), ("c2", "u3", 4, "f2")]
        ds = make_dataset([row if with_stimuli else row[:3] for row in rows])
        per_vote = {name for name, value in vars(ds).items()
                    if isinstance(value, np.ndarray) and len(value) == ds.n_votes}
        want = {"_vote_scores", "_vote_rows"} | ({"_vote_stims"} if with_stimuli else set())
        assert per_vote == want

    def test_needs_votes(self):
        no_ids = ((), np.empty(0, np.int32))
        with pytest.raises(DataError, match="at least one rating"):
            RatingDataset(no_ids, no_ids, np.empty(0, np.int64), None)

    def test_summary(self):
        ds = make_dataset([("c1", "u1", 3), ("c1", "u2", 4), ("c2", "u1", 2)])
        info = ds.summary()
        assert info["conditions"] == 2
        assert info["users"] == 2
        assert info["votes"] == 3
        assert info["votes_per_condition_mean"] == pytest.approx(1.5)


class TestPublishedData:
    def test_cs501_accepted_vote_count(self):
        ds, _ = load_published("501")
        # 5245 collected minus 136 extreme outliers
        assert ds.n_votes == 5109
        assert len(ds.users) == 64

    def test_cs501_outlier_reproduction(self):
        raw = published_paths("501")
        raw_file = None
        if raw is not None:
            candidate = raw[0].parent / "cs501_raw.csv"
            if candidate.is_file():
                raw_file = candidate
        if raw_file is None:
            pytest.skip("raw (pre-cleaning) cs501_raw.csv not available")
        ds = load_ratings(raw_file, label="cs501raw")
        assert ds.n_votes == 5245
        removed = {
            scope: remove_outliers_iqr(ds, k=3.0, scope=scope)[1]
            for scope in ("condition", "stimulus")
            if scope == "condition" or ds.stimuli is not None
        }
        assert 136 in removed.values(), f"removals by scope: {removed}"
