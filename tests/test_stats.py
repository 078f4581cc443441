"""MOS, rank correlation, RMSE, and first-order mapping tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_ranks, brute_force_srcc, make_dataset, mos_dict, synthetic_dataset
from qvotes import (
    ConfigError,
    DataError,
    DegenerateDataError,
    LinearMap,
    MosVector,
    RatingDataset,
    ReferenceMos,
    SweepConfig,
    average_ranks,
    certainty_gain,
    compare_to_reference,
    dataset_mos,
    fit_line,
    rmse,
    run_sweep,
    srcc,
)
from qvotes.data import _shared_reference
from qvotes.stats import (
    MOS_METHODS,
    _centred_ranks,
    _counted_ranks,
    _grouped_ranks,
    _grouped_srcc,
    _ranked_srcc,
)

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


def mos_of_x(ds, method="user_balanced") -> float:
    """The MOS of condition ``x`` by ``dataset_mos``."""
    return mos_dict(dataset_mos(ds, method))["x"]


class TestMos:
    def test_plain_examples(self):
        for votes, want in (([1, 5], 3.0), ([4, 4, 4], 4.0), ([1, 1, 1, 5], 2.0)):
            ds = make_dataset([("x", f"u{i}", s) for i, s in enumerate(votes)])
            assert mos_of_x(ds, "plain") == want

    def test_user_balanced_vs_plain(self):
        # u1 casts {5,5}, u2 casts {1}: equal user weight gives 3.0 while
        # the plain mean over votes is 11/3
        ds = make_dataset([("x", "u1", 5), ("x", "u1", 5), ("x", "u2", 1)])
        assert mos_of_x(ds) == pytest.approx(3.0)
        assert mos_of_x(ds, "plain") == pytest.approx(11 / 3)

    def test_user_balanced_constant(self):
        ds = make_dataset([("x", "u1", 4), ("x", "u2", 4), ("x", "u2", 4)])
        assert mos_of_x(ds) == 4.0

    def test_user_balanced_single_user(self):
        ds = make_dataset([("x", "u1", 1), ("x", "u1", 2), ("x", "u1", 3)])
        assert mos_of_x(ds) == pytest.approx(2.0)

    @given(
        scores=st.lists(st.integers(1, 5), min_size=2, max_size=8),
        votes_each=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_balanced_equals_plain_under_equal_contribution(self, scores, votes_each):
        rows = [
            ("x", f"u{i}", s) for i, s in enumerate(scores) for _ in range(votes_each)
        ]
        ds = make_dataset(rows)
        assert mos_of_x(ds) == pytest.approx(mos_of_x(ds, "plain"), abs=1e-12)

    def test_dataset_mos_methods(self):
        ds = make_dataset(
            [("a", "u1", 5), ("a", "u1", 5), ("a", "u2", 1), ("b", "u1", 2)]
        )
        balanced = dataset_mos(ds, "user_balanced")
        plain = dataset_mos(ds, "plain")
        assert balanced.conditions == ("a", "b")
        assert balanced.values[0] == pytest.approx(3.0)
        assert plain.values[0] == pytest.approx(11 / 3)
        assert ds.votes_per_condition().tolist() == [3, 1]
        with pytest.raises(ConfigError):
            dataset_mos(ds, "median")

    @given(
        sizes=st.lists(st.sampled_from([1, 2, 7, 8, 9, 127, 128, 130]), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_dataset_mos_equals_per_condition_loop(self, sizes, seed):
        # Conditions of 1, >= 8 and >= 128 users (where numpy's pairwise
        # sum changes blocks), several sharing one user count.
        rng = np.random.default_rng(seed)
        rows = [
            (f"c{j}", f"u{u}", int(rng.integers(1, 6)))
            for j, m in enumerate(sizes)
            for u in rng.choice(300, size=m, replace=False).tolist()
            for _ in range(int(rng.integers(1, 4)))
        ]
        rng.shuffle(rows)
        ds = make_dataset(rows)
        plain, balanced = [], []
        for cond in ds.conditions:
            votes = {}
            for c, u, s in rows:
                if c == cond:
                    votes.setdefault(ds.users.index(u), []).append(s)
            scores = [s for g in votes for s in votes[g]]
            plain.append(sum(scores) / len(scores))
            balanced.append(np.mean([sum(votes[g]) / len(votes[g]) for g in sorted(votes)]))
        got_plain = dataset_mos(ds, "plain")
        got_balanced = dataset_mos(ds, "user_balanced")
        assert got_plain.values.tolist() == plain
        assert got_balanced.values.tolist() == balanced
        assert ds.votes_per_condition().tolist() == [sum(c == cond for c, _, _ in rows) for cond in ds.conditions]

    def test_balanced_mos_derived_once_per_dataset(self, monkeypatch):
        # A --delta sweep asks for the full-dataset MOS twice: once for the
        # main sweep's gain target and once inside certainty_gain.
        ds = synthetic_dataset(seed=4, n_conditions=8, n_users=12)
        derived = []
        blocks = RatingDataset._equal_size_blocks

        def counted(self):
            derived.append(self)
            return blocks(self)

        monkeypatch.setattr(RatingDataset, "_equal_size_blocks", counted)
        cfg = SweepConfig(n_values=(10, 20), repetitions=2, metrics=("gain_srcc", "gain_rmse"))
        run_sweep(ds, None, cfg)
        certainty_gain(ds, cfg)
        assert derived == [ds]

    def test_dataset_mos_returns_a_copy(self):
        ds = synthetic_dataset(seed=4, n_conditions=8, n_users=12)
        for method in MOS_METHODS:
            first = dataset_mos(ds, method)
            want = first.values.copy()
            first.values[:] = 1.0
            again = dataset_mos(ds, method)
            assert again.values.tolist() == want.tolist()

    def test_mos_vector_validation(self):
        with pytest.raises(DataError):
            MosVector(("a",), np.array([6.0]))
        with pytest.raises(DataError):
            MosVector(("a", "b"), np.array([3.0]))

    def test_mos_vector_must_be_one_dimensional(self):
        # A column of values used to be kept, shape (3, 1), and to fail only
        # inside compare_to_reference.
        with pytest.raises(DataError, match="inputs must be one-dimensional"):
            MosVector(("a", "b", "c"), [[3.0], [4.0], [2.0]])

    @pytest.mark.parametrize("values", [[np.nan, 3.0], [3.0, np.nan], [np.nan, np.nan]])
    def test_mos_vector_rejects_nan(self, values):
        with pytest.raises(DataError, match=r"\[1, 5\]"):
            MosVector(("a", "b"), values)


class TestSrcc:
    def test_identity(self):
        v = [1.2, 3.4, 2.2, 5.0]
        assert srcc(v, v) == pytest.approx(1.0)

    def test_reversal(self):
        assert srcc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_tie_case_matches_brute_force(self):
        a = [1, 2, 2, 4]
        b = [1, 3, 2, 4]
        assert srcc(a, b) == pytest.approx(brute_force_srcc(a, b), abs=1e-12)

    def test_average_ranks(self):
        assert average_ranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]
        assert average_ranks([5, 5, 5]).tolist() == [2.0, 2.0, 2.0]

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            srcc([1, 2, 3], [1, 2])

    @pytest.mark.parametrize("values", [[[3, 1], [2, 2]], 5.0], ids=["matrix", "scalar"])
    def test_average_ranks_of_a_non_vector(self, values):
        # These used to raise a bare ValueError and an IndexError.
        with pytest.raises(DataError, match="inputs must be one-dimensional"):
            average_ranks(values)

    def test_nan_is_rejected(self):
        # NaN used to rank as the largest value: srcc gave 0.2 here
        with pytest.raises(DataError, match="NaN"):
            srcc([1, np.nan, 3, 2], [1, 2, 3, 4])
        with pytest.raises(DataError, match="NaN"):
            srcc([1, 2, 3, 4], [4, 3, np.nan, 1])
        with pytest.raises(DataError, match="NaN"):
            average_ranks([2.0, np.nan, 1.0])

    def test_infinities_order_and_tie(self):
        inf = np.inf
        assert average_ranks([inf, -inf, 0.0, inf, -0.0]).tolist() == [4.5, 1.0, 2.5, 4.5, 2.5]
        assert srcc([-inf, 1.0, inf, 2.0], [1, 2, 4, 3]) == 1.0

    def test_too_short(self):
        with pytest.raises(DataError, match="at least 3"):
            srcc([1, 2], [2, 1])

    def test_constant_vector_is_explicit_error(self):
        with pytest.raises(DegenerateDataError):
            srcc([2, 2, 2], [1, 2, 3])
        with pytest.raises(DegenerateDataError):
            srcc([1, 2, 3], [7, 7, 7])

    @given(
        values=st.lists(st.integers(0, 6), min_size=3, max_size=15),
        slope=st.floats(min_value=0.01, max_value=50, allow_nan=False),
        shift=finite_floats,
    )
    @settings(max_examples=120, deadline=None)
    def test_invariant_under_increasing_affine_maps(self, values, slope, shift):
        a = np.array(values, dtype=float)
        b = np.linspace(0, 1, a.size) ** 2
        if np.all(a == a[0]):
            return
        base = srcc(a, b)
        assert srcc(slope * a + shift, b) == pytest.approx(base, abs=1e-9)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 21))
        a = rng.integers(0, 5, size).astype(float)
        b = rng.normal(size=size).round(1)
        if np.all(a == a[0]) or np.all(b == b[0]):
            return
        assert srcc(a, b) == pytest.approx(brute_force_srcc(a, b), abs=1e-12)

    def test_agrees_with_scipy(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(9)
        a = rng.integers(1, 6, 30).astype(float)
        b = a + rng.normal(0, 1, 30)
        assert srcc(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-12)


class TestGroupedSrcc:
    """``stats._grouped_srcc``, the kernel of IRR, on int64 labels at its
    default tolerance of 0."""

    @given(
        points=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 4), st.floats(-3, 3, allow_nan=False)),
            max_size=50,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_each_group_equals_scalar_srcc(self, points):
        groups = np.array([p[0] for p in points], dtype=np.int64)
        a = np.array([p[1] for p in points], dtype=float)
        b = np.array([p[2] for p in points])
        got = _grouped_srcc(groups, a, b)
        assert got.size == (groups.max() + 1 if groups.size else 0)
        for g in range(got.size):
            sel = groups == g
            try:
                want = srcc(a[sel], b[sel])
            except (DataError, DegenerateDataError):
                assert np.isnan(got[g])
            else:
                assert got[g] == want

    def test_ties_and_degenerate_groups(self):
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3], dtype=np.int64)
        a = np.array([1, 2, 2, 4, 5, 5, 5, 1, 2, 3, 1, 2], dtype=float)
        b = np.array([1, 3, 2, 4, 1, 2, 3, 2, 1, 1, 2, 3], dtype=float)
        got = _grouped_srcc(groups, a, b)
        assert got[0] == pytest.approx(brute_force_srcc(a[:4], b[:4]), abs=1e-12)
        assert np.isnan(got[1]) and np.isnan(got[2])
        assert got[3] == pytest.approx(-0.5)


def stable_average_ranks(values):
    """``average_ranks`` as it was with a stable argsort and ``np.r_``."""
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="stable")
    s = a[order]
    boundaries = np.flatnonzero(np.r_[True, s[1:] != s[:-1], True])
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((boundaries[:-1] + boundaries[1:] + 1) / 2.0, np.diff(boundaries))
    return ranks


def group_shift(sizes):
    """The per-group shift that ``_grouped_srcc`` hands ``_grouped_ranks``:
    the entries of the lower labels plus the group's mean rank."""
    return (np.cumsum(sizes) - sizes) + (sizes + 1) / 2.0


def lexsort_grouped_ranks(groups, values, sizes):
    """``stats._grouped_ranks`` as it was with ``np.lexsort``, before it
    centred the ranks."""
    order = np.lexsort((values, groups))
    g = groups[order]
    v = values[order]
    boundaries = np.flatnonzero(np.r_[True, (g[1:] != g[:-1]) | (v[1:] != v[:-1]), True])
    tie_ranks = (boundaries[:-1] + boundaries[1:] + 1) / 2.0
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(tie_ranks, np.diff(boundaries)) - (np.cumsum(sizes) - sizes)[g]
    return ranks


# Heavy ties among signed zeros, infinities and neighbours one ulp apart.
TIE_POOL = [0.0, -0.0, np.inf, -np.inf, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
            -2.5, np.nextafter(-2.5, 0.0), 3.0, 5e-324, -5e-324]
tied_values = st.lists(st.sampled_from(TIE_POOL), max_size=300)
sparse_labels = st.lists(st.integers(0, 300), max_size=5, unique=True)
# The largest label on either side of 255 and 65,535, so the group pass
# sorts uint8, uint16 and uint32 keys.
top_labels = pytest.mark.parametrize("top", [255, 256, 65_535, 65_536])


class TestRankKernelsBitwise:
    """The unstable value sort and the radix group pass give the same
    bytes as the stable argsort and ``lexsort`` they replace, and the
    histogram ranks of integers those of the float ranking."""

    @given(values=tied_values, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_average_ranks_equal_stable_sort(self, values, seed):
        a = np.random.default_rng(seed).permutation(np.array(values, dtype=float))
        assert average_ranks(a).tobytes() == stable_average_ranks(a).tobytes()

    @given(values=tied_values, seed=st.integers(0, 2**32 - 1))
    @example(values=[], seed=0)
    @example(values=[-np.inf] * 9, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_average_ranks_equal_one_group_and_brute_force(self, values, seed):
        # average_ranks is the one-group case of _grouped_ranks with no
        # shift; shifted by the mean rank, each tie group gives the bytes of
        # the ranks centred entry by entry, and of the brute-force ranks.
        a = np.random.default_rng(seed).permutation(np.array(values, dtype=float))
        centre = (a.size + 1) / 2.0
        got = _grouped_ranks(np.zeros(a.size, dtype=np.int64), a, group_shift(np.array([a.size])))
        assert got.tobytes() == (average_ranks(a) - centre).tobytes()
        assert got.tobytes() == (np.array(brute_force_ranks(a.tolist()), dtype=float) - centre).tobytes()

    @top_labels
    @given(labels=sparse_labels, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_grouped_ranks_equal_lexsort(self, top, labels, data):
        labels = [*labels, top]
        values = np.array(data.draw(tied_values), dtype=float)
        groups = np.array(data.draw(st.lists(st.sampled_from(labels), min_size=values.size,
                                             max_size=values.size)), dtype=np.int64)
        sizes = np.bincount(groups, minlength=top + 1)
        got = _grouped_ranks(groups, values, group_shift(sizes))
        want = lexsort_grouped_ranks(groups, values, sizes) - (sizes[groups] + 1) / 2.0
        assert got.tobytes() == want.tobytes()

    @top_labels
    @given(users=sparse_labels, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_irr_on_user_indices_equals_unique_labels(self, top, users, data):
        users = [*users, top]
        size = data.draw(st.integers(0, 120))
        pairs = st.lists(st.sampled_from(TIE_POOL[4:]), min_size=size, max_size=size)
        own = np.array(data.draw(pairs))
        others = np.array(data.draw(pairs))
        # users absent from the pairs leave gaps below the largest index
        idx = np.array(data.draw(st.lists(st.sampled_from(users), min_size=size, max_size=size)),
                       dtype=np.int64)
        # IRR takes user indices as group labels as they are: the groups of
        # absent users are NaN, and every other entry is the bytes of the
        # same group under labels from ``np.unique``.
        got = _grouped_srcc(idx, own, others)
        present, labels = np.unique(idx, return_inverse=True)
        assert got[present].tobytes() == _grouped_srcc(labels, own, others).tobytes()
        assert np.isnan(np.delete(got, present)).all()

    @given(n=st.integers(1, 500), data=st.data())
    @example(n=1, data=None)  # k = 1
    @settings(max_examples=300, deadline=None)
    def test_counted_ranks_equal_centred_ranks(self, n, data):
        # The vote sums of k conditions, n votes each, lie in [n, 5n]; their
        # histogram ranks give the float ranking's bytes, of the sums and of
        # the MOS.  Constant, all-distinct and end-of-range vectors included.
        lo, hi = n, 5 * n
        if data is None:
            sums = np.array([lo])
        else:
            k = data.draw(st.integers(1, 120))
            pool = data.draw(st.sampled_from(["any", "constant", "distinct", "ends"]))
            if pool == "constant":
                sums = np.full(k, data.draw(st.sampled_from([lo, hi, (lo + hi) // 2])))
            elif pool == "distinct":
                sums = np.array(data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=k,
                                                   unique=True)))
            else:
                values = st.sampled_from([lo, hi]) if pool == "ends" else st.integers(lo, hi)
                sums = np.array(data.draw(st.lists(values, min_size=k, max_size=k)))
        got = _counted_ranks(sums, lo, hi)
        for want in (_centred_ranks(sums / n), _centred_ranks(sums.astype(float))):
            assert got[0].tobytes() == want[0].tobytes()
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


def one_call_srcc(a, b):
    """``srcc`` as it was, ranking and centring both vectors in one call."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DegenerateDataError("constant")
    ra = average_ranks(a)
    rb = average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra @ ra) * (rb @ rb))
    return float(np.clip((ra @ rb) / denom, -1.0, 1.0))


# MOS-like values on a coarse grid, so that ties and constant vectors are common.
mos_values = st.lists(st.sampled_from([1.0, 2.5, 3.0, 3.0 + 1 / 3, 4.0, 5.0]), min_size=3, max_size=60)


class TestRankedSrcc:
    """A fixed vector ranked once, and each run's vector ranked once, give
    ``srcc``'s bits, on tied, constant and subset vectors."""

    @given(fixed=mos_values, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_one_call_srcc(self, fixed, data):
        fixed = np.array(fixed)
        size = fixed.size
        runs = data.draw(st.lists(
            st.lists(st.sampled_from([1.0, 2.0, 3.0, 3.5, 4.0]), min_size=size, max_size=size),
            min_size=1, max_size=4,
        ))
        subset = np.array(sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=3))))
        for idx in (np.arange(size), subset):
            b = fixed[idx]
            if np.ptp(b) == 0.0:
                continue
            ranked = _centred_ranks(b)  # reused across runs, as a sweep does
            for run in runs:
                a = np.array(run)[idx]
                got = _centred_ranks(a)
                assert (got[1] == 0.0) == (np.ptp(a) == 0.0)
                if got[1] == 0.0:
                    with pytest.raises(DegenerateDataError):
                        srcc(a, b)
                    continue
                want = one_call_srcc(a, b)
                assert np.float64(_ranked_srcc(got, ranked)).tobytes() == np.float64(want).tobytes()
                assert np.float64(srcc(a, b)).tobytes() == np.float64(want).tobytes()


def pool_vectors(size):
    """``TIE_POOL`` vectors of length ``size``: constant ones (signed zeros
    mixed among them), and any others."""
    return st.one_of(
        st.sampled_from(TIE_POOL).map(lambda v: [v] * size),
        st.lists(st.sampled_from([0.0, -0.0]), min_size=size, max_size=size),
        st.lists(st.sampled_from(TIE_POOL), min_size=size, max_size=size),
    )


class TestConstancyRule:
    """``srcc`` refuses a vector whose centred ranks sum to 0 in square;
    that is one constant under ``==``, the test it replaces, so signed
    zeros and infinities keep their behaviour."""

    @given(data=st.data())
    @example(data=None)
    @settings(max_examples=300, deadline=None)
    def test_degenerate_exactly_when_constant(self, data):
        if data is None:
            a, b = np.array([0.0, -0.0, 0.0]), np.array([-np.inf, np.inf, np.inf])
        else:
            size = data.draw(st.integers(3, 40))
            a = np.array(data.draw(pool_vectors(size)))
            b = np.array(data.draw(pool_vectors(size)))
        if np.all(a == a[0]) or np.all(b == b[0]):
            with pytest.raises(DegenerateDataError,
                               match="^rank correlation undefined for a constant vector$"):
                srcc(a, b)
        else:
            assert np.float64(srcc(a, b)).tobytes() == np.float64(one_call_srcc(a, b)).tobytes()


class TestRmse:
    def test_examples(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([1, 2], [2, 3]) == pytest.approx(1.0)
        assert rmse([0, 0], [3, 4]) == pytest.approx(np.sqrt(12.5))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            rmse([1], [1, 2])

    def test_nan_is_rejected(self):
        with pytest.raises(DataError, match="NaN"):
            rmse([1.0, np.nan], [1.0, 2.0])

    @given(st.lists(finite_floats, min_size=1, max_size=20), st.data())
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_identity(self, a, data):
        b = data.draw(
            st.lists(finite_floats, min_size=len(a), max_size=len(a))
        )
        assert rmse(a, b) == pytest.approx(rmse(b, a))
        assert rmse(a, a) == 0.0
        if a != b:
            assert rmse(a, b) >= 0.0


class TestFirstOrderMap:
    def _vector(self, values):
        values = np.asarray(values, dtype=float)
        return MosVector(tuple(f"c{i}" for i in range(values.size)), values)

    def _mapping(self, cs, ref):
        return compare_to_reference(cs, ref, with_mapping=True).mapping

    def test_identity_recovered(self):
        values = [1.5, 2.5, 3.5, 4.5]
        ref = ReferenceMos({f"c{i}": v for i, v in enumerate(values)})
        line = self._mapping(self._vector(values), ref)
        assert line.slope == pytest.approx(1.0, abs=1e-9)
        assert line.intercept == pytest.approx(0.0, abs=1e-9)

    def test_inverse_of_synthetic_compression(self):
        # cs = 0.5 * ref + 1 so the map back is slope 2, intercept -2
        ref_values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        cs = 0.5 * ref_values + 1.0
        ref = ReferenceMos({f"c{i}": v for i, v in enumerate(ref_values)})
        line = self._mapping(self._vector(cs), ref)
        assert line.slope == pytest.approx(2.0, abs=1e-9)
        assert line.intercept == pytest.approx(-2.0, abs=1e-9)

    def test_degenerate(self):
        ref = ReferenceMos({"c0": 2.0, "c1": 3.0, "c2": 4.0})
        with pytest.raises(DegenerateDataError):
            self._mapping(self._vector([3.0, 3.0, 3.0]), ref)

    def test_apply_clips_to_scale(self):
        line = LinearMap(slope=3.0, intercept=-2.0)
        assert line.apply([0.5, 3.0]).tolist() == [1.0, 5.0]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_mapping_never_increases_rmse(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 12))
        cs_values = rng.uniform(1.0, 5.0, size)
        if np.ptp(cs_values) == 0:
            return
        ref_values = rng.uniform(1.0, 5.0, size)
        ref = ReferenceMos({f"c{i}": float(v) for i, v in enumerate(ref_values)})
        cs = self._vector(cs_values)
        line = self._mapping(cs, ref)
        assert rmse(line.apply(cs_values), ref_values) <= rmse(cs_values, ref_values) + 1e-12

    def test_fit_line_constant_x(self):
        with pytest.raises(DegenerateDataError):
            fit_line([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_fit_line_rejects_nan(self):
        # used to return a NaN slope
        with pytest.raises(DataError, match="NaN"):
            fit_line([1.0, 2.0, np.nan], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="NaN"):
            fit_line([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0])


class TestCompareToReference:
    def _pair(self, cs_values, ref_values):
        conds = tuple(f"c{i}" for i in range(len(cs_values)))
        cs = MosVector(conds, np.asarray(cs_values, float))
        ref = ReferenceMos(dict(zip(conds, map(float, ref_values))))
        return cs, ref

    def test_self_comparison(self):
        cs, ref = self._pair([1.5, 2.5, 3.5, 4.5], [1.5, 2.5, 3.5, 4.5])
        result = compare_to_reference(cs, ref, with_mapping=True)
        assert result.srcc == pytest.approx(1.0)
        assert result.rmse == 0.0
        assert result.rmse_after_mapping == pytest.approx(0.0, abs=1e-12)
        assert result.n_shared == 4

    def test_too_few_shared(self):
        conds = ("a", "b", "c")
        cs = MosVector(conds, np.array([2.0, 3.0, 4.0]))
        ref = ReferenceMos({"a": 2.0, "b": 3.0})
        with pytest.raises(DataError, match="3 shared"):
            compare_to_reference(cs, ref)

    def test_srcc_unchanged_by_scale_shift(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(1.2, 4.8, 10)
        ref_values = np.clip(base + rng.normal(0, 0.3, 10), 1, 5)
        cs, ref = self._pair(np.clip(0.5 * base + 1.2, 1, 5), ref_values)
        cs_scaled, _ = self._pair(base, ref_values)
        r1 = compare_to_reference(cs, ref)
        r2 = compare_to_reference(cs_scaled, ref)
        assert r1.srcc == pytest.approx(r2.srcc, abs=1e-12)

    def test_mapping_reduces_bias(self):
        rng = np.random.default_rng(11)
        ref_values = np.linspace(1.2, 4.8, 12)
        cs_values = np.clip(0.6 * ref_values + 1.1 + rng.normal(0, 0.05, 12), 1, 5)
        cs, ref = self._pair(cs_values, ref_values)
        result = compare_to_reference(cs, ref, with_mapping=True)
        assert result.rmse_after_mapping < result.rmse


class TestSharedReference:
    """``_shared_reference``, the one alignment of a MOS vector's
    conditions with a reference table."""

    def test_indices_ascend_and_reference_only_conditions_are_ignored(self):
        ref = ReferenceMos({"z": 1.5, "d": 4.0, "b": 2.0, "a": 3.0, "lab_only": 5.0})
        index, mos = _shared_reference(("a", "b", "c", "d", "e"), ref)
        assert index.dtype == np.int64 and mos.dtype == np.float64
        assert index.tolist() == [0, 1, 3]
        assert mos.tolist() == [3.0, 2.0, 4.0]

    def test_compare_and_sweep_raise_the_same_message(self):
        ds = make_dataset([(c, f"u{i}", 1 + (i + ord(c)) % 5) for c in "abc" for i in range(4)])
        ref = ReferenceMos({"a": 2.0, "b": 3.0, "lab_only": 4.0})
        cfg = SweepConfig(n_values=(2,), repetitions=1, metrics=("validity_srcc",))
        with pytest.raises(DataError) as from_compare:
            compare_to_reference(dataset_mos(ds), ref)
        with pytest.raises(DataError) as from_sweep:
            run_sweep(ds, ref, cfg)
        assert str(from_compare.value) == str(from_sweep.value)
        assert str(from_sweep.value) == "need at least 3 shared conditions, got 2"
