"""Resampling engine tests: sampling, sweeps, gain, CI width, and IRR."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_srcc, make_dataset, mos_dict, raters, synthetic_dataset, two_point_dataset,
    two_stage_pmf, votes,
)
from qvotes import (
    ConfigError,
    DataError,
    DegenerateDataError,
    MetricCurve,
    QvotesError,
    ReferenceMos,
    SweepConfig,
    bootstrap_ci_mos,
    certainty_gain,
    dataset_mos,
    draw_run_sample,
    fit_line,
    irr_full,
    read_curves_csv,
    read_curves_json,
    rmse,
    run_sweep,
    srcc,
    write_curves_csv,
    write_curves_json,
)
from qvotes import simulate
from qvotes.cli import main
from qvotes.simulate import CurvePoint, _aggregate, _pair_irr, _read_curves


def three_user_toy():
    # u1: {5,5}, u2: {1}, u3: {3,3,3} on one condition
    rows = [("x", "u1", 5), ("x", "u1", 5), ("x", "u2", 1)]
    rows += [("x", "u3", 3)] * 3
    return make_dataset(rows)


def agreeing_dataset(n_conditions=6, n_users=4):
    """Every user votes identically per condition; distinct condition means."""
    rows = []
    for c in range(n_conditions):
        score = 1 + c % 5
        for u in range(n_users):
            rows.extend((f"c{c}", f"u{u}", score) for _ in range(2))
    return make_dataset(rows, label="agree")


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.n_values == tuple(range(10, 201, 10))
        assert cfg.repetitions == 250

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(n_values=())
        with pytest.raises(ConfigError):
            SweepConfig(n_values=(10, 10))
        with pytest.raises(ConfigError):
            SweepConfig(n_values=(0, 10))
        with pytest.raises(ConfigError):
            SweepConfig(repetitions=0)
        with pytest.raises(ConfigError):
            SweepConfig(metrics=("mos_magic",))
        with pytest.raises(ConfigError):
            SweepConfig(metrics=("irr", "irr"))
        with pytest.raises(ConfigError):
            SweepConfig(ci_level=1.0)
        with pytest.raises(ConfigError):
            SweepConfig(master_seed=-1)

    @pytest.mark.parametrize("kwargs", [
        {"n_values": (2.7, 3.2)},
        {"n_values": (10.0, 20.0)},
        {"repetitions": 2.5},
        {"master_seed": 1.5},
        {"repetitions": True},
    ], ids=["n_values", "integral_float_n_values", "repetitions", "master_seed", "bool_repetitions"])
    def test_non_integral_rejected(self, kwargs):
        # n_values used to be truncated to (2, 3); a float repetitions or
        # master_seed escaped run_sweep as a TypeError.
        with pytest.raises(ConfigError, match="must be an integer"):
            SweepConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SweepConfig(
            n_values=np.arange(10, 31, 10), repetitions=np.int64(3), master_seed=np.uint32(7)
        )
        assert cfg.n_values == (10, 20, 30)
        assert (cfg.repetitions, cfg.master_seed) == (3, 7)
        assert all(type(v) is int for v in (*cfg.n_values, cfg.repetitions, cfg.master_seed))


class TestSampleCondition:
    def test_degenerate_user_always_five(self):
        ds = make_dataset([("x", "u1", 5), ("x", "u1", 5)])
        scores, users = draw_run_sample(ds, 20, 0, 0)["x"]
        assert np.all(scores == 5)
        assert set(users) == {"u1"}

    def test_deterministic_given_stream(self):
        ds = three_user_toy()
        s1, r1 = simulate._draw_votes(ds, 50, np.random.default_rng(123))
        s2, r2 = simulate._draw_votes(ds, 50, np.random.default_rng(123))
        assert np.array_equal(s1, s2)
        assert np.array_equal(r1, r2)

    def test_needs_positive_n(self):
        ds = three_user_toy()
        for n, run_index, master_seed in [(0, 0, 0), (-1, 0, 0), (3, -1, 0), (3, 0, -1)]:
            with pytest.raises(ConfigError):
                draw_run_sample(ds, n, run_index=run_index, master_seed=master_seed)
        # The floats used to escape as a bare TypeError.
        for args in [(2.5, 0, 0), (3, 1.5, 0), (3, 0, 1.5), (3.0, 0, 0), (True, 0, 0), (3, 0, False)]:
            with pytest.raises(ConfigError, match="must be an integer"):
                draw_run_sample(ds, *args)

    def test_numpy_integer_arguments_accepted(self):
        ds = three_user_toy()
        got = draw_run_sample(ds, np.int64(3), np.int32(1), np.uint8(2))["x"]
        want = draw_run_sample(ds, 3, 1, 2)["x"]
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_two_stage_mean_identity(self):
        # enumerating user-then-score gives exactly the plain vote mean
        ds = three_user_toy()
        pmf = two_stage_pmf(ds, "x")
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        exact_mean = float(pmf @ np.arange(1.0, 6.0))
        plain = mos_dict(dataset_mos(ds, method="plain"))["x"]
        assert exact_mean == pytest.approx(plain, abs=1e-12)

        draws = 100_000
        scores, _ = draw_run_sample(ds, draws, 0, 7)["x"]
        second_moment = float(pmf @ (np.arange(1.0, 6.0) ** 2))
        std = np.sqrt(second_moment - exact_mean**2)
        assert abs(scores.mean() - exact_mean) <= 3 * std / np.sqrt(draws)

    def test_sampled_users_are_actual_raters(self):
        ds = synthetic_dataset(seed=5, n_conditions=4, n_users=8)
        sample = draw_run_sample(ds, 25, run_index=0, master_seed=9)
        for cond, (scores, users) in sample.items():
            assert scores.size == 25
            assert len(users) == 25
            assert set(users) <= set(raters(ds, cond))


class TestRunSweep:
    def test_validity_needs_reference(self):
        ds = synthetic_dataset(seed=1)
        cfg = SweepConfig(n_values=(10,), repetitions=2, metrics=("validity_srcc",))
        with pytest.raises(ConfigError):
            run_sweep(ds, None, cfg)

    def test_single_run_constant_votes(self):
        rows = [("x", "u1", 3)] * 12
        ds = make_dataset(rows)
        cfg = SweepConfig(n_values=(12,), repetitions=1, metrics=("ci_width",))
        curve = run_sweep(ds, None, cfg)[0]
        point = curve.point_at(12)
        assert point.mean == 0.0
        assert point.std_dev == 0.0
        assert point.ci_low == point.ci_high == 0.0
        scores, _ = draw_run_sample(ds, 12, 0, 0)["x"]
        assert np.mean(scores) == 3.0

    def test_bitwise_deterministic_across_grid_splits(self):
        # Splitting the n grid into separate sweeps gives the same points.
        ds = synthetic_dataset(seed=2, n_conditions=6, n_users=10)
        cfg = SweepConfig(
            n_values=(10, 20),
            repetitions=6,
            master_seed=11,
            metrics=("gain_srcc", "gain_rmse", "ci_width", "irr"),
        )
        whole = run_sweep(ds, None, cfg)
        parts = [run_sweep(ds, None, dataclasses.replace(cfg, n_values=(n,))) for n in cfg.n_values]
        for k, curve in enumerate(whole):
            assert curve.points == tuple(part[k].points[0] for part in parts)
            assert all(part[k].metric == curve.metric for part in parts)

    def test_metric_selection_does_not_perturb_sampling(self):
        ds = synthetic_dataset(seed=3, n_conditions=5, n_users=8)
        cfg_small = SweepConfig(n_values=(15,), repetitions=4, metrics=("gain_srcc",))
        cfg_big = dataclasses.replace(cfg_small, metrics=("gain_srcc", "ci_width"))
        small = run_sweep(ds, None, cfg_small)[0]
        big = run_sweep(ds, None, cfg_big)[0]
        assert small == big

    def test_validity_equals_gain_when_reference_is_own_mos(self):
        ds = synthetic_dataset(seed=4, n_conditions=8, n_users=12)
        ref = ReferenceMos(mos_dict(dataset_mos(ds, "user_balanced")))
        cfg = SweepConfig(
            n_values=(10, 30),
            repetitions=5,
            master_seed=21,
            metrics=("validity_srcc", "validity_rmse", "gain_srcc", "gain_rmse"),
        )
        v_srcc, v_rmse, g_srcc, g_rmse = run_sweep(ds, ref, cfg)
        for validity, gain in ((v_srcc, g_srcc), (v_rmse, g_rmse)):
            for pv, pg in zip(validity.points, gain.points):
                assert pv.mean == pytest.approx(pg.mean, abs=1e-12)

    def test_metric_ci_shrinks_with_more_runs(self):
        ds = synthetic_dataset(seed=6, n_conditions=4, n_users=8)
        widths = {}
        for r in (50, 250, 1000):
            cfg = SweepConfig(
                n_values=(10,),
                repetitions=r,
                metrics=("gain_srcc", "ci_width", "irr"),
            )
            curves = run_sweep(ds, None, cfg)
            widths[r] = {
                c.metric: c.point_at(10).ci_high - c.point_at(10).ci_low for c in curves
            }
        for metric in ("gain_srcc", "ci_width", "irr"):
            assert widths[1000][metric] < widths[250][metric] < widths[50][metric]

    def test_validity_rmse_with_per_run_mapping(self):
        ds = synthetic_dataset(seed=7, n_conditions=10, n_users=15)
        # biased reference: same ranking, shifted scale
        base = dataset_mos(ds, "user_balanced")
        ref = ReferenceMos(
            {c: float(np.clip(0.7 * v + 0.9, 1, 5)) for c, v in mos_dict(base).items()}
        )
        cfg = SweepConfig(n_values=(40,), repetitions=10, metrics=("validity_rmse",))
        plain = run_sweep(ds, ref, cfg)[0].point_at(40).mean
        mapped = run_sweep(
            ds, ref, dataclasses.replace(cfg, apply_first_order_map=True)
        )[0].point_at(40).mean
        assert mapped < plain

    @pytest.mark.parametrize("shared", [8, 5], ids=["every_condition", "subset"])
    def test_mapped_validity_rmse_is_rmse_of_the_fitted_run_mos(self, shared):
        ds = synthetic_dataset(seed=8, n_conditions=8, n_users=10)
        base = mos_dict(dataset_mos(ds, "user_balanced"))
        ref = ReferenceMos({c: 0.6 * v + 1.1 for c, v in list(base.items())[:shared]})
        local = [j for j, c in enumerate(ds.conditions) if c in ref]
        ref_values = np.array([ref[ds.conditions[j]] for j in local])
        cfg = SweepConfig(
            n_values=(5, 20), repetitions=1, master_seed=3, metrics=("validity_rmse",),
            apply_first_order_map=True,
        )
        curve = run_sweep(ds, ref, cfg)[0]
        for n in cfg.n_values:
            sub = run_mos(ds, n, 0, cfg.master_seed)[local]
            want = rmse(fit_line(sub, ref_values).apply(sub), ref_values)
            assert np.float64(curve.point_at(n).mean).tobytes() == np.float64(want).tobytes()


def near_unanimous_dataset():
    """Six raters vote 3 on a, b and c; a seventh votes 4 on a and 2 on c.
    Every run whose votes all come from the six has a constant MOS vector."""
    rows = [(c, f"u{i}", 3) for c in "abc" for i in range(6)]
    return make_dataset(rows + [("a", "u6", 4), ("c", "u6", 2)])


def run_mos(ds, n, run_index, seed):
    sample = draw_run_sample(ds, n, run_index, seed)
    return np.array([np.mean(v) for v, _ in sample.values()])


class TestDegenerateRuns:
    def test_constant_mos_run_is_missing_not_fatal(self):
        ds = near_unanimous_dataset()
        cfg = SweepConfig(
            n_values=(1, 2, 3, 4), repetitions=20, metrics=("gain_srcc", "gain_rmse")
        )
        gain_srcc, gain_rmse = run_sweep(ds, None, cfg)
        assert gain_srcc.n_values == gain_rmse.n_values == (1, 2, 3, 4)
        # rmse is defined for every run; at n=1 the runs that drew only 3s
        # are missing from srcc, so the two curves average different runs
        full = dataset_mos(ds).values
        runs = [run_mos(ds, 1, i, 0) for i in range(20)]
        rmses = [float(np.sqrt(np.mean((m - full) ** 2))) for m in runs]
        srccs = [srcc(m, full) for m in runs if np.ptp(m) > 0]
        assert 0 < len(srccs) < len(runs)
        assert gain_rmse.point_at(1).mean == pytest.approx(np.mean(rmses), abs=1e-12)
        assert gain_srcc.point_at(1).mean == pytest.approx(np.mean(srccs), abs=1e-12)

    def test_validity_with_mapping_skips_constant_runs(self):
        ds = near_unanimous_dataset()
        ref = ReferenceMos({"a": 3.5, "b": 3.0, "c": 2.5})
        cfg = SweepConfig(
            n_values=(1, 2),
            repetitions=20,
            metrics=("validity_srcc", "validity_rmse"),
            apply_first_order_map=True,
        )
        for curve in run_sweep(ds, ref, cfg):
            assert curve.n_values == (1, 2)

    def test_point_without_a_valid_run_is_an_error(self):
        # each rater rates two conditions, fewer than IRR's minimum of three
        ds = make_dataset([("a", "u1", 2), ("b", "u1", 4), ("b", "u2", 3), ("c", "u2", 5)])
        cfg = SweepConfig(n_values=(2,), repetitions=3, metrics=("gain_rmse", "irr"))
        with pytest.raises(DataError, match="no run produced a value for irr at n=2"):
            run_sweep(ds, None, cfg)

    def test_sweep_stops_at_the_first_point_without_a_valid_run(self, monkeypatch):
        # One rater per condition: no run has an IRR rater, and the sweep
        # fails at its first n without drawing the later points' votes.
        ds = make_dataset([(f"c{j:02d}", f"u{j:02d}", 1 + (j + t) % 5)
                           for j in range(50) for t in range(3)])
        drawn = []
        draw = simulate._draw_votes
        monkeypatch.setattr(simulate, "_draw_votes", lambda ds, n, rng: drawn.append(n) or draw(ds, n, rng))
        cfg = SweepConfig(n_values=(10, 20, 30, 40), repetitions=4, metrics=("ci_width", "irr"))
        with pytest.raises(DataError, match="^no run produced a value for irr at n=10$"):
            run_sweep(ds, None, cfg)
        assert drawn == [10] * 4

    @pytest.mark.parametrize(
        "metric, rows, ref, message",
        [
            (
                "gain_srcc",
                [(c, f"u{i}", 3) for c in "abc" for i in range(4)],
                None,
                "same full-dataset MOS",
            ),
            (
                "validity_srcc",
                [(c, "u1", s) for c, s in zip("abc", (2, 3, 4))],
                ReferenceMos({"a": 4.0, "b": 4.0, "c": 4.0}),
                "reference MOS is the same",
            ),
        ],
    )
    def test_srcc_against_a_constant_vector_fails_before_sampling(
        self, monkeypatch, metric, rows, ref, message
    ):
        def no_sampling(*args):
            raise AssertionError("sampled a run")

        monkeypatch.setattr(simulate, "_simulate_run", no_sampling)
        cfg = SweepConfig(n_values=(2,), repetitions=3, metrics=(metric,))
        with pytest.raises(DegenerateDataError, match=f"{metric} is undefined: .*{message}"):
            run_sweep(make_dataset(rows), ref, cfg)

    @pytest.mark.parametrize("metric", ["gain_srcc", "gain_rmse"])
    def test_gain_on_two_conditions_fails_before_sampling(self, monkeypatch, metric):
        def no_sampling(*args):
            raise AssertionError("sampled a run")

        monkeypatch.setattr(simulate, "_simulate_run", no_sampling)
        ds = make_dataset([("a", "u1", 1), ("b", "u1", 5), ("a", "u2", 2)])
        cfg = SweepConfig(n_values=(2,), repetitions=3, metrics=(metric,))
        with pytest.raises(DataError, match="^gain metrics need at least 3 conditions$"):
            run_sweep(ds, None, cfg)


class TestSrccRankedOnce:
    """validity_srcc and gain_srcc rank the reference and full-dataset MOS
    once per sweep and each run's MOS vector once, yet equal ``srcc`` of
    the run's MOS bit for bit; a constant run vector is a missing value."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(2, 4)),
                      max_size=30),
        extra=st.sets(st.integers(3, 7)),
        n=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    def test_equals_srcc_of_the_run_mos(self, rows, extra, n, seed):
        # c0..c2 always rated and in the reference; c3..c5 maybe rated and
        # maybe in it, so the reference covers all or some conditions.
        base = [(c, u, 3 + (c + u) % 2) for c in range(3) for u in range(2)]
        ds = make_dataset([(f"c{c}", f"u{u}", s) for c, u, s in base + rows])
        ref = ReferenceMos({f"c{c}": 1.0 + c % 3 for c in {0, 1, 2} | extra})
        local = [j for j, c in enumerate(ds.conditions) if c in ref]
        ref_values = np.array([ref[ds.conditions[j]] for j in local])
        means = run_mos(ds, n, 0, seed)
        cases = [("validity_srcc", means[local], ref_values)]
        full = dataset_mos(ds).values
        if np.ptp(full) > 0.0:
            cases.append(("gain_srcc", means, full))
        for metric, a, b in cases:
            want = None if np.ptp(a) == 0.0 else srcc(a, b)
            cfg = SweepConfig(n_values=(n,), repetitions=1, master_seed=seed, metrics=(metric,))
            try:
                got = run_sweep(ds, ref, cfg)[0].points[0].mean
            except DataError as exc:
                assert "no run produced a value" in str(exc)
                got = None
            assert (got is None) == (want is None)
            if want is not None:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


    @pytest.mark.parametrize("shared, per_run", [(8, 1), (6, 2)], ids=["every_condition", "subset"])
    def test_run_mos_ranked_once_per_run(self, monkeypatch, shared, per_run):
        # The reference and full-dataset MOS are ranked once per sweep.  A
        # reference over every condition shares the run's one ranking with
        # gain_srcc; over a subset, its conditions are ranked on their own.
        calls = []
        centred_ranks = simulate.stats._centred_ranks

        def counted(values):
            calls.append(len(values))
            return centred_ranks(values)

        monkeypatch.setattr(simulate.stats, "_centred_ranks", counted)
        ds = synthetic_dataset(seed=9, n_conditions=8, n_users=10)
        base = mos_dict(dataset_mos(ds, "user_balanced"))
        ref = ReferenceMos({c: 6.0 - v for c, v in list(base.items())[:shared]})
        cfg = SweepConfig(n_values=(5, 10), repetitions=3, metrics=("validity_srcc", "gain_srcc"))
        run_sweep(ds, ref, cfg)
        assert len(calls) == 2 + per_run * cfg.repetitions * len(cfg.n_values)


class TestAggregate:
    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_half_width_is_student_t_ppf_bit_for_bit(self, level):
        from scipy.stats import t

        rng = np.random.default_rng(5)
        for df in range(1, 301):
            values = rng.normal(0.5, 0.2, size=df + 1).tolist()
            arr = np.asarray(values)
            mean, sd = float(arr.mean()), float(arr.std(ddof=1))
            half = float(t.ppf(1.0 - (1.0 - level) / 2.0, df)) * sd / np.sqrt(df + 1)
            assert _aggregate(values, level) == (mean, mean - half, mean + half, sd)


class TestCertaintyGain:
    def test_deltas_are_zero_at_baseline(self):
        ds = synthetic_dataset(seed=8, n_conditions=6, n_users=10)
        cfg = SweepConfig(n_values=(10, 20, 40), repetitions=5)
        gain_srcc, _, delta_srcc, delta_rmse = certainty_gain(ds, cfg)
        assert delta_srcc.point_at(10).mean == 0.0
        assert delta_rmse.point_at(10).mean == 0.0
        # delta curves are pure shifts of the gain curves
        shift = gain_srcc.point_at(10).mean
        for p, d in zip(gain_srcc.points, delta_srcc.points):
            assert d.mean == pytest.approx(p.mean - shift, abs=1e-15)

    def test_gain_curves_are_run_sweeps_and_deltas_their_shifts(self, tmp_path):
        ds = synthetic_dataset(seed=8, n_conditions=6, n_users=10)
        cfg = SweepConfig(n_values=(10, 20, 40), repetitions=5, master_seed=3)
        curves = certainty_gain(ds, cfg)
        assert [c.metric for c in curves] == [
            "gain_srcc", "gain_rmse", "gain_srcc_delta", "gain_rmse_delta"
        ]
        # The sweep of every default metric gives the same gain bytes.
        swept = [c for c in run_sweep(ds, None, cfg) if c.metric.startswith("gain_")]
        write_curves_json(curves[:2], tmp_path / "gain.json")
        write_curves_json(swept, tmp_path / "swept.json")
        assert (tmp_path / "gain.json").read_bytes() == (tmp_path / "swept.json").read_bytes()
        for gain, delta in zip(curves[:2], curves[2:]):
            base = gain.point_at(10).mean
            assert delta.dataset_label == gain.dataset_label
            assert delta.points == tuple(
                CurvePoint(p.n, p.mean - base, p.ci_low - base, p.ci_high - base, p.std_dev)
                for p in gain.points
            )

    def test_delta_requires_baseline_in_sweep(self):
        ds = synthetic_dataset(seed=8, n_conditions=6, n_users=10)
        cfg = SweepConfig(n_values=(20, 40), repetitions=2)
        with pytest.raises(ConfigError):
            certainty_gain(ds, cfg)
        # without the baseline, the gain curves come from run_sweep alone
        gain_cfg = dataclasses.replace(cfg, metrics=("gain_srcc", "gain_rmse"))
        assert [c.n_values for c in run_sweep(ds, None, gain_cfg)] == [(20, 40)] * 2

    def test_perfectly_agreeing_dataset(self):
        ds = agreeing_dataset()
        cfg = SweepConfig(n_values=(10, 30), repetitions=4)
        gain_srcc, gain_rmse, *_ = certainty_gain(ds, cfg)
        for p in gain_srcc.points:
            assert p.mean == pytest.approx(1.0)
            assert p.std_dev == 0.0
        for p in gain_rmse.points:
            assert p.mean == 0.0

    def test_needs_three_conditions(self):
        ds = make_dataset([("a", "u1", 1), ("b", "u1", 5)])
        cfg = SweepConfig(n_values=(10,), repetitions=2)
        with pytest.raises(DataError):
            certainty_gain(ds, cfg)


class TestCiWidthCurve:
    def test_zero_for_constant_votes(self):
        ds = make_dataset([("x", "u1", 4)] * 10 + [("y", "u2", 4)] * 10)
        cfg = SweepConfig(n_values=(10, 20), repetitions=3, metrics=("ci_width",))
        curve = run_sweep(ds, None, cfg)[0]
        assert all(p.mean == 0.0 for p in curve.points)

    def test_width_scales_as_inverse_square_root(self):
        # standard-error oracle: on {1,5} raters the width should shrink
        # by ~2x when n quadruples and decrease across doublings
        ds = two_point_dataset(p_five=0.5)
        cfg = SweepConfig(
            n_values=(10, 20, 40, 80, 160),
            repetitions=120,
            master_seed=5,
            metrics=("ci_width",),
        )
        curve = run_sweep(ds, None, cfg)[0]
        w = {p.n: p.mean for p in curve.points}
        assert w[20] < w[10]
        assert w[40] < w[20]
        assert w[80] < w[40]
        assert w[160] < w[80]
        assert w[40] / w[160] == pytest.approx(2.0, rel=0.15)
        assert w[10] / w[40] == pytest.approx(2.0, rel=0.15)

    def test_point_is_left_to_right_sum_of_row_widths(self):
        # ci_width's bytes depend on this summation order: one condition at
        # a time, in Python floats, then divided by the condition count.
        ds = synthetic_dataset(seed=8, n_conditions=40, n_users=30)
        cfg = SweepConfig(n_values=(10, 37, 50), repetitions=1, master_seed=21, metrics=("ci_width",))
        curve = run_sweep(ds, None, cfg)[0]
        for n in cfg.n_values:
            sample = draw_run_sample(ds, n, 0, cfg.master_seed)
            total = 0.0
            for votes, _ in sample.values():
                low, high = bootstrap_ci_mos(votes, cfg.ci_level)
                total += high - low
            assert curve.point_at(n).mean == total / len(ds.conditions)


class TestIrr:
    def test_identical_users_give_one(self):
        rows = []
        for c, score in enumerate([1, 2, 3, 4, 5]):
            rows += [(f"c{c}", "u1", score), (f"c{c}", "u2", score)]
        ds = make_dataset(rows)
        assert irr_full(ds) == pytest.approx(1.0)
        cfg = SweepConfig(n_values=(30,), repetitions=3, metrics=("irr",))
        curve = run_sweep(ds, None, cfg)[0]
        assert curve.point_at(30).mean == pytest.approx(1.0)

    def test_no_eligible_users_errors(self):
        ds = make_dataset([("a", "u1", 1), ("b", "u1", 3), ("c", "u1", 5)])
        with pytest.raises(DataError):
            irr_full(ds)
        cfg = SweepConfig(n_values=(10,), repetitions=2, metrics=("irr",))
        with pytest.raises(DataError):
            run_sweep(ds, None, cfg)[0]

    def test_curve_approaches_full_dataset_value(self):
        ds = synthetic_dataset(seed=10, n_conditions=12, n_users=18, repeats=(2, 4))
        full = irr_full(ds)
        cfg = SweepConfig(n_values=(200,), repetitions=40, metrics=("irr",), master_seed=3)
        at_200 = run_sweep(ds, None, cfg)[0].point_at(200).mean
        assert at_200 == pytest.approx(full, abs=0.03)

    def test_rises_with_vote_count(self):
        ds = synthetic_dataset(seed=11, n_conditions=12, n_users=18)
        cfg = SweepConfig(n_values=(20, 60), repetitions=40, metrics=("irr",), master_seed=4)
        curve = run_sweep(ds, None, cfg)[0]
        assert curve.point_at(20).mean < curve.point_at(60).mean


class TestEndToEndPipeline:
    def test_synthetic_study_has_expected_structure(self):
        # full chain on synthetic raters: sweep, saturation, model fit,
        # vote targeting; mirrors how the published studies behave
        from qvotes import compare_to_reference, fit_power_model, votes_for_target

        ds = synthetic_dataset(seed=33, n_conditions=15, n_users=25, repeats=(2, 4), noise=0.9)
        rng = np.random.default_rng(5)
        true = dataset_mos(ds, "user_balanced")
        ref = ReferenceMos(
            {c: float(np.clip(v + rng.normal(0, 0.15), 1, 5)) for c, v in mos_dict(true).items()}
        )
        cfg = SweepConfig(
            n_values=tuple(range(10, 201, 10)),
            repetitions=15,
            master_seed=17,
            metrics=("validity_srcc", "validity_rmse", "ci_width", "irr"),
        )
        curves = {c.metric: c for c in run_sweep(ds, ref, cfg)}

        v_srcc = curves["validity_srcc"]
        assert abs(v_srcc.point_at(100).mean - v_srcc.point_at(200).mean) < 0.01
        full_srcc = compare_to_reference(true, ref).srcc
        model = fit_power_model([(p.n, p.mean) for p in v_srcc.points])
        assert model.a < 0 and model.b < 0
        assert model.c == pytest.approx(full_srcc, abs=0.02)
        assert model.rmse_of_fit < 0.01
        needed = votes_for_target(model, model.c - 0.01)
        assert needed is not None and 1 <= needed <= 200

        v_rmse = curves["validity_rmse"]
        assert v_rmse.points[-1].mean < v_rmse.points[0].mean

        width = curves["ci_width"]
        assert width.points[-1].mean < width.points[0].mean

        irr = curves["irr"]
        assert irr.points[0].mean < irr.points[-1].mean
        assert irr.points[-1].mean <= irr_full(ds) + 0.02

        *_, delta_rmse = certainty_gain(ds, cfg)
        assert delta_rmse.point_at(60).mean <= -0.1


class TestCurveSerialization:
    def _curves(self):
        points = tuple(
            CurvePoint(n, 0.9 + 0.001 * n, 0.89 + 0.001 * n, 0.91 + 0.001 * n, 0.004)
            for n in (10, 20, 30)
        )
        return [MetricCurve(metric="gain_srcc", dataset_label="toy", points=points)]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "curves.csv"
        curves = self._curves()
        write_curves_csv(curves, path)
        back = read_curves_csv(path)
        assert len(back) == 1
        assert back[0].metric == "gain_srcc"
        assert back[0].n_values == (10, 20, 30)
        assert np.allclose([p.mean for p in back[0].points],
                           [p.mean for p in curves[0].points], rtol=1e-5)
        text = path.read_text()
        assert text.splitlines()[0] == "metric,dataset,n,mean,ci_low,ci_high,std_dev"
        assert "\r" not in text

    def test_json_round_trip_exact(self, tmp_path):
        path = tmp_path / "curves.json"
        curves = self._curves()
        cfg = SweepConfig(n_values=(10, 20, 30), repetitions=3)
        write_curves_json(curves, path, cfg)
        back = read_curves_json(path)
        assert back == curves

    @pytest.mark.parametrize("kind", ["bytes", "text"])
    def test_read_streams_behind_a_byte_order_mark(self, tmp_path, kind):
        curves = self._curves()
        write_curves_csv(curves, tmp_path / "curves.csv")
        write_curves_json(curves, tmp_path / "curves.json")
        for name, read in (("curves.csv", read_curves_csv), ("curves.json", read_curves_json)):
            raw = b"\xef\xbb\xbf" + (tmp_path / name).read_bytes()
            stream = io.BytesIO(raw) if kind == "bytes" else io.StringIO(raw.decode("utf-8"))
            assert read(stream) == read(tmp_path / name)
        assert read_curves_json(io.BytesIO(raw)) == curves

    @pytest.mark.parametrize("read", [read_curves_csv, read_curves_json])
    def test_stream_that_is_not_utf8_is_named(self, read):
        stream = io.BytesIO(b"metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,t\xffy,10,0,0,0,0\n")
        stream.name = "piped"
        with pytest.raises(DataError, match="^piped is not UTF-8 text: invalid start byte$"):
            read(stream)

    def test_read_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("metric,n\nx,1\n")
        with pytest.raises(
            DataError, match=r"^missing required column\(s\): dataset, mean, ci_low, ci_high, std_dev$"
        ):
            read_curves_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,toy,10,0.5,0.4\n",
             "missing field at line 2"),
            ("metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,toy,10,0.5,0.4,0.6,0\n"
             f"irr,toy,20,{'1' * (csv.field_size_limit() + 1)},0.4,0.6,0\n",
             rf"malformed CSV at line 3: field larger than field limit \({csv.field_size_limit()}\)"),
            ('metric,dataset,n,mean,ci_low,ci_high,std_dev\n"irr,toy,10,0.5,0.4,0.6,0\n',
             "missing field at line 2"),
            ("metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,toy,ten,0.5,0.4,0.6,0\n",
             "malformed curve CSV at line 2: invalid literal for int\\(\\) with base 10: 'ten'"),
            ("", "empty input: missing header row"),
            ("metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,toy,20,0.5,0.4,0.6,0\n"
             "irr,other,10,0.5,0.4,0.6,0\nirr,toy,10,0.5,0.4,0.6,0\n",
             "malformed curve CSV at line 4: irr curve of dataset 'toy' has n=10 after n=20; "
             "its n must strictly increase"),
            ("metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,toy,10,0.5,0.4,0.6,0\n"
             "irr,toy,20,0.5,0.4,0.6,0\nirr,toy,20,0.5,0.4,0.6,0\n",
             "malformed curve CSV at line 4: irr curve of dataset 'toy' has n=20 after n=20; "
             "its n must strictly increase"),
        ],
        ids=["short_row", "long_field", "open_quote", "bad_n", "empty", "swapped_rows",
             "repeated_row"],
    )
    def test_read_csv_fault_names_its_line(self, text, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            read_curves_csv(io.StringIO(text))

    def test_read_csv_cells_of_metric_and_dataset_verbatim(self):
        text = "metric, dataset ,n,mean,ci_low,ci_high,std_dev\n irr , t y ,10, 0.5,0.4,0.6,0\n"
        (curve,) = read_curves_csv(io.StringIO(text))
        assert (curve.metric, curve.dataset_label) == (" irr ", " t y ")
        assert curve.points == (CurvePoint(10, 0.5, 0.4, 0.6, 0.0),)

    def test_read_json_too_deeply_nested(self):
        text = '{"curves": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(DataError, match="^malformed curve JSON: maximum recursion depth"):
            read_curves_json(io.StringIO(text))

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_format_told_by_content(self, tmp_path, bom):
        # JSON is an object, after any whitespace; any other text is CSV.
        curves = self._curves()
        write_curves_csv(curves, tmp_path / "curves.csv")
        write_curves_json(curves, tmp_path / "curves.json")
        csv_bytes = (tmp_path / "curves.csv").read_bytes()
        assert _read_curves(io.BytesIO(bom + csv_bytes)) == read_curves_csv(tmp_path / "curves.csv")
        for space in (b"", b" \r\n\t"):
            json_bytes = space + (tmp_path / "curves.json").read_bytes()
            assert _read_curves(io.BytesIO(bom + json_bytes)) == curves

    @pytest.mark.parametrize(
        "cells, named",
        [("nan,0.5,0.6,0.0", "mean"), ("0.5,-inf,0.6,0.0", "ci_low"), ("0.5,0.5,nan,inf", "ci_high, std_dev")],
    )
    def test_read_non_finite_field(self, tmp_path, cells, named):
        path = tmp_path / "nan.csv"
        path.write_text(f"metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,toy,10,{cells}\n")
        message = f"^irr curve of dataset 'toy': curve point at n=10 has non-finite {named}$"
        with pytest.raises(DataError, match=message):
            read_curves_csv(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 10.7, "curve point n must be an integer, got 10.7"),
            ("n", True, "curve point n must be an integer, got True"),
            ("n", -5, "irr curve of dataset 'toy': curve point n must be positive, got -5"),
            ("std_dev", -3, "irr curve of dataset 'toy': curve point at n=10 has negative std_dev"),
            ("n", "10", "curve point n must be an integer, got '10'"),
            ("mean", True, "curve point mean must be a number, got True"),
            ("ci_low", "0.4", "curve point ci_low must be a number, got '0.4'"),
            ("ci_high", None, "curve point ci_high must be a number, got None"),
            ("std_dev", False, "curve point std_dev must be a number, got False"),
        ],
    )
    def test_read_json_invalid_point(self, tmp_path, field, value, message):
        # 10.7 used to be read as 10, True as 1 (n) or 1.0 (the other
        # fields) and the strings as numbers; the rest were accepted.
        point = {"n": 10, "mean": 0.5, "ci_low": 0.4, "ci_high": 0.6, "std_dev": 0.1}
        doc = {"curves": [{"metric": "irr", "dataset": "toy", "points": [{**point, field: value}]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"^{message}$"):
            read_curves_json(path)

    def test_read_json_integer_fields(self, tmp_path):
        # A JSON integer is a number: 0 and 1 read as 0.0 and 1.0.
        point = {"n": 10, "mean": 1, "ci_low": 0, "ci_high": 1, "std_dev": 0}
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"curves": [{"metric": "irr", "dataset": "toy", "points": [point]}]}))
        (curve,) = read_curves_json(path)
        assert curve.points == (CurvePoint(10, 1.0, 0.0, 1.0, 0.0),)
        assert all(type(v) is float for v in curve.points[0][1:])

    def test_read_json_number_too_large_for_a_float(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"curves": [{"metric": "irr", "dataset": "toy", "points": [{"n": 10, '
                        f'"mean": 1{"0" * 400}, "ci_low": 0.4, "ci_high": 0.6, "std_dev": 0.1}}]}}]}}')
        with pytest.raises(DataError, match="^malformed curve JSON: int too large to convert to float$"):
            read_curves_json(path)

    def test_read_json_curve_without_points(self, tmp_path):
        path = tmp_path / "nopoints.json"
        path.write_text('{"curves": [{"metric": "irr", "dataset": "toy", "points": []}]}')
        with pytest.raises(DataError, match="^irr curve of dataset 'toy' has no points$"):
            read_curves_json(path)

    def test_read_json_without_curves(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"config": null, "curves": []}')
        with pytest.raises(DataError, match="^curve file has no curves$"):
            read_curves_json(path)

    def test_curve_validation(self):
        with pytest.raises(
            DataError, match="^m curve of dataset 'd': curve point at n=10 has mean outside its CI$"
        ):
            MetricCurve("m", "d", (CurvePoint(10, 1.0, 2.0, 3.0, 0.1),))
        with pytest.raises(DataError, match="^m curve of dataset 'd': curve points must have "
                           "strictly increasing n, got 10 after 20$"):
            MetricCurve(
                "m",
                "d",
                (
                    CurvePoint(20, 1.0, 0.5, 1.5, 0.1),
                    CurvePoint(10, 1.0, 0.5, 1.5, 0.1),
                ),
            )
        curve = MetricCurve("m", "d", (CurvePoint(10, 1.0, 0.5, 1.5, 0.1),))
        with pytest.raises(DataError):
            curve.point_at(99)


def irr_by_rater_loop(users, own, others):
    """IRR as one brute-force SRCC per rater, over raters with at least 3
    conditions whose own and others' means both vary, averaged in order
    of user index: the per-rater reference the batched computation must
    reproduce.  The means may be exact fractions, which rank exactly."""
    pairs = {}
    for g, a, b in zip(users, own, others):
        pairs.setdefault(int(g), []).append((a, b))
    values = []
    for g in sorted(pairs):
        a, b = zip(*pairs[g])
        if len(a) >= 3 and len(set(a)) > 1 and len(set(b)) > 1:
            values.append(brute_force_srcc(a, b))
    return float(np.mean(values)) if values else None


def exact_pairs(ds, cells):
    """Flat (rater, own mean, others' mean) pairs, the means as exact
    fractions, from ``cells``: per condition, each of its raters' scores
    as {user id: scores}.  Conditions with one rater give no pair."""
    users, own, others = [], [], []
    for by_user in cells:
        if len(by_user) < 2:
            continue
        present = sorted(by_user, key=ds.users.index)
        means = [Fraction(sum(by_user[u]), len(by_user[u])) for u in present]
        total = sum(means)
        users += [ds.users.index(u) for u in present]
        own += means
        others += [(total - m) / (len(means) - 1) for m in means]
    return users, own, others


def run_pairs(ds, n, run_index, seed):
    """The exact (rater, own mean, others' mean) pairs of one sampled run."""
    cells = []
    for scores, drawn in draw_run_sample(ds, n, run_index, seed).values():
        by_user = {}
        for score, user in zip(scores.tolist(), drawn):
            by_user.setdefault(user, []).append(score)
        cells.append(by_user)
    return exact_pairs(ds, cells)


def full_pairs(ds):
    """The exact (rater, own mean, others' mean) pairs of the whole dataset."""
    cells = {c: {} for c in ds.conditions}
    for v in votes(ds):
        cells[v.condition_id].setdefault(v.user_id, []).append(v.score)
    return exact_pairs(ds, cells.values())


small_studies = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 6), st.integers(1, 5)), min_size=1, max_size=60
)


def fractional_study(seed):
    """5 to 29 conditions, each rated by 9 to 25 of 40 raters with 1 to 3
    votes each: rater means with denominators 1 to 3 make others' means
    whose exact ties float sums can split."""
    rng = random.Random(seed)
    rows = []
    for c in range(rng.randint(5, 29)):
        for u in rng.sample(range(40), rng.randint(9, 25)):
            rows += [(f"c{c:02d}", f"u{u:02d}", rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
    return make_dataset(rows)


class TestBatchedIrr:
    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from([1.0, 2.5, 3.0, 4.0]),
                      st.sampled_from([2.0, 3.0, 3.5])),
            max_size=40,
        ),
    )
    def test_matches_rater_loop_on_flat_pairs(self, pairs):
        # few distinct values: ties, constant raters and short raters abound.
        # Pair t is condition t, voted on by its user with mean ``own`` and
        # by a one-condition user with mean ``others``, who never counts.
        # The lone "pad" vote is no pair: it makes an empty list a dataset.
        rows = [("pad", "pad", 3)]
        for t, (user, own, others) in enumerate(pairs):
            for rater, mean in ((f"u{user}", own), (f"s{t:02d}", others)):
                rows += [(f"c{t:02d}", rater, math.floor(mean)), (f"c{t:02d}", rater, math.ceil(mean))]
        ds = make_dataset(rows)
        want = irr_by_rater_loop(*zip(*pairs)) if pairs else None
        got = _pair_irr(ds, np.arange(ds._row_bounds[-1]), ds._user_means)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=small_studies,
        n=st.integers(2, 12),
        seed=st.integers(0, 2**16),
    )
    def test_sweep_matches_rater_loop(self, rows, n, seed):
        ds = make_dataset([(f"c{c}", f"u{u}", s) for c, u, s in rows])
        want = irr_by_rater_loop(*run_pairs(ds, n, 0, seed))
        cfg = SweepConfig(n_values=(n,), repetitions=1, master_seed=seed, metrics=("irr",))
        if want is None:
            with pytest.raises(DataError):
                run_sweep(ds, None, cfg)
        else:
            got = run_sweep(ds, None, cfg)[0].point_at(n).mean
            assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(rows=small_studies)
    def test_full_dataset_matches_rater_loop(self, rows):
        ds = make_dataset([(f"c{c}", f"u{u}", s) for c, u, s in rows])
        want = irr_by_rater_loop(*full_pairs(ds))
        if want is None:
            with pytest.raises(DataError):
                irr_full(ds)
        else:
            assert irr_full(ds) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    def test_fractional_means_rank_as_exact_fractions(self, seed, n):
        # Others' means that are equal as fractions tie, and unequal ones
        # do not, whatever order their float totals were summed in.
        ds = fractional_study(seed)
        assert irr_full(ds) == pytest.approx(irr_by_rater_loop(*full_pairs(ds)), abs=1e-12)
        want = irr_by_rater_loop(*run_pairs(ds, n, 0, seed))
        cfg = SweepConfig(n_values=(n,), repetitions=1, master_seed=seed, metrics=("irr",))
        if want is None:
            with pytest.raises(DataError):
                run_sweep(ds, None, cfg)
        else:
            assert run_sweep(ds, None, cfg)[0].point_at(n).mean == pytest.approx(want, abs=1e-12)


class StubStream:
    """Stands in for a Generator: every row of uniforms it draws is ``u``,
    a number or one row."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def vote_shares(ds, j):
    """Each of condition j's (user row, score) cells' share of its votes,
    N_us / N_c."""
    v = slice(*ds._vote_bounds[j : j + 2])
    return drawn_cells(ds, j, ds._vote_scores[v], ds._vote_rows[v]) / ds._cond_totals[j]


def drawn_cells(ds, j, scores, rows):
    """How often each of condition j's (user row, score) cells was drawn."""
    a, b = ds._row_bounds[j : j + 2]
    return np.bincount((rows - a) * 5 + scores - 1, minlength=(b - a) * 5)


uneven_study = [("a", "u1", 5), ("a", "u1", 5), ("a", "u2", 1), ("a", "u3", 3), ("a", "u3", 2),
                ("b", "u2", 4), ("c", "u3", 1), ("c", "u1", 2), ("c", "u1", 2)]


class TestConditionSampler:
    def test_hits_each_vote_with_equal_probability(self):
        # chi-square goodness of fit of the drawn (user, score) cells against
        # their vote shares: each of N_c votes has probability 1 / N_c
        from scipy.stats import chisquare

        ds = make_dataset(uneven_study)
        n = 20_000
        scores, rows = simulate._draw_votes(ds, n, np.random.default_rng(2024))
        for j in range(len(ds.conditions)):
            observed = drawn_cells(ds, j, scores[j], rows[j])
            expected = n * vote_shares(ds, j)
            assert not observed[expected == 0].any()
            used = expected > 0
            if used.sum() > 1:
                assert chisquare(observed[used], expected[used]).pvalue > 1e-3

    def test_equal_strata_of_the_unit_interval_hit_each_vote_equally(self):
        # exact: M = L * N_c midpoints of equal strata of [0, 1) give every
        # vote exactly L draws, so every cell L times its vote count
        ds = make_dataset(uneven_study)
        for j in range(len(ds.conditions)):
            m = 7 * int(ds._cond_totals[j])
            grid = (np.arange(m) + 0.5) / m
            scores, rows = simulate._draw_votes(ds, m, StubStream(grid))
            assert np.array_equal(drawn_cells(ds, j, scores[j], rows[j]), m * vote_shares(ds, j))

    def test_samples_are_scores_of_actual_votes(self):
        ds = make_dataset(uneven_study)
        scores, users = draw_run_sample(ds, 50, 0, 1)["c"]
        assert scores.dtype == np.int64
        assert set(zip(users, scores.tolist())) <= {("u3", 1), ("u1", 2)}


def run_uniforms(seed, n, run, k):
    """The (k, n) uniforms of run ``run`` at vote count ``n``, from a
    stream built here rather than by the engine."""
    seq = np.random.SeedSequence(seed, spawn_key=(n, run))
    return np.random.Generator(np.random.PCG64(seq)).random((k, n))


def decoded_votes(ds, u):
    """Per condition in sorted-id order, the (user, score) votes that the
    uniforms ``u`` pick: vote t of condition j is entry floor(u[j, t] * N_j)
    of the condition's N_j votes, listed from ``votes(ds)`` and sorted
    by (user, score)."""
    by_condition = {}
    for v in votes(ds):
        by_condition.setdefault(v.condition_id, []).append((v.user_id, v.score))
    listed = [sorted(by_condition[c]) for c in sorted(by_condition)]
    return [[cond[int(x * len(cond))] for x in row] for cond, row in zip(listed, u.tolist())]


class TestInversion:
    """A vote is the inverse CDF of the uniform distribution on its
    condition's votes: index floor(u * N_c)."""

    def test_index_stays_below_vote_count(self):
        # the largest uniform, 1 - 2^-53, picks each condition's last vote
        # (its largest user row and score) and 0.0 its first
        sizes = (1, 2, 3, 5, 7, 8, 1000, 4097)
        rows = [(f"c{j}", f"u{v % 3}", 1 + v % 5) for j, size in enumerate(sizes) for v in range(size)]
        ds = make_dataset(rows)
        last = ds._vote_bounds[1:] - 1
        for u, want in ((1.0 - 2.0**-53, last), (0.0, ds._vote_bounds[:-1])):
            scores, picked = simulate._draw_votes(ds, 3, StubStream(u))
            assert np.array_equal(picked, np.repeat(ds._vote_rows[want][:, None], 3, axis=1))
            assert np.array_equal(scores, np.repeat(ds._vote_scores[want][:, None], 3, axis=1))

    def test_single_user_condition(self):
        ds = make_dataset([("a", "u0", 4), ("a", "u0", 2), ("b", "u1", 1), ("b", "u0", 5)])
        scores, rows = simulate._draw_votes(ds, 30, np.random.default_rng(5))
        users = ds._user_rows[rows]
        assert not users[0].any()
        assert set(scores[0]) == {2, 4}
        assert set(users[1]) == {0, 1}

    def test_run_sample_is_condition_draws_in_turn(self):
        # the run's stream, spent in one (k, n) call, gives condition j the
        # rows of j in turn, each decoded by the independent decoder
        ds = synthetic_dataset(seed=5, n_conditions=7, n_users=9)
        n, run, seed = 13, 2, 77
        sample = draw_run_sample(ds, n, run, seed)
        u = run_uniforms(seed, n, run, len(ds.conditions))
        assert list(sample) == sorted(ds.conditions)
        for (scores, users), want in zip(sample.values(), decoded_votes(ds, u)):
            assert np.array_equal(scores, [s for _, s in want])
            assert users == tuple(user for user, _ in want)

    @pytest.mark.parametrize("seed", [1 << 20, 7 * 2 * 3])
    def test_matches_condition_sampler_across_blocks(self, seed):
        # one (k, n) matrix draw over 1100 conditions of uneven sizes gives
        # each condition the decoding of its own row of uniforms
        rng = np.random.default_rng(11)
        rows = []
        for c in range(1100):
            for u in rng.choice(40, size=rng.integers(1, 6), replace=False):
                rows += [(f"c{c}", f"u{u}", s) for s in rng.integers(1, 6, size=rng.integers(1, 3))]
        ds = make_dataset(rows)
        n, run = 3, 2
        scores, picked = simulate._draw_votes(ds, n, simulate._run_stream(seed, n, run))
        assert scores.shape == picked.shape == (1100, n)
        decoded = decoded_votes(ds, run_uniforms(seed, n, run, 1100))
        for j, want in enumerate(decoded):
            assert scores[j].tolist() == [s for _, s in want], j
            assert [ds.users[g] for g in ds._user_rows[picked[j]]] == [u for u, _ in want], j
            assert np.all((ds._row_bounds[j] <= picked[j]) & (picked[j] < ds._row_bounds[j + 1]))


def ratings_text(lines):
    return "\n".join(["condition_id,user_id,score", *lines]) + "\n"


def simulate_bytes(directory, text, *args):
    """Exit code and the curve CSV and JSON bytes of one ``qvotes
    simulate`` of the ratings ``text``."""
    directory.mkdir()
    ratings = directory / "ratings.csv"
    ratings.write_text(text)
    out = directory / "curves"
    code = main(["simulate", str(ratings), *args, "--out", str(out)])
    if code:
        return code, None, None
    return code, out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()


class TestRowOrder:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(1, 5)),
                      min_size=1, max_size=40),
        data=st.data(),
    )
    def test_permuted_rows_give_identical_curves(self, rows, data):
        # four conditions with the same four raters each, so most sweeps succeed
        rows = [(c, u, 1 + (c + u) % 5) for c in range(4) for u in range(4)] + rows
        lines = [f"{' ' * (u % 2)}c{c},u{u},{s}" for c, u, s in rows]
        permuted = data.draw(st.permutations(lines))
        args = ("--n", "2:6:2", "--runs", "3", "--seed", "9")
        with tempfile.TemporaryDirectory() as tmp:
            first = simulate_bytes(Path(tmp) / "a", ratings_text(lines), *args)
            second = simulate_bytes(Path(tmp) / "b", ratings_text(permuted), *args)
        assert first == second


class TestRobustness:
    """Small random datasets and sweeps fail, if at all, with a
    :class:`QvotesError`, and the CLI with exit code 1 or 2."""

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 5)),
                      min_size=1, max_size=30),
        ref=st.none() | st.dictionaries(st.integers(0, 5), st.floats(1.0, 5.0), min_size=1),
        metrics=st.lists(st.sampled_from(simulate.ALL_METRICS), unique=True),
        fom=st.booleans(),
        start=st.integers(1, 4),
        runs=st.integers(1, 4),
    )
    def test_only_qvotes_errors_escape(self, rows, ref, metrics, fom, start, runs):
        rows = [(f"c{c}", f"u{u}", s) for c, u, s in rows]
        ref = None if ref is None else {f"c{c}": mos for c, mos in ref.items()}
        try:
            cfg = SweepConfig(n_values=(start, start + 2, start + 4), repetitions=runs,
                              metrics=tuple(metrics), apply_first_order_map=fom)
            run_sweep(make_dataset(rows), None if ref is None else ReferenceMos(ref), cfg)
        except QvotesError:
            pass

        args = ["--n", f"{start}:{start + 4}:2", "--runs", str(runs)]
        args += ["--metrics", ",".join(metrics)] if metrics else []
        args += ["--fom"] if fom else []
        with tempfile.TemporaryDirectory() as tmp:
            if ref is not None:
                reference = Path(tmp) / "reference.csv"
                lines = [f"{c},{mos!r}\n" for c, mos in ref.items()]
                reference.write_text("condition_id,mos\n" + "".join(lines))
                args += ["--ref", str(reference)]
            text = ratings_text(f"{c},{u},{s}" for c, u, s in rows)
            code, _, _ = simulate_bytes(Path(tmp) / "run", text, *args)
        assert code in (0, 1, 2)
