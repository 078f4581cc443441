"""Acceptance gate: every release criterion, one pass/fail line each.

Criteria 1-5 reproduce published reference numbers and need the benchmark
rating/lab files (see README, "Benchmark data"); they skip with a message
when the files are absent.  Criteria 6-12 are self-contained oracle and
property checks.  Run with ``pytest tests/test_acceptance.py -v -s``.

QVOTES_ACCEPT_RUNS overrides the repetition count of the heavy sweeps
(default 50, the CI-pipeline setting with doubled tolerances; set 250 for
the full-strength run).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import (
    acceptance_runs,
    brute_force_srcc,
    cp_widths_bisect_all,
    load_published,
    make_dataset,
    mos_dict,
    two_point_dataset,
    two_stage_pmf,
    votes,
)
from qvotes import (
    SweepConfig,
    bootstrap_ci_mos,
    certainty_gain,
    clopper_pearson,
    compare_to_reference,
    dataset_mos,
    draw_run_sample,
    fit_power_model,
    irr_full,
    max_ci_width,
    run_sweep,
    srcc,
)
from qvotes.cli import main

TABLE_EXPECTED = {
    # tag -> (srcc, rmse, rmse after first-order map)
    "401": (0.971, 0.485, 0.169),
    "501": (0.891, 0.324, 0.316),
    "701": (0.931, 0.32, 0.318),
}

POWER_ASYMPTOTES = {
    # tag -> (validity srcc asymptote, validity rmse asymptote)
    "401": (0.9749, 0.4803),
    "501": (0.8916, 0.3184),
    "701": (0.9317, 0.3172),
}

IRR_EXPECTED = {"401": 0.7945, "501": 0.7453, "701": 0.7773}

POWER_ROWS = [
    (-0.3837, -1.0129, 0.9749),
    (-0.3039, -0.8319, 0.8916),
    (-0.3443, -0.9675, 0.9317),
    (0.6467, -0.9903, 0.4803),
    (0.6717, -0.8544, 0.3184),
    (0.7667, -0.9142, 0.3172),
]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)


# -- criteria 1-5: benchmark-data reproductions ------------------------------


@pytest.mark.parametrize("tag", sorted(TABLE_EXPECTED))
def test_criterion_01_full_data_comparison(tag):
    ds, ref = load_published(tag)
    expected_srcc, expected_rmse, expected_mapped = TABLE_EXPECTED[tag]
    start = time.perf_counter()
    result = compare_to_reference(dataset_mos(ds, "user_balanced"), ref, with_mapping=True)
    elapsed = time.perf_counter() - start
    ok = (
        abs(result.srcc - expected_srcc) <= 0.01
        and abs(result.rmse - expected_rmse) <= 0.02
        and elapsed < 5.0
    )
    detail = (
        f"cs{tag}: srcc {result.srcc:.3f} vs {expected_srcc}, "
        f"rmse {result.rmse:.3f} vs {expected_rmse}, {elapsed:.2f}s"
    )
    if tag == "401":
        ok = ok and abs(result.rmse_after_mapping - expected_mapped) <= 0.02
        detail += f", mapped {result.rmse_after_mapping:.3f} vs {expected_mapped}"
    report(1, "full-data SRCC/RMSE reproduction", ok, detail)
    assert ok


@pytest.mark.parametrize("tag", sorted(TABLE_EXPECTED))
def test_criterion_02_flattening(tag):
    ds, ref = load_published(tag)
    runs = acceptance_runs()
    scale = 1.0 if runs >= 250 else 2.0
    cfg = SweepConfig(
        n_values=tuple(range(10, 201, 10)),
        repetitions=runs,
        master_seed=101,
        metrics=("validity_srcc", "validity_rmse"),
    )
    v_srcc, v_rmse = run_sweep(ds, ref, cfg)
    srcc_step = abs(v_srcc.point_at(100).mean - v_srcc.point_at(200).mean)
    rmse_step = abs(v_rmse.point_at(100).mean - v_rmse.point_at(200).mean)
    *_, delta_rmse = certainty_gain(ds, cfg)
    delta_rmse_60 = delta_rmse.point_at(60).mean
    ok = (
        srcc_step < 0.01 * scale
        and rmse_step < 0.02 * scale
        and delta_rmse_60 <= -0.15
    )
    report(
        2,
        "curves flatten past 100 votes and gain exceeds 0.15 MOS by 60",
        ok,
        f"cs{tag}: |dSRCC| {srcc_step:.4f}, |dRMSE| {rmse_step:.4f}, "
        f"dG*(60) {delta_rmse_60:.3f}, r={runs}",
    )
    assert ok


@pytest.mark.parametrize("tag", sorted(TABLE_EXPECTED))
def test_criterion_03_ci_width_thresholds(tag):
    ds, _ = load_published(tag)
    n_values = tuple(sorted(set(range(10, 201, 10)) | {115}))
    cfg = SweepConfig(
        n_values=n_values,
        repetitions=acceptance_runs(),
        master_seed=102,
        metrics=("ci_width",),
    )
    curve = run_sweep(ds, None, cfg)[0]
    above_60 = {p.n: p.mean for p in curve.points if p.n > 60}
    ok = all(w < 0.4 + 0.03 for w in above_60.values())
    at_115 = curve.point_at(115).mean
    ok = ok and at_115 < 0.3 + 0.03
    report(
        3,
        "bootstrap CI width under 0.4 past 60 votes and under 0.3 at 115",
        ok,
        f"cs{tag}: max W(n>60) {max(above_60.values()):.3f}, W(115) {at_115:.3f}",
    )
    assert ok


@pytest.mark.parametrize("tag", sorted(IRR_EXPECTED))
def test_criterion_04_irr_bounds(tag):
    ds, _ = load_published(tag)
    full = irr_full(ds)
    expected = IRR_EXPECTED[tag]
    cfg = SweepConfig(
        n_values=(20, 60),
        repetitions=acceptance_runs(),
        master_seed=103,
        metrics=("irr",),
    )
    curve = run_sweep(ds, None, cfg)[0]
    rises = curve.point_at(20).mean < curve.point_at(60).mean
    ok = abs(full - expected) <= 0.02 and rises
    report(
        4,
        "full-data IRR matches published value and drops at low vote counts",
        ok,
        f"cs{tag}: IRR {full:.4f} vs {expected}, "
        f"IRR(20) {curve.point_at(20).mean:.3f} < IRR(60) {curve.point_at(60).mean:.3f}",
    )
    assert ok


@pytest.mark.parametrize("tag", sorted(POWER_ASYMPTOTES))
def test_criterion_05_power_model_asymptotes(tag):
    ds, ref = load_published(tag)
    cfg = SweepConfig(
        n_values=tuple(range(10, 201, 10)),
        repetitions=acceptance_runs(),
        master_seed=104,
        metrics=("validity_srcc", "validity_rmse"),
    )
    v_srcc, v_rmse = run_sweep(ds, ref, cfg)
    fit_srcc = fit_power_model([(p.n, p.mean) for p in v_srcc.points])
    fit_rmse = fit_power_model([(p.n, p.mean) for p in v_rmse.points])
    c_srcc, c_rmse = POWER_ASYMPTOTES[tag]
    ok = abs(fit_srcc.c - c_srcc) <= 0.02 and abs(fit_rmse.c - c_rmse) <= 0.05
    report(
        5,
        "fitted power-model asymptotes match published coefficients",
        ok,
        f"cs{tag}: srcc c {fit_srcc.c:.4f} vs {c_srcc}, rmse c {fit_rmse.c:.4f} vs {c_rmse}",
    )
    assert ok


# -- criteria 6-12: self-contained oracles ------------------------------------


def test_criterion_06_srcc_oracle_equivalence():
    rng = np.random.default_rng(606)
    checked = 0
    worst = 0.0
    while checked < 1000:
        size = int(rng.integers(3, 21))
        # integer-valued draws guarantee plenty of ties
        a = rng.integers(0, 5, size).astype(float)
        b = rng.normal(size=size).round(1) if rng.random() < 0.5 else rng.integers(
            0, 4, size
        ).astype(float)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        worst = max(worst, abs(srcc(a, b) - brute_force_srcc(a, b)))
        checked += 1
    ok = worst <= 1e-12
    report(6, "rank correlation matches brute-force oracle", ok, f"worst |diff| {worst:.2e}")
    assert ok


def test_criterion_07_clopper_pearson_oracle():
    worst = 0.0
    for n in range(1, 201):
        oracle = cp_widths_bisect_all(n)
        ours = np.empty(n + 1)
        for s in range(n + 1):
            low, high = clopper_pearson(s, n)
            ours[s] = 4.0 * (high - low)
        worst = max(worst, float(np.max(np.abs(ours - oracle))))
    midpoint = max_ci_width(3.0, 10)
    ok = worst <= 1e-9 and abs(midpoint - 2.503) <= 0.001
    report(
        7,
        "exact binomial bounds match CDF-bisection oracle",
        ok,
        f"worst |diff| {worst:.2e} over all n<=200, width(mos 3, n 10) {midpoint:.4f}",
    )
    assert ok


def test_criterion_08_bootstrap_coverage():
    probs = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    true_mean = float(probs @ np.arange(1.0, 6.0))
    rng = np.random.default_rng(2024)
    trials = 2000
    hits = 0
    for _ in range(trials):
        votes = rng.choice(np.arange(1, 6), size=100, p=probs)
        low, high = bootstrap_ci_mos(votes)
        hits += low <= true_mean <= high
    coverage = hits / trials
    ok = 0.93 <= coverage <= 0.97
    report(8, "bootstrap CI coverage within 93-97%", ok, f"coverage {coverage:.4f}")
    assert ok


def test_criterion_09_two_stage_sampling_identity():
    rows = [("x", "u1", 5), ("x", "u1", 5), ("x", "u2", 1)] + [("x", "u3", 3)] * 3
    ds = make_dataset(rows)
    pmf = two_stage_pmf(ds, "x")
    scale = np.arange(1.0, 6.0)
    exact_mean = float(pmf @ scale)
    plain = mos_dict(dataset_mos(ds, method="plain"))["x"]
    identity_ok = abs(exact_mean - plain) <= 1e-12

    draws = 100_000
    scores, _ = draw_run_sample(ds, draws, 0, 909)["x"]
    std = float(np.sqrt(pmf @ scale**2 - exact_mean**2))
    tolerance = 3 * std / np.sqrt(draws)
    empirical_ok = abs(scores.mean() - exact_mean) <= tolerance
    ok = identity_ok and empirical_ok
    report(
        9,
        "two-stage sampling mean equals plain vote mean",
        ok,
        f"exact {exact_mean:.6f} vs plain {plain:.6f}, "
        f"empirical {scores.mean():.6f} within {tolerance:.6f}",
    )
    assert ok


def test_criterion_10_power_fit_round_trip():
    worst = 0.0
    for a, b, c in POWER_ROWS:
        points = [(float(x), a * x**b + c) for x in range(10, 201, 10)]
        model = fit_power_model(points)
        worst = max(
            worst,
            abs(model.a - a) / abs(a),
            abs(model.b - b) / abs(b),
            abs(model.c - c) / abs(c),
        )
    ok = worst < 1e-6
    report(10, "noiseless power-model round trip", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_11_determinism_across_workers(tmp_path):
    # Each curve point depends only on (dataset, n, runs, seed, config): the
    # rows of a split n grid match the whole grid's byte for byte, and a
    # repeat of the same invocation writes the same bytes.
    ds = two_point_dataset(p_five=0.5, n_users=10, votes_per_user=6)
    rows = ["condition_id,user_id,score"]
    rows += [f"{v.condition_id},{v.user_id},{v.score}" for v in votes(ds)]
    rows += [f"c2,{u},{s}" for u, s in [("u00", 3), ("u01", 4), ("u02", 2), ("u03", 3)]]
    rows += [f"c3,{u},{s}" for u, s in [("u00", 5), ("u01", 4), ("u02", 5), ("u03", 4)]]
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("\n".join(rows) + "\n")

    def simulate(name, grid):
        base = tmp_path / name
        argv = ["simulate", str(ratings), "--n", grid, "--runs", "8", "--seed", "42"]
        assert main(argv + ["--out", str(base)]) == 0
        csv_bytes = base.with_suffix(".csv").read_bytes()
        return csv_bytes, json.loads(base.with_suffix(".json").read_text())["curves"]

    def rows_by_point(csv_bytes):
        lines = csv_bytes.splitlines()[1:]
        return {tuple(line.split(b",")[:3]): line for line in lines}

    whole = simulate("whole", "10:30:10")
    repeat_ok = simulate("repeat", "10:30:10") == whole
    split = {}
    for n in (10, 20, 30):
        split.update(rows_by_point(simulate(f"n{n}", str(n))[0]))
    split_ok = rows_by_point(whole[0]) == split
    ok = repeat_ok and split_ok
    report(
        11,
        "seeded runs byte-identical on repeat and across n-grid splits",
        ok,
        f"repeat {'ok' if repeat_ok else 'differs'}, split {'ok' if split_ok else 'differs'}",
    )
    assert ok


def test_criterion_12_analytic_bound_dominates_bootstrap():
    margins = []
    for p_five in (0.25, 0.5, 0.75):
        ds = two_point_dataset(p_five=p_five, n_users=20, votes_per_user=10)
        mos = 1.0 + 4.0 * p_five
        cfg = SweepConfig(
            n_values=tuple(range(10, 201, 10)),
            repetitions=60,
            master_seed=112,
            metrics=("ci_width",),
        )
        curve = run_sweep(ds, None, cfg)[0]
        for point in curve.points:
            margins.append(max_ci_width(mos, point.n) - point.mean)
    ok = all(margin >= 0.0 for margin in margins)
    report(
        12,
        "worst-case width bound dominates empirical bootstrap widths",
        ok,
        f"min margin {min(margins):.4f} over {len(margins)} sweep points",
    )
    assert ok
