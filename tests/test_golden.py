"""Golden regression: fixed ``qvotes simulate --delta`` sweeps must keep
reproducing their recorded CSV files byte for byte, whatever the order of
the rows of the ratings file.

Both sweep files were written by qvotes 0.4.0, the first version to draw each
vote as a uniform index into its condition's votes from one stream per
(n, run), with conditions and users in sorted-id order:
``golden_sweep.csv`` (all six metrics, n >= 10) and
``golden_sweep_lown.csv`` (a wide, sparse study at n = 2..20 with
``--fom``, no ci_width).  ``golden_fit.json`` holds the ``qvotes fit``
model of every curve in both files, as written by qvotes 0.6.0, the first
version to fit by variable projection.  qvotes 0.12.0 re-recorded the
``irr`` row at n = 20 of ``golden_sweep.csv`` and that file's ``irr`` fit:
its IRR ranks others' means within 1e-12 as ties, and that row holds the
one run in which float totals had split a tie of the exact means.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import make_dataset, mos_dict, raters, synthetic_dataset, votes
from qvotes import RatingDataset, dataset_mos
from qvotes.cli import main
from qvotes.simulate import read_curves_csv

DATA = Path(__file__).resolve().parent / "data"


def sparse_dataset() -> RatingDataset:
    """A wide, sparse study: 40 conditions, each rated by 2 to 5 of 16
    raters, and about a third of those raters vote twice."""
    rng = np.random.default_rng(43)
    quality = np.linspace(1.3, 4.7, 40)
    bias = rng.normal(0.0, 0.3, 16)
    rows = []
    for c in range(40):
        for u in rng.choice(16, size=2 + c % 4, replace=False):
            for _ in range(1 + int(rng.random() < 0.3)):
                score = int(np.clip(round(quality[c] + bias[u] + rng.normal(0.0, 0.8)), 1, 5))
                rows.append((f"s{c:02d}", f"r{u:02d}", score))
    ds = make_dataset(rows, label="golden")
    counts = [len(raters(ds, c)) for c in ds.conditions]
    assert min(counts) == 2 and counts.count(2) >= 5
    return ds


CASES = {
    "all_metrics": (
        lambda: synthetic_dataset(seed=41, n_conditions=12, n_users=24, label="golden"),
        ("--n", "10:50:10", "--runs", "8", "--seed", "2020", "--delta"),
        "golden_sweep.csv",
    ),
    "wide_lown": (
        sparse_dataset,
        ("--n", "2:20:2", "--runs", "6", "--seed", "2021", "--fom", "--delta",
         "--metrics", "validity_srcc,validity_rmse,gain_srcc,gain_rmse"),
        "golden_sweep_lown.csv",
    ),
}


def write_inputs(directory: Path, ds: RatingDataset, order=None) -> tuple[Path, Path]:
    """The dataset's ratings, their rows permuted by ``order`` if given,
    and a reference table offset from its own MOS by a deterministic
    wiggle."""
    ratings = directory / "golden.csv"
    rows = [f"{v.condition_id},{v.user_id},{v.score}" for v in votes(ds)]
    if order is not None:
        rows = [rows[i] for i in order(len(rows))]
    ratings.write_text("\n".join(["condition_id,user_id,score", *rows]) + "\n")
    reference = directory / "golden_ref.csv"
    mos = mos_dict(dataset_mos(ds, "user_balanced"))
    ref_lines = ["condition_id,mos"]
    ref_lines += [
        f"{c},{min(5.0, max(1.0, v + 0.25 * math.sin(3 * j))):.4f}"
        for j, (c, v) in enumerate(mos.items())
    ]
    reference.write_text("\n".join(ref_lines) + "\n")
    return ratings, reference


def run_golden_sweep(directory: Path, case: str, *extra: str, order=None) -> Path:
    make, args, _ = CASES[case]
    ratings, reference = write_inputs(directory, make(), order)
    out = directory / "sweep"
    argv = ["simulate", str(ratings), "--ref", str(reference), *args, *extra,
            "--out", str(out)]
    assert main(argv) == 0
    return out.with_suffix(".csv")


@pytest.mark.parametrize("case", CASES)
def test_sweep_matches_golden(tmp_path, case):
    golden = DATA / CASES[case][2]
    assert run_golden_sweep(tmp_path, case).read_text() == golden.read_text()


ROW_ORDERS = {
    "reversed": lambda size: range(size - 1, -1, -1),
    "shuffled": lambda size: np.random.default_rng(5).permutation(size),
}


@pytest.mark.parametrize("order", ROW_ORDERS)
@pytest.mark.parametrize("case", CASES)
def test_row_order_does_not_change_the_sweep(tmp_path, case, order):
    golden = DATA / CASES[case][2]
    out = run_golden_sweep(tmp_path, case, order=ROW_ORDERS[order])
    assert out.read_text() == golden.read_text()


@pytest.mark.parametrize("curves", [case[2] for case in CASES.values()])
def test_fit_matches_golden(tmp_path, curves):
    expected = json.loads((DATA / "golden_fit.json").read_text())[curves]
    metrics = [c.metric for c in read_curves_csv(DATA / curves)]
    assert sorted(expected) == sorted(metrics)
    for metric in metrics:
        out = tmp_path / f"{metric}.json"
        assert main(["fit", str(DATA / curves), "--metric", metric, "--out", str(out)]) == 0
        model = json.loads(out.read_text())
        for key, value in expected[metric].items():
            assert model[key] == pytest.approx(value, rel=1e-9), (metric, key)
