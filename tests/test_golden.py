"""Golden regression: a fixed ``qvotes simulate --delta`` sweep over all six
metrics must keep reproducing ``tests/data/golden_sweep.csv``.

The golden file was written by qvotes 0.1.0, before IRR became one grouped
rank correlation per run; every byte must stay the same.
"""

from __future__ import annotations

import math
from pathlib import Path

from conftest import synthetic_dataset
from qvotes import dataset_mos
from qvotes.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_sweep.csv"
GOLDEN_ARGS = ("--n", "10:50:10", "--runs", "8", "--seed", "2020", "--delta")


def write_inputs(directory: Path) -> tuple[Path, Path]:
    """Ratings of a fixed synthetic study and a reference table offset
    from its own MOS by a deterministic wiggle."""
    ds = synthetic_dataset(seed=41, n_conditions=12, n_users=24, label="golden")
    ratings = directory / "golden.csv"
    lines = ["condition_id,user_id,score"]
    lines += [f"{r.condition_id},{r.user_id},{r.score}" for r in ds.to_records()]
    ratings.write_text("\n".join(lines) + "\n")
    reference = directory / "golden_ref.csv"
    mos = dataset_mos(ds, "user_balanced").as_dict()
    ref_lines = ["condition_id,mos"]
    ref_lines += [
        f"{c},{min(5.0, max(1.0, v + 0.25 * math.sin(3 * j))):.4f}"
        for j, (c, v) in enumerate(mos.items())
    ]
    reference.write_text("\n".join(ref_lines) + "\n")
    return ratings, reference


def run_golden_sweep(directory: Path, *extra: str) -> Path:
    ratings, reference = write_inputs(directory)
    out = directory / "sweep"
    argv = ["simulate", str(ratings), "--ref", str(reference), *GOLDEN_ARGS, *extra,
            "--out", str(out)]
    assert main(argv) == 0
    return out.with_suffix(".csv")


def test_sweep_matches_golden(tmp_path):
    assert run_golden_sweep(tmp_path).read_text() == GOLDEN.read_text()
