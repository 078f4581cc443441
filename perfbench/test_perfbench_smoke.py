"""Smoke-size runs of every benchmark workload, so the harness cannot rot."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


WORKLOADS = ("paper_all", "wide_lown", "crowd_irr")  # crowd_irr is run by hand only


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["trace.missing_names"] == 0
        assert values["simulate.run_sweep.calls"] == (2 if workload == "wide_lown" else 1)
        assert (values["bootstrap.bootstrap_ci_mos.calls"] > 0) == (workload == "paper_all")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("paper_all", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_check_flags_a_wrong_curve(tmp_path):
    sys.path.insert(0, str(HERE))
    from checks import check_sweep
    from qvotes.simulate import CurvePoint, MetricCurve, write_curves_csv, write_curves_json

    sigmas = [0.8, 1.0, 1.2] * 20
    grid = (10, 20, 40, 80)

    def problems(scale):
        def point(n):
            mean = scale * math.sqrt(sum(s * s for s in sigmas) / len(sigmas) / n)
            return CurvePoint(n, mean, mean, mean, 0.0)

        curves = [MetricCurve("gain_rmse", "toy", tuple(point(n) for n in grid))]
        write_curves_csv(curves, tmp_path / "c.csv")
        write_curves_json(curves, tmp_path / "c.json")
        return check_sweep(tmp_path / "c.csv", tmp_path / "c.json", ["gain_rmse"], grid, 1, "toy", sigmas)

    assert problems(1.0) == []
    assert problems(1.25)
