"""Output checks for one ``qvotes simulate`` + ``qvotes fit`` invocation.

Every check returns a list of problems; an empty list means the outputs
are correct.  The analytic oracles use only the ratings file and the
standard library, so they are independent of the code under test:

* ``gain_rmse(n)^2 ~= mean_j sigma_j^2 / n``.  Every generated rater casts
  at most one vote per condition, so the two-stage pmf of condition j is
  the empirical distribution of its votes, the user-balanced MOS is its
  mean, and a mean of n draws from it has variance sigma_j^2 / n.
* ``ci_width(n) ~= 2 z mean_j sigma_j sqrt((n-1)/n) / sqrt(n)``, the normal
  approximation to the percentile bootstrap of a mean of n votes; it is
  checked only for n >= 50, where that approximation is within ~2%.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from statistics import NormalDist, fmean, pstdev

CORRELATIONS = ("validity_srcc", "gain_srcc", "irr")
NONNEGATIVE = ("validity_rmse", "gain_rmse")
CI_ORACLE_MIN_N = 50


def condition_sigmas(ratings_path: Path) -> list[float]:
    """Population standard deviation of each condition's votes."""
    votes: dict[str, list[int]] = {}
    with open(ratings_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            votes.setdefault(row["condition_id"], []).append(int(row["score"]))
    return [pstdev(v) for v in votes.values()]


def check_sweep(csv_path, json_path, expected_metrics, grid, runs, label, sigmas) -> list[str]:
    """Parse the curve files with the package's own readers and check
    shape, domains, delta consistency and the analytic oracles."""
    from qvotes.errors import QvotesError
    from qvotes.simulate import read_curves_csv, read_curves_json

    try:
        curves = read_curves_csv(csv_path)
        json_curves = read_curves_json(json_path)
    except (QvotesError, OSError, ValueError, KeyError) as exc:
        return [f"curve files do not parse: {exc}"]
    problems = []
    metrics = [c.metric for c in curves]
    if metrics != list(expected_metrics):
        return [f"curve metrics {metrics} != expected {list(expected_metrics)}"]
    if [c.metric for c in json_curves] != metrics:
        problems.append("JSON curves do not match the CSV curves")
    by_metric = {c.metric: c for c in curves}
    for curve, twin in zip(curves, json_curves):
        if curve.dataset_label != label:
            problems.append(f"{curve.metric}: dataset label {curve.dataset_label!r} != {label!r}")
        if list(curve.n_values) != list(grid) or list(twin.n_values) != list(grid):
            problems.append(f"{curve.metric}: n grid {list(curve.n_values)} != {list(grid)}")
            continue
        for p, q in zip(curve.points, twin.points):
            if not math.isclose(p.mean, q.mean, rel_tol=1e-5, abs_tol=1e-9):
                problems.append(f"{curve.metric} n={p.n}: CSV mean {p.mean} != JSON mean {q.mean}")
            if not (p.ci_low <= p.mean <= p.ci_high) or p.std_dev < 0 or (runs == 1 and p.std_dev != 0):
                problems.append(f"{curve.metric} n={p.n}: bad spread {p}")
            if curve.metric in CORRELATIONS and not -1.0 <= p.mean <= 1.0:
                problems.append(f"{curve.metric} n={p.n}: mean {p.mean} outside [-1, 1]")
            if curve.metric in NONNEGATIVE and p.mean < 0.0:
                problems.append(f"{curve.metric} n={p.n}: mean {p.mean} < 0")
            if curve.metric == "ci_width" and not 0.0 <= p.mean <= 4.0:
                problems.append(f"ci_width n={p.n}: mean {p.mean} outside [0, 4]")
        if curve.metric.endswith("_delta"):
            base = by_metric[curve.metric[: -len("_delta")]]
            shift = base.point_at(10).mean
            for p, b in zip(curve.points, base.points):
                if not math.isclose(p.mean, b.mean - shift, abs_tol=2e-5):
                    problems.append(f"{curve.metric} n={p.n}: {p.mean} != {b.mean} - {shift}")
    # Each point averages len(sigmas) * runs independent per-condition
    # terms.  A squared error has relative variance ~2, so the RMSE has
    # ~1/2; a bootstrap width varies with the sample SD (~1/(2n)) and with
    # its two 1000-resample quantiles (~0.002).
    terms = len(sigmas) * runs
    if "gain_rmse" in by_metric:
        problems += _oracle(
            "gain_rmse", by_metric["gain_rmse"].points,
            lambda n: math.sqrt(fmean(s * s for s in sigmas) / n),
            lambda n: math.sqrt(0.5 / terms),
            bias=0.01,  # Jensen: E[rmse] / sqrt(E[rmse^2]) ~ 1 - 1/(4 * conditions)
        )
    if "ci_width" in by_metric:
        z = NormalDist().inv_cdf(0.975)
        problems += _oracle(
            "ci_width", [p for p in by_metric["ci_width"].points if p.n >= CI_ORACLE_MIN_N],
            lambda n: 2.0 * z * fmean(sigmas) * math.sqrt((n - 1) / n) / math.sqrt(n),
            lambda n: math.sqrt((0.5 / n + 0.002) / terms),
            bias=0.02,  # normal approximation and the bootstrap's quantile convention
        )
    return problems


def _oracle(metric, points, predict, rel_sd, bias) -> list[str]:
    """Compare curve means with ``predict(n)``, allowing five relative
    standard deviations per point and four over the mean of all points,
    plus the oracle's own relative ``bias``."""
    if not points:
        return []
    ratios = [p.mean / predict(p.n) for p in points]
    problems = [
        f"{metric} n={p.n}: {p.mean:.5g} vs oracle {predict(p.n):.5g}"
        for p, r in zip(points, ratios)
        if abs(r - 1.0) > 5.0 * rel_sd(p.n) + bias
    ]
    mean_ratio = fmean(ratios)
    pooled_sd = math.sqrt(fmean(rel_sd(p.n) ** 2 for p in points) / len(points))
    if abs(mean_ratio - 1.0) > 4.0 * pooled_sd + bias:
        problems.append(f"{metric}: mean ratio to oracle {mean_ratio:.4f}")
    return problems


def check_manifest(path, seed, input_digests) -> list[str]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    if doc.get("master_seed") != seed:
        problems.append(f"manifest seed {doc.get('master_seed')} != {seed}")
    if sorted(doc.get("input_digests", {}).values()) != sorted(input_digests):
        problems.append("manifest input digests do not match the generated inputs")
    return problems


def check_fit(path, metric, n_points) -> list[str]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"fit of {metric} unreadable: {exc}"]
    if doc.get("metric") != metric or doc.get("n_points") != n_points:
        return [f"fit of {metric}: wrong metric or point count in {doc}"]
    if not all(isinstance(doc.get(k), float) and math.isfinite(doc[k]) for k in ("a", "b", "c")):
        return [f"fit of {metric}: non-finite parameters in {doc}"]
    return []
