"""Monte Carlo resampling engine for vote-count sweeps.

For each vote count n and repetition i, every condition gets n fresh
votes, each drawn uniformly, with replacement, from that condition's
votes.  That is the two-stage draw of the paper: a user with the
probability that they cast a condition's vote, P(u) = N_u / N_c, then a
score from that user's empirical distribution, P(s | u) = N_us / N_u,
picks (user, score) with probability N_us / N_c, the share of the
condition's votes that are theirs.  Vote-count-dependent metrics are
evaluated per run and aggregated into mean/CI curves over the runs.

Metrics
-------
``validity_srcc`` / ``validity_rmse``
    SRCC and RMSE of the run's MOS vector against an external reference
    table; with ``--fom``, the RMSE follows a per-run linear map onto it.
``gain_srcc`` / ``gain_rmse``
    the same two statistics against the full dataset's own
    (user-balanced) MOS vector over every condition, never mapped.
    Both SRCCs rank the run's MOS by its integer vote sums, from a
    histogram without a sort, and get the float MOS's ranks bit for bit
    (see ``stats._counted_ranks``); the two fixed vectors are ranked once.
``ci_width``
    average width of the per-condition MOS's percentile-bootstrap CI,
    computed exactly from the votes without resampling; one
    ``bootstrap_ci_mos`` call per run covers every condition.
``irr``
    inter-rater reliability: each sampled user's per-condition means
    rank-correlated against everyone else's, averaged over users, in one
    grouped rank correlation per run; others' means within 1e-12 of each
    other rank as ties (see ``_pair_irr``).  A user counts on at least 3
    conditions shared with someone else: a rank correlation of fewer
    points is undefined.

Results
-------
A sweep holds the runs of each vote count n in one (metrics, runs) float
array, NaN where a run's statistic is undefined, and gives a list of
:class:`MetricCurve`, one per metric in the configuration's order, which
the curve writers and readers take.

Reproducibility
---------------
Run i at vote count n draws all of its votes from one stream,
``Generator(PCG64(SeedSequence(master_seed, spawn_key=(n, i))))``, in one
``random((conditions, n))`` call: vote t of condition j is entry
``floor(u[j, t] * N_j)`` of the condition's N_j votes, ordered by (user,
score).  Conditions and users are in sorted-id order (see
:mod:`qvotes.data`), so the rows of that call, each condition's vote
order, and the order in which IRR averages its raters do not depend on
the order of the input rows.  Every metric is a deterministic function
of the drawn votes, so outputs are bitwise identical for a fixed
(dataset, config, seed) triple, and for any row order of the dataset's
file.  A curve point depends only on (dataset, n, runs, seed, config),
not on the rest of the n grid, and adding metrics to a sweep never
perturbs the others.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stats
from .bootstrap import _check_tail, bootstrap_ci_mos
from .data import (
    SCORE_MAX,
    SCORE_MIN,
    RatingDataset,
    ReferenceMos,
    _csv_table,
    _is_utf8,
    _read_text,
    _shared_reference,
)
from .errors import ConfigError, DataError, DegenerateDataError, _integer

VALIDITY_SRCC = "validity_srcc"
VALIDITY_RMSE = "validity_rmse"
GAIN_SRCC = "gain_srcc"
GAIN_RMSE = "gain_rmse"
CI_WIDTH = "ci_width"
IRR = "irr"

ALL_METRICS = (VALIDITY_SRCC, VALIDITY_RMSE, GAIN_SRCC, GAIN_RMSE, CI_WIDTH, IRR)
REFERENCE_METRICS = frozenset((VALIDITY_SRCC, VALIDITY_RMSE))

DELTA_BASELINE_N = 10


@dataclass(frozen=True)
class SweepConfig:
    """Simulation plan for one dataset.

    ``ci_level`` governs both the per-condition bootstrap intervals and
    the across-runs CI attached to each curve point.
    """

    n_values: tuple[int, ...] = tuple(range(10, 201, 10))
    repetitions: int = 250
    master_seed: int = 0
    metrics: tuple[str, ...] = tuple(m for m in ALL_METRICS if m not in REFERENCE_METRICS)
    ci_level: float = 0.95
    apply_first_order_map: bool = False

    def __post_init__(self):
        n_values = tuple(_integer("each of n_values", n) for n in self.n_values)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "repetitions", _integer("repetitions", self.repetitions))
        object.__setattr__(self, "master_seed", _integer("master_seed", self.master_seed))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.n_values:
            raise ConfigError("n_values must not be empty")
        if self.n_values[0] < 1 or any(
            b <= a for a, b in zip(self.n_values, self.n_values[1:])
        ):
            raise ConfigError("n_values must be strictly increasing positive integers")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        if not self.metrics:
            raise ConfigError("metrics must not be empty")
        unknown = [m for m in self.metrics if m not in ALL_METRICS]
        if unknown:
            raise ConfigError(
                f"unknown metric(s) {unknown}; valid metrics: {', '.join(ALL_METRICS)}"
            )
        if len(set(self.metrics)) != len(self.metrics):
            raise ConfigError("metrics must not repeat")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError(f"ci_level must be in (0, 1), got {self.ci_level}")
        if CI_WIDTH in self.metrics:
            _check_tail(self.ci_level, "ci_level")
        # One vote per condition has no spread to bootstrap and gives no
        # rater another on the same condition to compare with.
        needs_two = [m for m in (CI_WIDTH, IRR) if m in self.metrics]
        if needs_two and self.n_values[0] < 2:
            raise ConfigError(
                f"metric(s) {', '.join(needs_two)} need at least 2 votes per "
                f"condition; the sweep starts at n={self.n_values[0]}"
            )


class CurvePoint(NamedTuple):
    n: int
    mean: float
    ci_low: float
    ci_high: float
    std_dev: float


CURVE_CSV_COLUMNS = ("metric", "dataset", *CurvePoint._fields)


@dataclass(frozen=True)
class MetricCurve:
    """One metric as a function of vote count, with across-run spread."""

    metric: str
    dataset_label: str
    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        points = tuple(
            CurvePoint(_integer("curve point n", p[0], DataError), *p[1:]) for p in self.points
        )
        object.__setattr__(self, "points", points)
        curve = f"{self.metric} curve of dataset {self.dataset_label!r}"
        if not points:
            raise DataError(f"{curve} has no points")
        ns = [p.n for p in points]
        if ns[0] < 1:
            raise DataError(f"{curve}: curve point n must be positive, got {ns[0]}")
        for a, b in zip(ns, ns[1:]):
            if b <= a:
                raise DataError(
                    f"{curve}: curve points must have strictly increasing n, got {b} after {a}"
                )
        for p in points:
            bad = [name for name, value in zip(p._fields[1:], p[1:]) if not math.isfinite(value)]
            if bad:
                raise DataError(f"{curve}: curve point at n={p.n} has non-finite {', '.join(bad)}")
            if not p.ci_low <= p.mean <= p.ci_high:
                raise DataError(f"{curve}: curve point at n={p.n} has mean outside its CI")
            if p.std_dev < 0.0:
                raise DataError(f"{curve}: curve point at n={p.n} has negative std_dev")

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(p.n for p in self.points)

    def point_at(self, n: int) -> CurvePoint:
        for p in self.points:
            if p.n == n:
                return p
        raise DataError(f"no curve point at n={n}")


# -- sampling ----------------------------------------------------------------


def _draw_votes(ds: RatingDataset, n: int, rng: np.random.Generator):
    """``n`` votes for each of the k conditions, each one uniform over its
    condition's votes, from one ``rng.random((k, n))`` call.  Returns
    (scores, positions), each a (k, n) matrix; a vote's position indexes
    the dataset's votes, so ``ds._vote_rows[positions]`` are the votes'
    (condition, user) rows, gathered only by the metrics that read them."""
    sizes = ds._cond_totals
    # u < 1 and N below 2^53, so the rounded product stays below N.
    index = (rng.random((sizes.size, n)) * sizes[:, None]).astype(np.intp)
    index += ds._vote_bounds[:-1, None]
    return ds._vote_scores[index], index


def _run_stream(master_seed: int, n: int, run_index: int) -> np.random.Generator:
    """The stream of run ``run_index`` at vote count ``n``."""
    if master_seed < 0 or run_index < 0:
        raise ConfigError(
            f"seeds and run indices must be non-negative, got {master_seed} and {run_index}"
        )
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(n, run_index)))
    )


def draw_run_sample(
    ds: RatingDataset, n: int, run_index: int, master_seed: int
) -> dict[str, tuple[np.ndarray, tuple[str, ...]]]:
    """The votes of run ``run_index`` at vote count ``n``, exactly as the
    sweep engine draws them: per condition id, in the dataset's order, the
    sampled scores and the users who cast them."""
    n = _integer("n", n)
    run_index = _integer("run_index", run_index)
    master_seed = _integer("master_seed", master_seed)
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    scores, positions = _draw_votes(ds, n, _run_stream(master_seed, n, run_index))
    user_rows = ds._user_rows[ds._vote_rows[positions]].tolist()
    return {
        condition: (scores[j], tuple(map(ds.users.__getitem__, user_rows[j])))
        for j, condition in enumerate(ds.conditions)
    }


# -- per-run metric evaluation ---------------------------------------------


# Others' means closer than this rank as ties (see ``_pair_irr``).
_IRR_TIE = 1e-12


def _pair_irr(ds: RatingDataset, rows: np.ndarray, means: np.ndarray):
    """IRR of the ascending (condition, user) rows ``rows`` with their
    mean scores ``means``: each user's own means rank-correlated with
    everyone else's, on conditions where at least two users have a row.

    The user indices are ``stats._grouped_srcc``'s group labels as they
    are, so a user with no pair has an empty group.  Users whose rank
    correlation is undefined (an empty group, fewer than 3 conditions, or
    constant own or others' means) are dropped, and the rest averaged in
    order of user index; NaN if no user is left.

    Each condition's total is one ``bincount`` sum, and a user's others'
    mean on it is ``(total - own) / (m - 1)`` over its m rows.  Two
    others' means of one user within 1e-12 of each other rank as tied,
    so that float rounding cannot split or join ties of the exact
    rational means.  Means lie in [1, 5], so rounding moves each computed
    others' mean by at most about 5·m·2^-53: equal exact means land within
    1e-12 of each other for m <= 500.  Distinct rationals p/q and p'/q'
    differ by at least 1/(q·q'), over 1e-12 while q·q' < 1e12, where q is
    (m - 1) times the lcm of the vote counts of the condition's rows.
    That bound holds for ``irr_full`` with a few votes per rater, but not
    in general for a sampled run, whose per-rater vote counts can have a
    far larger lcm: there, distinct means closer than 1e-12 rank as tied.
    Own means are one correctly rounded division each and rank exactly.
    """
    cond = ds._row_conds[rows]
    k = len(ds.conditions)
    sizes = np.bincount(cond, minlength=k)[cond]
    # Rows alone on their condition drop out; most runs have none.
    if sizes.min(initial=2) < 2:
        keep = np.flatnonzero(sizes >= 2)
        if not keep.size:
            return math.nan
        rows, cond, sizes, means = rows[keep], cond[keep], sizes[keep], means[keep]
    # The dropped rows are their conditions' only ones, so the totals of
    # the others hold the same terms, in the same order, either way.
    totals = np.bincount(cond, weights=means, minlength=k)
    others = (totals[cond] - means) / (sizes - 1)
    values = stats._grouped_srcc(ds._user_rows[rows], means, others, _IRR_TIE)
    values = values[~np.isnan(values)]
    return float(np.mean(values)) if values.size else math.nan


def _sampled_irr(ds: RatingDataset, scores: np.ndarray, positions: np.ndarray):
    """IRR of one run's votes, given with their positions among the
    dataset's votes."""
    flat = ds._vote_rows[positions].ravel()
    counts = np.bincount(flat, minlength=ds._row_bounds[-1])
    sums = np.bincount(flat, weights=scores.ravel(), minlength=counts.size)
    present = np.flatnonzero(counts)
    return _pair_irr(ds, present, sums[present] / counts[present])


class _Target(NamedTuple):
    """A fixed MOS vector that each run's MOS vector is compared with."""

    srcc: str  # the metric names of the two statistics
    rmse: str
    index: np.ndarray | None  # the conditions compared; None for every one
    values: np.ndarray
    ranks: tuple | None  # stats._centred_ranks(values), when srcc is asked for
    mapped: bool  # map the run's MOS onto values first (--fom)
    mean: np.float64  # values.mean(), and values less it, for the map
    centred: np.ndarray


def _target(
    cfg: SweepConfig, srcc: str, rmse: str, index, values, constant: str, mapped: bool = False
) -> _Target:
    """The comparison with ``values``.  A rank correlation against a
    constant vector is undefined for every run: an error before sampling.

    Every statistic of a run against ``values`` skips the input checks of
    the public :mod:`qvotes.stats` functions, because the sweep guarantees
    what they check: ``values`` holds at least 3 entries and no NaN
    (``load_reference``, ``ReferenceMos`` and ``_shared_reference`` see to
    that for a reference, and ``run_sweep`` for the full-dataset MOS), and
    a run's MOS is finite and in [1, 5], one entry per condition.  What
    depends on ``values`` alone is computed here, once per sweep.
    """
    ranks = None
    if srcc in cfg.metrics:
        ranks = stats._centred_ranks(values)
        if ranks[1] == 0.0:
            raise DegenerateDataError(f"{srcc} is undefined: {constant}")
    mean = values.mean()
    return _Target(srcc, rmse, index, values, ranks, mapped, mean, values - mean)


def _runs_at(ds: RatingDataset, cfg: SweepConfig, n: int, targets: list[_Target]) -> np.ndarray:
    """Every run at vote count ``n``: a (metrics, runs) float array whose
    row m is metric ``cfg.metrics[m]`` and column i run i.  An entry is
    NaN where the run's statistic is undefined: a constant run MOS, no
    line for ``--fom`` to fit, or no eligible IRR rater.

    A run's MOS is its conditions' integer vote sums, each in [n, 5n],
    over n, and ranks as they do: ``stats._counted_ranks`` ranks the sums
    from a histogram, without a sort, exactly (see its docstring)."""
    row = {metric: m for m, metric in enumerate(cfg.metrics)}
    out = np.full((len(row), cfg.repetitions), np.nan)
    # Every target over all conditions shares one ranking of the run's MOS.
    whole = any(t.index is None and t.ranks is not None for t in targets)
    lo, hi = SCORE_MIN * n, SCORE_MAX * n
    for i in range(cfg.repetitions):
        scores, positions = _draw_votes(ds, n, _run_stream(cfg.master_seed, n, i))
        # The integer sums are exact, so these are the float means of the votes.
        sums = scores.sum(axis=1)
        means = sums / n
        whole_ranks = stats._counted_ranks(sums, lo, hi) if whole else None
        for t in targets:
            sub = means if t.index is None else means[t.index]
            if t.ranks is not None:
                ranks = whole_ranks if t.index is None else stats._counted_ranks(
                    sums[t.index], lo, hi
                )
                if ranks[1] != 0.0:
                    out[row[t.srcc], i] = stats._ranked_srcc(ranks, t.ranks)
            if t.rmse in row:
                if t.mapped:
                    if sub.max() == sub.min():  # no line maps a constant run MOS
                        continue
                    sub = stats.LinearMap(*stats._line_fit(sub, t.mean, t.centred)).apply(sub)
                out[row[t.rmse], i] = stats._rmse(sub, t.values)
        if CI_WIDTH in row:
            # cumsum adds left to right, as one call per condition did, where
            # np.sum adds pairwise: so ci_width keeps its bytes.
            low, high = bootstrap_ci_mos(scores, cfg.ci_level)
            out[row[CI_WIDTH], i] = float(np.cumsum(high - low)[-1]) / len(ds.conditions)
        if IRR in row:
            out[row[IRR], i] = _sampled_irr(ds, scores, positions)
    return out


def _aggregate(values: np.ndarray | list, level: float) -> tuple[float, float, float, float]:
    """Mean, Student-t CI bounds and standard deviation across runs; one
    run is its own mean, with a zero-width CI and a zero spread.

    The t quantile comes from ``scipy.special.stdtrit``, the function that
    the ``ppf`` of scipy's Student t distribution wraps, so it is bit for
    bit that ``ppf``.  It is imported here, at first use: a one-run sweep
    never loads scipy.
    """
    if len(values) == 1:
        mean = float(values[0])
        return mean, mean, mean, 0.0
    from scipy.special import stdtrit

    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    t_quantile = float(stdtrit(arr.size - 1, 1.0 - (1.0 - level) / 2.0))
    half = t_quantile * sd / math.sqrt(arr.size)
    return mean, mean - half, mean + half, sd


def run_sweep(
    ds: RatingDataset, ref: ReferenceMos | None, cfg: SweepConfig
) -> list[MetricCurve]:
    """Run the full sweep and return one curve per configured metric.

    Validity metrics require ``ref`` (see :func:`require_reference`); the
    sweep is rejected before any sampling happens otherwise.  The runs of
    each n form one (metrics, runs) array, NaN where a run's statistic is
    undefined (a constant MOS vector, no eligible IRR rater); a point
    aggregates the rest of its row in run order.  The sweep stops at the
    first point with no valid run for some metric: it raises
    :class:`DataError` before any later n is sampled.
    A rank correlation against a constant reference or full-dataset MOS
    is undefined for every run and raises :class:`DegenerateDataError`
    before any sampling.
    """
    require_reference(cfg, ref is not None)
    k = len(ds.conditions)
    targets = []
    if REFERENCE_METRICS.intersection(cfg.metrics):
        index, values = _shared_reference(ds.conditions, ref)
        # The indices ascend, so a reference sharing all k is every condition.
        targets.append(_target(
            cfg, VALIDITY_SRCC, VALIDITY_RMSE, None if index.size == k else index, values,
            "the reference MOS is the same for every shared condition",
            mapped=cfg.apply_first_order_map,
        ))
    if GAIN_SRCC in cfg.metrics or GAIN_RMSE in cfg.metrics:
        if k < 3:
            raise DataError("gain metrics need at least 3 conditions")
        targets.append(_target(
            cfg, GAIN_SRCC, GAIN_RMSE, None, stats.dataset_mos(ds, method="user_balanced").values,
            "every condition has the same full-dataset MOS",
        ))

    points: list[list[CurvePoint]] = [[] for _ in cfg.metrics]
    for n in cfg.n_values:
        for metric, curve, runs in zip(cfg.metrics, points, _runs_at(ds, cfg, n, targets)):
            values = runs[~np.isnan(runs)]
            if not values.size:
                raise DataError(f"no run produced a value for {metric} at n={n}")
            curve.append(CurvePoint(n, *_aggregate(values, cfg.ci_level)))
    return [MetricCurve(m, ds.label, tuple(p)) for m, p in zip(cfg.metrics, points)]


def require_reference(cfg: SweepConfig, given: bool) -> None:
    """Raise :class:`ConfigError` if the sweep has a validity metric and
    no reference MOS table is ``given``."""
    needs_ref = [m for m in cfg.metrics if m in REFERENCE_METRICS]
    if needs_ref and not given:
        raise ConfigError(f"metric(s) {', '.join(needs_ref)} need a reference MOS table")


def require_delta_baseline(cfg: SweepConfig) -> None:
    """Raise :class:`ConfigError` unless the sweep has the n=10 point that
    baseline-shifted curves subtract."""
    if DELTA_BASELINE_N not in cfg.n_values:
        raise ConfigError(
            f"baseline-shifted gain curves need n={DELTA_BASELINE_N} in the sweep"
        )


def certainty_gain(ds: RatingDataset, cfg: SweepConfig) -> list[MetricCurve]:
    """Agreement of subsample MOS vectors with the full dataset's MOS, as
    a function of vote count: :func:`run_sweep`'s ``gain_srcc`` and
    ``gain_rmse`` curves, then the same curves shifted by their value at
    n=10, which the sweep must include (``gain_srcc_delta``, ...)."""
    require_delta_baseline(cfg)
    curves = run_sweep(ds, None, dataclasses.replace(cfg, metrics=(GAIN_SRCC, GAIN_RMSE)))
    for curve in curves[:2]:
        # A pure shift of the mean curve; the per-point run spread is unchanged.
        base = curve.point_at(DELTA_BASELINE_N).mean
        points = tuple(
            CurvePoint(p.n, p.mean - base, p.ci_low - base, p.ci_high - base, p.std_dev)
            for p in curve.points
        )
        curves.append(MetricCurve(curve.metric + "_delta", curve.dataset_label, points))
    return curves


def irr_full(ds: RatingDataset) -> float:
    """Inter-rater reliability of the unsampled dataset.

    For every user, their per-condition mean scores are rank-correlated
    against the user-balanced mean of everyone else on the same
    conditions; the result is the average over users.  A user counts only
    on at least 3 such conditions, since a rank correlation of fewer
    points is undefined, and only if neither side is constant.
    """
    rows = np.arange(ds._row_bounds[-1])
    value = _pair_irr(ds, rows, ds._user_means)
    if math.isnan(value):
        raise DataError("no user has enough rated conditions for reliability")
    return value


# -- curve serialization ----------------------------------------------------


def write_curves_csv(curves: list[MetricCurve], path) -> None:
    """Plot-ready CSV, one row per (metric, n), 6 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_CSV_COLUMNS)
        writer.writerows(
            [curve.metric, curve.dataset_label, p.n, *(f"{v:.6g}" for v in p[1:])]
            for curve in curves
            for p in curve.points
        )


def write_curves_json(
    curves: list[MetricCurve], path, config: SweepConfig | None = None
) -> None:
    """Full-precision JSON bundle with the sweep configuration echoed.

    The file is one line, ``json.dumps(doc)`` and a newline, for ``doc``
    ``{"config": dataclasses.asdict(config) or None, "curves": [{"metric",
    "dataset", "points": [CurvePoint._asdict(), ...]}, ...]}``.  It is not
    indented as the small documents ``cli`` writes are, because ``json``
    indents only in its pure-Python encoder, twice as slow on curve files.
    """
    doc = {
        "config": dataclasses.asdict(config) if config is not None else None,
        "curves": [
            {"metric": c.metric, "dataset": c.dataset_label,
             "points": [p._asdict() for p in c.points]}
            for c in curves
        ],
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc) + "\n")


def _json_point(obj) -> CurvePoint:
    """A curve point from a JSON point object.  ``n`` is checked to be an
    integer by :class:`MetricCurve`; every other field must be a JSON
    number, not a bool or a string."""
    n, *values = (obj[f] for f in CurvePoint._fields)
    for name, value in zip(CurvePoint._fields[1:], values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"curve point {name} must be a number, got {value!r}")
    return CurvePoint(n, *map(float, values))


def read_curves_csv(source) -> list[MetricCurve]:
    """The curves of a curve CSV, as :func:`write_curves_csv` writes it, from
    a path or an open text or binary stream, decoded as the loaders do."""
    return _csv_curves(_read_text(source))


def read_curves_json(source) -> list[MetricCurve]:
    """The curves of a curve JSON bundle, as :func:`write_curves_json` writes
    it, from a path or an open text or binary stream, decoded likewise."""
    return _json_curves(_read_text(source))


def _read_curves(source) -> list[MetricCurve]:
    """The curves of a curve file: JSON if its first character, after an
    optional byte-order mark and whitespace, is ``{``, else CSV."""
    text = _read_text(source)
    return (_json_curves if text.lstrip()[:1] == "{" else _csv_curves)(text)


def _csv_curves(text: str) -> list[MetricCurve]:
    """The curves of curve CSV ``text``, its ``metric`` and ``dataset`` cells
    verbatim.  A row whose n does not exceed the n of its curve's previous
    row raises :class:`DataError` naming its line."""
    rows = _csv_table(text, ",", CURVE_CSV_COLUMNS, {}, CURVE_CSV_COLUMNS)
    index = next(rows)
    grouped: dict[tuple[str, str], list[CurvePoint]] = {}
    for line, row in rows:
        metric, dataset, n, *values = (row[index[c]] for c in CURVE_CSV_COLUMNS)
        try:
            point = CurvePoint(int(n), *map(float, values))
        except ValueError as exc:
            raise DataError(f"malformed curve CSV at line {line}: {exc}") from None
        points = grouped.setdefault((metric, dataset), [])
        if points and point.n <= points[-1].n:
            raise DataError(
                f"malformed curve CSV at line {line}: {metric} curve of dataset {dataset!r} "
                f"has n={point.n} after n={points[-1].n}; its n must strictly increase"
            )
        points.append(point)
    if not grouped:
        raise DataError("curve file has no rows")
    return [MetricCurve(m, d, tuple(points)) for (m, d), points in grouped.items()]


def _json_curves(text: str) -> list[MetricCurve]:
    """The curves of curve JSON ``text``; too deep a nesting, or a second
    curve of one (metric, dataset), is malformed."""
    curves: dict[tuple, MetricCurve] = {}
    try:
        for i, c in enumerate(json.loads(text)["curves"]):
            key = c["metric"], c["dataset"]
            for field, name in zip(("metric", "dataset"), key):
                # A \udcff escape is JSON, but no UTF-8 output can hold it.
                if isinstance(name, str) and not _is_utf8(name):
                    raise DataError(
                        f"malformed curve JSON: curve {i + 1} has {field} {name!r}, "
                        "which is not UTF-8 text"
                    )
            if key in curves:
                raise DataError(
                    f"malformed curve JSON: curve {i + 1} repeats the {key[0]} curve of "
                    f"dataset {key[1]!r}"
                )
            curves[key] = MetricCurve(*key, tuple(_json_point(p) for p in c["points"]))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DataError(f"malformed curve JSON: {exc}") from None
    if not curves:
        raise DataError("curve file has no curves")
    return list(curves.values())
