"""Two-stage Monte Carlo resampling engine for vote-count sweeps.

For each vote count n and repetition i, every condition gets n fresh
votes drawn in two stages: first a user according to the empirical
probability that this user rated the condition, then a score from that
user's empirical score distribution.  Vote-count-dependent metrics are
evaluated per run and aggregated into mean/CI curves over the runs.

Metrics
-------
``validity_srcc`` / ``validity_rmse``
    agreement of the run's MOS vector with an external reference table.
``gain_srcc`` / ``gain_rmse``
    agreement of the run's MOS vector with the full dataset's own
    (user-balanced) MOS vector.
``ci_width``
    average percentile-bootstrap CI width of the per-condition MOS.
``irr``
    inter-rater reliability: each sampled user's per-condition means
    rank-correlated against everyone else's, averaged over users, in one
    grouped rank correlation per run.

Reproducibility
---------------
Run i at vote count n touching condition j draws from the substream
``SeedSequence(master_seed, spawn_key=(purpose, n, i, j))`` where purpose
0 is vote sampling and 1 is bootstrap resampling.  The substream states of
a whole run are computed at once (``_substreams``), bit for bit those of
that ``SeedSequence`` seeding a ``PCG64``; an oracle test pins this.
Outputs are therefore bitwise identical for a fixed (dataset, config,
seed) triple regardless of worker count or scheduling, and adding metrics
to a sweep never perturbs the votes drawn for the others.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stats
from .bootstrap import bootstrap_ci_mos
from .data import RatingDataset, ReferenceMos
from .errors import ConfigError, DataError, DegenerateDataError

VALIDITY_SRCC = "validity_srcc"
VALIDITY_RMSE = "validity_rmse"
GAIN_SRCC = "gain_srcc"
GAIN_RMSE = "gain_rmse"
CI_WIDTH = "ci_width"
IRR = "irr"

ALL_METRICS = (VALIDITY_SRCC, VALIDITY_RMSE, GAIN_SRCC, GAIN_RMSE, CI_WIDTH, IRR)
REFERENCE_METRICS = frozenset((VALIDITY_SRCC, VALIDITY_RMSE))

DELTA_BASELINE_N = 10

_PURPOSE_SAMPLE = 0
_PURPOSE_BOOT = 1

THREADS_ENV = "QVOTES_THREADS"

CURVE_CSV_COLUMNS = ("metric", "dataset", "n", "mean", "ci_low", "ci_high", "std_dev")


@dataclass(frozen=True)
class SweepConfig:
    """Simulation plan for one dataset.

    ``ci_level`` governs both the per-condition bootstrap intervals and
    the across-runs CI attached to each curve point.
    """

    n_values: tuple[int, ...] = tuple(range(10, 201, 10))
    repetitions: int = 250
    master_seed: int = 0
    metrics: tuple[str, ...] = (GAIN_SRCC, GAIN_RMSE, CI_WIDTH, IRR)
    bootstrap_resamples: int = 1000
    ci_level: float = 0.95
    apply_first_order_map: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
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
        if self.bootstrap_resamples < 100:
            raise ConfigError(
                f"bootstrap_resamples must be >= 100, got {self.bootstrap_resamples}"
            )
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError(f"ci_level must be in (0, 1), got {self.ci_level}")


class CurvePoint(NamedTuple):
    n: int
    mean: float
    ci_low: float
    ci_high: float
    std_dev: float


@dataclass(frozen=True)
class MetricCurve:
    """One metric as a function of vote count, with across-run spread."""

    metric: str
    dataset_label: str
    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(CurvePoint(*p) for p in self.points))
        ns = [p.n for p in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise DataError("curve points must have strictly increasing n")
        for p in self.points:
            if not p.ci_low <= p.mean <= p.ci_high:
                raise DataError(f"curve point at n={p.n} has mean outside its CI")

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(p.n for p in self.points)

    @property
    def means(self) -> np.ndarray:
        return np.array([p.mean for p in self.points])

    def point_at(self, n: int) -> CurvePoint:
        for p in self.points:
            if p.n == n:
                return p
        raise DataError(f"no curve point at n={n}")


@dataclass(frozen=True)
class RunSample:
    """All votes drawn for one simulation run: per condition, the sampled
    scores and the users who cast them."""

    run_index: int
    per_condition_votes: dict[str, tuple[np.ndarray, tuple[str, ...]]]


@dataclass(frozen=True)
class CertaintyGain:
    """Gain curves against the full dataset, plus their baseline-shifted
    versions (value at the n=10 point subtracted)."""

    gain_srcc: MetricCurve
    gain_rmse: MetricCurve
    delta_srcc: MetricCurve | None
    delta_rmse: MetricCurve | None


# -- substreams ------------------------------------------------------------
#
# ``Generator(PCG64(SeedSequence(master_seed, spawn_key=(purpose, n, run, j))))``
# for every condition j of one run at once, with numpy's constants and
# steps.  The pool hash mixes the entropy words (the master seed's 32-bit
# words, padded to four, then the spawn key's) in order.  Only the last word
# depends on j, so all rounds before it are one scalar computation and only
# the last round runs over a uint32 array.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    if value < 0:
        raise ConfigError(f"seeds and run indices must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


# _hashmix and _mix take Python ints or uint32 arrays (which wrap by themselves).
def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix; returns (mixed value, next hash constant)."""
    next_const = (hash_const * _MULT_A) & _MASK32
    value = ((value ^ hash_const) * next_const) & _MASK32
    return value ^ (value >> 16), next_const


def _mix(x, y):
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _seed_words(master_seed: int, key: tuple[int, ...], k: int) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=key + (j,)).generate_state(4,
    np.uint64)`` for j = 0..k-1, as a (k, 4) array."""
    entropy: list = _uint32_words(master_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for part in key:
        entropy += _uint32_words(part)
    entropy.append(np.arange(k, dtype=np.uint32))
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state: eight uint32 words cycled out of the pool, paired
    # little-endian into four uint64 words.
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack(
        [words[2 * w] | (words[2 * w + 1] << np.uint64(32)) for w in range(4)], axis=1
    )


def _substreams(master_seed: int, purpose: int, n: int, run_index: int, k: int):
    """Generators of the substreams ``(purpose, n, run_index, j)`` for
    j = 0..k-1, in order; each is bit for bit
    ``Generator(PCG64(SeedSequence(master_seed, spawn_key=(purpose, n, run_index, j))))``.

    One generator is re-seeded for each j, so the caller must be done with
    one before it takes the next.
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, q_hi, q_lo in _seed_words(master_seed, (purpose, n, run_index), k).tolist():
        # PCG64 seeding: initstate and initseq are (high, low) word pairs.
        inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
        pcg["inc"] = inc
        pcg["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = state
        yield rng


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else QVOTES_THREADS, else CPUs."""
    if workers is None:
        env = os.environ.get(THREADS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return workers


def sample_condition(
    ds: RatingDataset,
    condition_id: str,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[str]]:
    """Draw ``n`` votes for one condition, with replacement, user first
    then score.  Returns the scores and the drawn users' ids."""
    _check_votes(n)
    cache = ds.condition_votes(ds.condition_index(condition_id))
    scores, rows = cache.sample(n, rng)
    users = [ds.users[g] for g in cache.user_rows[rows]]
    return scores, users


def draw_run_sample(
    ds: RatingDataset, n: int, run_index: int, master_seed: int
) -> RunSample:
    """The full per-condition sample for run ``run_index`` at vote count
    ``n``, exactly as the sweep engine would draw it."""
    votes: dict[str, tuple[np.ndarray, tuple[str, ...]]] = {}
    for j, scores, rows in _run_votes(ds, n, run_index, master_seed):
        user_rows = ds.condition_votes(j).user_rows[rows].tolist()
        votes[ds.conditions[j]] = (scores, tuple(map(ds.users.__getitem__, user_rows)))
    return RunSample(run_index=run_index, per_condition_votes=votes)


def _check_votes(n: int) -> None:
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")


def _run_votes(ds: RatingDataset, n: int, run_index: int, master_seed: int):
    """The one sampling path of a run: yields (j, scores, local user rows)
    for every condition j in order, each drawn from its own substream."""
    _check_votes(n)
    streams = _substreams(master_seed, _PURPOSE_SAMPLE, n, run_index, len(ds.conditions))
    for j, rng in enumerate(streams):
        scores, rows = ds.condition_votes(j).sample(n, rng)
        yield j, scores, rows


# -- per-run metric evaluation ---------------------------------------------


@dataclass(frozen=True)
class _RefContext:
    local_idx: np.ndarray  # condition indices shared with the reference
    values: np.ndarray


def _irr(users: list, own: list, others: list, min_conditions: int):
    """Mean leave-one-out SRCC over users with enough usable conditions.

    The lists hold one array per condition, with an entry per user on it:
    the user's index, their own mean on the condition and everyone else's.
    Users with fewer than ``min_conditions`` conditions, or whose rank
    correlation is undefined (fewer than 3 conditions, or constant own or
    others' means), are skipped; None if no user is left.
    """
    if not users:
        return None
    users, own, others = (np.concatenate(x) for x in (users, own, others))
    _, first, labels = np.unique(users, return_index=True, return_inverse=True)
    values = stats.grouped_srcc(labels, own, others)
    keep = (np.bincount(labels) >= min_conditions) & ~np.isnan(values)
    if not keep.any():
        return None
    # Average in order of first appearance, as a per-user loop over the
    # conditions would, so the floating-point sum is the same.
    return float(np.mean(values[keep][np.argsort(first[keep])]))


def _unless_degenerate(statistic, *args) -> float | None:
    """``statistic(*args)``, or None where it is mathematically undefined."""
    try:
        return statistic(*args)
    except DegenerateDataError:
        return None


def _mapped_rmse(x: np.ndarray, y: np.ndarray) -> float:
    """RMSE of ``y`` against ``x`` after a first-order map of ``x`` onto ``y``."""
    return stats.rmse(stats.fit_line(x, y).apply(x), y)


def _simulate_run(
    ds: RatingDataset,
    cfg: SweepConfig,
    n: int,
    run_index: int,
    ref_ctx: _RefContext | None,
    full_mos: np.ndarray | None,
    irr_min_conditions: int,
) -> dict[str, float | None]:
    metrics = cfg.metrics
    k = len(ds.conditions)
    means = np.empty(k)
    want_ci = CI_WIDTH in metrics
    want_irr = IRR in metrics
    width_sum = 0.0
    pair_users, pair_own, pair_others = [], [], []

    boot_streams = (
        _substreams(cfg.master_seed, _PURPOSE_BOOT, n, run_index, k) if want_ci else None
    )
    for j, scores, rows in _run_votes(ds, n, run_index, cfg.master_seed):
        # The integer sum is exact, so this is the float mean of the votes.
        means[j] = scores.sum() / n
        if want_ci:
            interval = bootstrap_ci_mos(
                scores, cfg.bootstrap_resamples, cfg.ci_level, next(boot_streams)
            )
            width_sum += interval.width
        if want_irr:
            cache = ds.condition_votes(j)
            counts = np.bincount(rows, minlength=cache.user_prob.size)
            present = np.flatnonzero(counts)
            if present.size >= 2:
                sums = np.bincount(
                    rows, weights=scores.astype(float), minlength=cache.user_prob.size
                )
                per_user = sums[present] / counts[present]
                pair_users.append(cache.user_rows[present])
                pair_own.append(per_user)
                pair_others.append((per_user.sum() - per_user) / (present.size - 1))

    # A statistic undefined for this run's votes (a constant MOS vector) is
    # a missing value, as for IRR: run_sweep averages the runs that have one.
    out: dict[str, float | None] = {}
    if VALIDITY_SRCC in metrics or VALIDITY_RMSE in metrics:
        sub = means[ref_ctx.local_idx]
        if VALIDITY_SRCC in metrics:
            out[VALIDITY_SRCC] = _unless_degenerate(stats.srcc, sub, ref_ctx.values)
        if VALIDITY_RMSE in metrics:
            if cfg.apply_first_order_map:
                out[VALIDITY_RMSE] = _unless_degenerate(_mapped_rmse, sub, ref_ctx.values)
            else:
                out[VALIDITY_RMSE] = stats.rmse(sub, ref_ctx.values)
    if GAIN_SRCC in metrics:
        out[GAIN_SRCC] = _unless_degenerate(stats.srcc, means, full_mos)
    if GAIN_RMSE in metrics:
        out[GAIN_RMSE] = stats.rmse(means, full_mos)
    if want_ci:
        out[CI_WIDTH] = width_sum / k
    if want_irr:
        out[IRR] = _irr(pair_users, pair_own, pair_others, irr_min_conditions)
    return out


def _aggregate(values: list[float], level: float) -> tuple[float, float, float, float]:
    """Mean, Student-t CI bounds and standard deviation across runs.

    The t quantile comes from ``scipy.special.stdtrit``, the function that
    the ``ppf`` of scipy's Student t distribution wraps, so it is bit for
    bit that ``ppf``.  It is imported here, at first use: a one-run sweep
    never loads scipy.
    """
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, mean, mean, 0.0
    from scipy.special import stdtrit

    sd = float(arr.std(ddof=1))
    t_quantile = float(stdtrit(arr.size - 1, 1.0 - (1.0 - level) / 2.0))
    half = t_quantile * sd / math.sqrt(arr.size)
    return mean, mean - half, mean + half, sd


def run_sweep(
    ds: RatingDataset,
    ref: ReferenceMos | None,
    cfg: SweepConfig,
    workers: int | None = None,
    irr_min_conditions: int = 3,
) -> list[MetricCurve]:
    """Run the full sweep and return one curve per configured metric.

    Validity metrics require ``ref``; the configuration is rejected
    before any sampling happens otherwise.  A run whose statistic is
    undefined (a constant MOS vector, no eligible IRR rater) is left out
    of that point; a point with no valid run raises :class:`DataError`.
    A rank correlation against a constant reference or full-dataset MOS
    is undefined for every run and raises :class:`DegenerateDataError`
    before any sampling.
    """
    needs_ref = [m for m in cfg.metrics if m in REFERENCE_METRICS]
    if needs_ref and ref is None:
        raise ConfigError(
            f"metric(s) {', '.join(needs_ref)} need a reference MOS table"
        )

    ref_ctx = None
    if needs_ref:
        local = [j for j, c in enumerate(ds.conditions) if c in ref]
        if len(local) < 3:
            raise DataError(
                f"need at least 3 conditions shared with the reference, got {len(local)}"
            )
        ref_ctx = _RefContext(
            local_idx=np.asarray(local, dtype=np.int64),
            values=np.array([ref[ds.conditions[j]] for j in local]),
        )
        if VALIDITY_SRCC in cfg.metrics and np.ptp(ref_ctx.values) == 0.0:
            raise DegenerateDataError(
                f"{VALIDITY_SRCC} is undefined: the reference MOS is the same "
                "for every shared condition"
            )

    full_mos = None
    if GAIN_SRCC in cfg.metrics or GAIN_RMSE in cfg.metrics:
        if len(ds.conditions) < 3:
            raise DataError("gain metrics need at least 3 conditions")
        full_mos = stats.dataset_mos(ds, method="user_balanced").values
        if GAIN_SRCC in cfg.metrics and np.ptp(full_mos) == 0.0:
            raise DegenerateDataError(
                f"{GAIN_SRCC} is undefined: every condition has the same "
                "full-dataset MOS"
            )

    r = cfg.repetitions
    tasks = [(n_idx, i) for n_idx in range(len(cfg.n_values)) for i in range(r)]
    results: list[list[dict[str, float | None] | None]] = [
        [None] * r for _ in cfg.n_values
    ]

    def run_task(task):
        n_idx, i = task
        return _simulate_run(
            ds, cfg, cfg.n_values[n_idx], i, ref_ctx, full_mos, irr_min_conditions
        )

    n_workers = resolve_workers(workers)
    if n_workers == 1 or len(tasks) == 1:
        for task in tasks:
            results[task[0]][task[1]] = run_task(task)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for task, outcome in zip(tasks, pool.map(run_task, tasks)):
                results[task[0]][task[1]] = outcome

    curves = []
    for metric in cfg.metrics:
        points = []
        for n_idx, n in enumerate(cfg.n_values):
            values = [
                results[n_idx][i][metric]
                for i in range(r)
                if results[n_idx][i][metric] is not None
            ]
            if not values:
                raise DataError(f"no run produced a value for {metric} at n={n}")
            mean, lo, hi, sd = _aggregate(values, cfg.ci_level)
            points.append(CurvePoint(n, mean, lo, hi, sd))
        curves.append(MetricCurve(metric=metric, dataset_label=ds.label, points=tuple(points)))
    return curves


def _shift_curve(curve: MetricCurve, baseline: float, suffix: str) -> MetricCurve:
    # Pure shift of the mean curve; per-point run spread is unchanged.
    points = tuple(
        CurvePoint(p.n, p.mean - baseline, p.ci_low - baseline, p.ci_high - baseline, p.std_dev)
        for p in curve.points
    )
    return MetricCurve(metric=curve.metric + suffix, dataset_label=curve.dataset_label, points=points)


def certainty_gain(
    ds: RatingDataset,
    cfg: SweepConfig,
    with_delta: bool = True,
    workers: int | None = None,
) -> CertaintyGain:
    """Agreement of subsample MOS vectors with the full dataset's MOS, as
    a function of vote count.

    With ``with_delta`` the curves shifted by their value at n=10 are also
    returned; the sweep must then include n=10.
    """
    if with_delta and DELTA_BASELINE_N not in cfg.n_values:
        raise ConfigError(
            f"baseline-shifted gain curves need n={DELTA_BASELINE_N} in the sweep"
        )
    gain_cfg = dataclasses.replace(cfg, metrics=(GAIN_SRCC, GAIN_RMSE))
    srcc_curve, rmse_curve = run_sweep(ds, None, gain_cfg, workers=workers)
    delta_srcc = delta_rmse = None
    if with_delta:
        delta_srcc = _shift_curve(
            srcc_curve, srcc_curve.point_at(DELTA_BASELINE_N).mean, "_delta"
        )
        delta_rmse = _shift_curve(
            rmse_curve, rmse_curve.point_at(DELTA_BASELINE_N).mean, "_delta"
        )
    return CertaintyGain(
        gain_srcc=srcc_curve,
        gain_rmse=rmse_curve,
        delta_srcc=delta_srcc,
        delta_rmse=delta_rmse,
    )


def ci_width_curve(
    ds: RatingDataset, cfg: SweepConfig, workers: int | None = None
) -> MetricCurve:
    """Average per-condition bootstrap CI width as a function of vote count."""
    width_cfg = dataclasses.replace(cfg, metrics=(CI_WIDTH,))
    return run_sweep(ds, None, width_cfg, workers=workers)[0]


def irr_curve(
    ds: RatingDataset,
    cfg: SweepConfig,
    min_conditions_per_user: int = 3,
    workers: int | None = None,
) -> MetricCurve:
    """Inter-rater reliability as a function of vote count.

    Users need at least ``min_conditions_per_user`` sampled conditions
    (where someone else also has votes) and defined rank correlations to
    count; ineligible users are skipped, not scored as zero.
    """
    irr_cfg = dataclasses.replace(cfg, metrics=(IRR,))
    return run_sweep(
        ds, None, irr_cfg, workers=workers, irr_min_conditions=min_conditions_per_user
    )[0]


def irr_full(ds: RatingDataset, min_conditions_per_user: int = 3) -> float:
    """Inter-rater reliability of the unsampled dataset.

    For every user, their per-condition mean scores are rank-correlated
    against the user-balanced mean of everyone else on the same
    conditions; the result is the average over eligible users.
    """
    users, own, others = [], [], []
    for j in range(len(ds.conditions)):
        cache = ds.condition_votes(j)
        m = cache.user_rows.size
        if m < 2:
            continue
        per_user = (cache.counts @ stats.SCORE_VALUES) / cache.row_totals
        users.append(cache.user_rows)
        own.append(per_user)
        others.append((per_user.sum() - per_user) / (m - 1))
    value = _irr(users, own, others, min_conditions_per_user)
    if value is None:
        raise DataError("no user has enough rated conditions for reliability")
    return value


# -- curve serialization ----------------------------------------------------


def write_curves_csv(curves: list[MetricCurve], path) -> None:
    """Plot-ready CSV, one row per (metric, n), 6 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_CSV_COLUMNS)
        for curve in curves:
            for p in curve.points:
                writer.writerow(
                    [
                        curve.metric,
                        curve.dataset_label,
                        p.n,
                        f"{p.mean:.6g}",
                        f"{p.ci_low:.6g}",
                        f"{p.ci_high:.6g}",
                        f"{p.std_dev:.6g}",
                    ]
                )


def curves_to_dict(curves: list[MetricCurve], config: SweepConfig | None = None) -> dict:
    doc = {
        "config": dataclasses.asdict(config) if config is not None else None,
        "curves": [
            {
                "metric": c.metric,
                "dataset": c.dataset_label,
                "points": [
                    {
                        "n": p.n,
                        "mean": p.mean,
                        "ci_low": p.ci_low,
                        "ci_high": p.ci_high,
                        "std_dev": p.std_dev,
                    }
                    for p in c.points
                ],
            }
            for c in curves
        ],
    }
    return doc


def write_curves_json(
    curves: list[MetricCurve], path, config: SweepConfig | None = None
) -> None:
    """Full-precision JSON bundle with the sweep configuration echoed."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(curves_to_dict(curves, config), fh, indent=2)
        fh.write("\n")


def read_curves_csv(path) -> list[MetricCurve]:
    grouped: dict[tuple[str, str], list[CurvePoint]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(CURVE_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise DataError(f"curve file missing column(s): {', '.join(sorted(missing))}")
        for row in reader:
            key = (row["metric"], row["dataset"])
            grouped.setdefault(key, []).append(
                CurvePoint(
                    int(row["n"]),
                    float(row["mean"]),
                    float(row["ci_low"]),
                    float(row["ci_high"]),
                    float(row["std_dev"]),
                )
            )
    if not grouped:
        raise DataError("curve file has no rows")
    return [
        MetricCurve(metric=m, dataset_label=d, points=tuple(pts))
        for (m, d), pts in grouped.items()
    ]


def read_curves_json(path) -> list[MetricCurve]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return [
            MetricCurve(
                metric=c["metric"],
                dataset_label=c["dataset"],
                points=tuple(
                    CurvePoint(
                        int(p["n"]),
                        float(p["mean"]),
                        float(p["ci_low"]),
                        float(p["ci_high"]),
                        float(p["std_dev"]),
                    )
                    for p in c["points"]
                ),
            )
            for c in doc["curves"]
        ]
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed curve JSON: {exc}") from None
