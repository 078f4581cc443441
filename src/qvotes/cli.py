"""Command-line interface.

Commands: validate, compare, simulate, fit, maxci.  Exit codes are a
stable contract: 0 success, 1 input/validation error, 2 configuration
error.  Every file-writing command also emits a ``*.manifest.json``
recording the tool version, full invocation, seed, and SHA-256 digests
of the input bytes it read, so any output can be reproduced byte for
byte.
"""

from __future__ import annotations

import argparse
import codecs
import dataclasses
import hashlib
import io
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, simulate
from .bootstrap import max_ci_width
from .data import (
    RATING_COLUMNS,
    REFERENCE_COLUMNS,
    STIMULUS_COLUMN,
    load_ratings,
    load_reference,
    reference_coverage,
)
from .errors import ConfigError, DataError, QvotesError
from .modelfit import fit_power_model
from .stats import MOS_METHODS, compare_to_reference, dataset_mos
from .simulate import ALL_METRICS, SweepConfig, run_sweep

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2

METRIC_ALIASES = {
    "srcc": simulate.VALIDITY_SRCC,
    "rmse": simulate.VALIDITY_RMSE,
}

_COL_KEYS = {
    "condition": "condition_id",
    "user": "user_id",
    "score": "score",
    "stimulus": "stimulus_id",
    "mos": "mos",
}


def _read_input(path, digests: dict[str, str]) -> io.BytesIO:
    """The bytes of input file ``path``, read once, as a binary stream
    named ``path`` for the loaders; their SHA-256 goes into ``digests``
    for the manifest.  A pipe is recorded with the bytes it gave."""
    data = Path(path).read_bytes()
    digests[str(path)] = hashlib.sha256(data).hexdigest()
    stream = io.BytesIO(data)
    stream.name = str(path)
    return stream


def write_manifest(out_base, argv, seed, input_digests: dict[str, str]) -> Path:
    """``BASE.manifest.json``: the reproducibility sidecar written next to
    every output, with the ``{path: SHA-256}`` of the inputs read."""
    path = Path(f"{out_base}.manifest.json")
    simulate._write_json(path, {
        "tool_version": __version__,
        "invocation": list(argv),
        "master_seed": seed,
        "input_digests": input_digests,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    })
    return path


def parse_sweep(text: str) -> tuple[int, ...]:
    """``start:stop:step`` with inclusive stop, or a single count."""
    parts = text.split(":")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"invalid sweep {text!r}; expected start:stop:step") from None
    if len(numbers) == 1:
        start, stop, step = numbers[0], numbers[0], 1
    elif len(numbers) == 3:
        start, stop, step = numbers
    else:
        raise ConfigError(f"invalid sweep {text!r}; expected start:stop:step")
    if start < 1 or step < 1 or stop < start:
        raise ConfigError(f"invalid sweep {text!r}: need 1 <= start <= stop and step >= 1")
    return tuple(range(start, stop + 1, step))


def parse_metrics(text: str) -> tuple[str, ...]:
    names = []
    for raw in text.split(","):
        name = raw.strip()
        if not name:
            continue
        name = METRIC_ALIASES.get(name, name)
        if name not in ALL_METRICS:
            raise ConfigError(
                f"unknown metric {raw.strip()!r}; valid: {', '.join(ALL_METRICS)} "
                f"(aliases: {', '.join(METRIC_ALIASES)})"
            )
        if name not in names:
            names.append(name)
    if not names:
        raise ConfigError("no metrics given")
    return tuple(names)


def parse_col_map(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    mapping = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"invalid --col entry {item!r}; expected key=COLUMN")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        canonical = _COL_KEYS.get(key, key)
        if canonical not in set(RATING_COLUMNS) | {STIMULUS_COLUMN} | set(REFERENCE_COLUMNS):
            raise ConfigError(
                f"unknown --col key {key!r}; expected one of {', '.join(_COL_KEYS)}"
            )
        if not value:
            raise ConfigError(f"empty column name for --col key {key!r}")
        mapping[canonical] = value
    return mapping


def _col_map_for(args, keys) -> dict[str, str]:
    """The ``--col`` entries that name one of ``keys``."""
    return {k: v for k, v in parse_col_map(args.col).items() if k in keys}


def _load_ratings_from_args(args, digests):
    return load_ratings(
        _read_input(args.ratings, digests),
        label=args.label or Path(args.ratings).stem,
        delimiter=args.delimiter,
        column_map=_col_map_for(args, (*RATING_COLUMNS, STIMULUS_COLUMN)),
    )


def _load_reference_from_args(args, digests):
    return load_reference(
        _read_input(args.reference, digests),
        delimiter=args.delimiter,
        column_map=_col_map_for(args, REFERENCE_COLUMNS),
    )


def _out_base(out: str) -> str:
    path = Path(out)
    if path.suffix in {".csv", ".json"}:
        return str(path.with_suffix(""))
    return str(path)


def _prepare_outputs(out: str | None, inputs, files=None) -> None:
    """Refuse to write ``out`` (or the ``files`` of its base) or its
    manifest over one of the ``inputs`` (None for one not given), and
    create their directory.  Called before any input is read."""
    if out is None:
        return
    base = _out_base(out)
    inputs = [path for path in inputs if path is not None and os.path.exists(path)]
    for target in (*(files or [out]), f"{base}.manifest.json"):
        for path in inputs:
            if os.path.exists(target) and os.path.samefile(target, path):
                raise ConfigError(f"output {target} would overwrite the input {path}")
    Path(base).parent.mkdir(parents=True, exist_ok=True)


# -- commands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    digests: dict[str, str] = {}
    ds = _load_ratings_from_args(args, digests)
    info = ds.summary()
    print(f"dataset:              {info['label']}")
    print(f"conditions:           {info['conditions']}")
    print(f"users:                {info['users']}")
    print(f"votes:                {info['votes']}")
    if info["stimuli"] is not None:
        print(f"stimuli:              {info['stimuli']}")
    print(
        "votes per condition:  "
        f"{info['votes_per_condition_mean']:.1f} "
        f"(std {info['votes_per_condition_std']:.1f}, "
        f"min {info['votes_per_condition_min']}, max {info['votes_per_condition_max']})"
    )

    if args.reference:
        ref = _load_reference_from_args(args, digests)
        shared, ref_only, ds_only = reference_coverage(ref, ds)
        print(f"reference conditions: {len(ref)} ({len(shared)} shared)")
        if ref_only:
            print(
                f"warning: {len(ref_only)} reference condition(s) never rated: "
                + ", ".join(ref_only),
                file=sys.stderr,
            )
        if ds_only:
            print(
                f"warning: {len(ds_only)} rated condition(s) missing from reference: "
                + ", ".join(ds_only),
                file=sys.stderr,
            )
    return EXIT_OK


def cmd_compare(args) -> int:
    _prepare_outputs(args.json, [args.ratings, args.reference])
    digests: dict[str, str] = {}
    ds = _load_ratings_from_args(args, digests)
    ref = _load_reference_from_args(args, digests)
    mos = dataset_mos(ds, method=args.mos_method)
    result = compare_to_reference(mos, ref, with_mapping=args.fom)
    print(f"dataset:           {ds.label}")
    print(f"shared conditions: {result.n_shared}")
    print(f"SRCC:              {result.srcc:.3f}")
    print(f"RMSE:              {result.rmse:.3f}")
    if args.fom:
        print(f"RMSE after map:    {result.rmse_after_mapping:.3f}")
        print(
            f"first-order map:   slope {result.mapping.slope:.4f}, "
            f"intercept {result.mapping.intercept:.4f}"
        )
    if args.json:
        doc = {"dataset": ds.label, "mos_method": args.mos_method, **dataclasses.asdict(result)}
        simulate._write_json(args.json, doc)
        write_manifest(_out_base(args.json), args.argv, None, digests)
    return EXIT_OK


def cmd_simulate(args) -> int:
    base = _out_base(args.out)
    csv_path, json_path = f"{base}.csv", f"{base}.json"
    _prepare_outputs(args.out, [args.ratings, args.reference], [csv_path, json_path])
    if args.metrics:
        metrics = parse_metrics(args.metrics)
    else:
        metrics = ALL_METRICS if args.reference else SweepConfig.metrics
    cfg = SweepConfig(
        n_values=parse_sweep(args.n),
        repetitions=args.runs,
        master_seed=args.seed,
        metrics=metrics,
        ci_level=args.ci_level,
        apply_first_order_map=args.fom,
    )
    simulate.require_reference(cfg, args.reference is not None)
    if args.delta:
        simulate.require_delta_baseline(cfg)

    digests: dict[str, str] = {}
    ds = _load_ratings_from_args(args, digests)
    ref = _load_reference_from_args(args, digests) if args.reference else None
    curves = run_sweep(ds, ref, cfg)

    if args.delta:
        curves += simulate.certainty_gain(ds, cfg)[2:]

    simulate.write_curves_csv(curves, csv_path)
    simulate.write_curves_json(curves, json_path, cfg)
    manifest_path = write_manifest(base, args.argv, args.seed, digests)
    print(f"dataset: {ds.label} ({len(ds.conditions)} conditions, {ds.n_votes} votes)")
    print(f"curves:  {', '.join(c.metric for c in curves)}")
    print(f"sweep:   n={cfg.n_values[0]}..{cfg.n_values[-1]} ({len(cfg.n_values)} points), r={cfg.repetitions}")
    print(f"wrote:   {csv_path}")
    print(f"wrote:   {json_path}")
    print(f"wrote:   {manifest_path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    _prepare_outputs(args.out, [args.curves])
    path = Path(args.curves)
    digests: dict[str, str] = {}
    stream = _read_input(args.curves, digests)
    # A curve JSON is an object; any other text is read as a curve CSV.
    is_json = stream.getvalue().removeprefix(codecs.BOM_UTF8).lstrip()[:1] == b"{"
    read = simulate.read_curves_json if is_json else simulate.read_curves_csv
    curves = read(stream)
    metric = METRIC_ALIASES.get(args.metric, args.metric)
    matching = [c for c in curves if c.metric == metric]
    if not matching:
        available = sorted({c.metric for c in curves})
        raise DataError(
            f"metric {args.metric!r} not present in {path}; available: {', '.join(available)}"
        )
    if args.dataset:
        matching = [c for c in matching if c.dataset_label == args.dataset]
        if not matching:
            raise DataError(f"no {metric} curve for dataset {args.dataset!r} in {path}")
    if len(matching) > 1:
        labels = ", ".join(c.dataset_label for c in matching)
        raise DataError(
            f"multiple datasets carry metric {metric} ({labels}); pick one with --dataset"
        )
    curve = matching[0]
    model = fit_power_model([(p.n, p.mean) for p in curve.points])
    print(f"metric:     {curve.metric}")
    print(f"dataset:    {curve.dataset_label}")
    print(f"model:      y = {model.a:.6g} * x^{model.b:.6g} + {model.c:.6g}")
    print(f"asymptote:  {model.c:.6g}")
    print(f"fit RMSE:   {model.rmse_of_fit:.6g}  ({model.n_points} points)")
    if args.out:
        doc = {"metric": curve.metric, "dataset": curve.dataset_label, **dataclasses.asdict(model)}
        simulate._write_json(args.out, doc)
        write_manifest(_out_base(args.out), args.argv, None, digests)
    return EXIT_OK


def cmd_maxci(args) -> int:
    _prepare_outputs(args.out, [])
    text = "n,max_ci_width\n" + "".join(
        f"{n},{max_ci_width(args.mos, n, args.level):.6g}\n" for n in parse_sweep(args.n)
    )
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
        write_manifest(_out_base(args.out), args.argv, None, {})
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def _add_input_options(parser, with_reference_arg: bool):
    parser.add_argument("ratings", help="ratings CSV (condition_id,user_id,score[,stimulus_id])")
    if with_reference_arg:
        parser.add_argument("reference", help="reference MOS CSV (condition_id,mos)")
    else:
        parser.add_argument("--ref", dest="reference", default=None, metavar="PATH",
                            help="reference MOS CSV (condition_id,mos)")
    parser.add_argument("--col", default=None, metavar="K=COL,...",
                        help="rename canonical columns, e.g. condition=cond,user=worker,score=vote")
    parser.add_argument("--delimiter", default=",", help="field delimiter (default ,)")
    parser.add_argument("--label", default=None, help="dataset label (default: file stem)")


def _validate_arguments(p):
    _add_input_options(p, with_reference_arg=False)


def _compare_arguments(p):
    _add_input_options(p, with_reference_arg=True)
    p.add_argument("--fom", action="store_true", help="also report RMSE after a first-order map")
    p.add_argument("--mos-method", choices=MOS_METHODS, default="user_balanced")
    p.add_argument("--json", default=None, metavar="PATH", help="also write the result as JSON")


def _simulate_arguments(p):
    _add_input_options(p, with_reference_arg=False)
    p.add_argument("--n", default="10:200:10", metavar="START:STOP:STEP",
                   help="vote counts, inclusive stop (default 10:200:10)")
    p.add_argument("--runs", type=int, default=250, help="repetitions per vote count (default 250)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--metrics", default=None, help=f"comma list from: {', '.join(ALL_METRICS)} "
                   f"(aliases {', '.join(METRIC_ALIASES)})")
    p.add_argument("--out", required=True, metavar="BASE",
                   help="output base path; writes BASE.csv, BASE.json, BASE.manifest.json")
    p.add_argument("--fom", action="store_true",
                   help="refit a first-order map per run before validity RMSE")
    p.add_argument("--ci-level", type=float, default=0.95, dest="ci_level")
    p.add_argument("--delta", action="store_true",
                   help="also emit gain curves shifted by their n=10 value")


def _fit_arguments(p):
    p.add_argument("curves", help="curve CSV or JSON written by simulate")
    p.add_argument("--metric", required=True, help="metric name to fit")
    p.add_argument("--dataset", default=None, help="dataset label when the file holds several")
    p.add_argument("--out", default=None, metavar="PATH", help="write the fitted model as JSON")


def _maxci_arguments(p):
    p.add_argument("--n", default="10:200:10", metavar="START:STOP:STEP")
    p.add_argument("--mos", type=float, required=True, help="MOS value in [1, 5]")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", default=None, metavar="PATH", help="also write CSV")


# (name, help, argument adder, handler), in the order ``qvotes -h`` lists them.
COMMANDS = (
    ("validate", "summarise a ratings file and its reference coverage",
     _validate_arguments, cmd_validate),
    ("compare", "SRCC/RMSE of dataset MOS against a reference table",
     _compare_arguments, cmd_compare),
    ("simulate", "run the vote-count sweep and write metric curves",
     _simulate_arguments, cmd_simulate),
    ("fit", "fit a saturating power model to a stored metric curve",
     _fit_arguments, cmd_fit),
    ("maxci", "worst-case MOS CI width bound over a vote-count sweep",
     _maxci_arguments, cmd_maxci),
)
COMMAND_NAMES = tuple(name for name, *_ in COMMANDS)


def build_parser(names=COMMAND_NAMES) -> argparse.ArgumentParser:
    """The ``qvotes`` parser, with the subparsers of the commands ``names``
    only: a run builds just the command it runs.  The usage line lists
    every command either way."""
    parser = argparse.ArgumentParser(
        prog="qvotes",
        description="Vote-count sufficiency analysis for subjective quality ratings",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # argparse's default metavar lists the commands built, and the error for
    # a missing command names ``command`` only while the metavar is unset.
    every = set(names) >= set(COMMAND_NAMES)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if every else "{" + ",".join(COMMAND_NAMES) + "}",
    )
    for name, help_text, add_arguments, handler in COMMANDS:
        if name in names:
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Help, --version and a missing or unknown command need every command.
    names = argv[:1] if argv and argv[0] in COMMAND_NAMES else COMMAND_NAMES
    args = build_parser(names).parse_args(argv)
    args.argv = ["qvotes"] + argv
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QvotesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        # A smaller --n or --runs is the fix, as for a configuration error.
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
