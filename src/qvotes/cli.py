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
import dataclasses
import hashlib
import io
import json
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
    _csv_reader,
    _is_utf8,
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

_COL_KEYS = {c.removesuffix("_id"): c for c in (*RATING_COLUMNS, STIMULUS_COLUMN, *REFERENCE_COLUMNS)}


def _read_input(path, digests: dict[str, str] | None) -> io.BytesIO:
    """The bytes of input file ``path``, read once, as a binary stream
    named ``path`` for the loaders; their SHA-256 goes into ``digests``
    for the manifest, unless the command writes none (``digests`` None).
    A pipe is recorded with the bytes it gave."""
    data = Path(path).read_bytes()
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    stream = io.BytesIO(data)
    stream.name = str(path)
    return stream


def write_manifest(out_base, argv, seed, input_digests: dict[str, str]) -> Path:
    """``BASE.manifest.json``: the reproducibility sidecar written next to
    every output, with the ``{path: SHA-256}`` of the inputs read."""
    path = Path(f"{out_base}.manifest.json")
    _write_json(path, {
        "tool_version": __version__,
        "invocation": list(argv),
        "master_seed": seed,
        "input_digests": input_digests,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    })
    return path


def _write_json(path, doc) -> None:
    """``doc`` indented by 2 and a newline, in one write (``json.dump`` makes thousands)."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="")


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
    """``--col``'s ``key=COLUMN`` entries by canonical column name, each
    key the name or its short form, each column named once."""
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
        if canonical not in _COL_KEYS.values():
            raise ConfigError(
                f"unknown --col key {key!r}; expected one of {', '.join(_COL_KEYS)}"
            )
        if not value:
            raise ConfigError(f"empty column name for --col key {key!r}")
        if canonical in mapping:
            raise ConfigError(f"--col names {canonical} more than once")
        mapping[canonical] = value
    return mapping


def _input_options(args) -> tuple[dict, dict]:
    """The keyword arguments of ``load_ratings`` and ``load_reference``:
    the label (``--label``, else the ratings file's stem, in UTF-8 as
    output files hold it), ``--delimiter`` and ``--col`` are checked
    before any input is read, and ``--col`` is split between the tables."""
    label = args.label or Path(args.ratings).stem
    if not _is_utf8(label):
        raise ConfigError(
            f"dataset label {label!r} is not UTF-8 text; pass a UTF-8 one with --label"
        )
    _csv_reader((), args.delimiter)
    col = parse_col_map(args.col)

    def table(keys):
        return {"delimiter": args.delimiter, "column_map": {k: col[k] for k in keys if k in col}}

    return {"label": label, **table((*RATING_COLUMNS, STIMULUS_COLUMN))}, table(REFERENCE_COLUMNS)


def _prepare_outputs(out: str | None, inputs, suffixes=None):
    """``(BASE, *files)`` for output ``out``, ``(None, None)`` for none: BASE
    is ``out`` less a ``.csv`` or ``.json`` suffix, and the files are ``out``
    or ``BASE + suffix`` per ``suffixes``.  Run after every option check and
    before any input is read, it refuses an ``out`` that names no file, and
    a file or manifest that is a directory or an input (None if not given),
    and makes their directory."""
    if out is None:
        return None, None
    if not out or out[-1] in (os.sep, os.altsep):
        raise ConfigError(f"output {out!r} does not name a file")
    if os.path.isdir(out):
        raise ConfigError(f"output {out} is a directory")
    out_path = Path(out)
    base = str(out_path.with_suffix("") if out_path.suffix in {".csv", ".json"} else out_path)
    files = [out] if suffixes is None else [base + suffix for suffix in suffixes]
    inputs = [path for path in inputs if path is not None and os.path.exists(path)]
    for target in (*files, f"{base}.manifest.json"):
        if os.path.isdir(target):
            raise ConfigError(f"output {target} is a directory")
        for path in inputs:
            if os.path.exists(target) and os.path.samefile(target, path):
                raise ConfigError(f"output {target} would overwrite the input {path}")
    Path(base).parent.mkdir(parents=True, exist_ok=True)
    return base, *files


# -- commands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    ds_kw, ref_kw = _input_options(args)
    ds = load_ratings(_read_input(args.ratings, None), **ds_kw)
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
        ref = load_reference(_read_input(args.reference, None), **ref_kw)
        shared, ref_only, ds_only = reference_coverage(ref, ds)
        print(f"reference conditions: {len(ref)} ({len(shared)} shared)")
        for ids, wording in ((ref_only, "reference condition(s) never rated"),
                             (ds_only, "rated condition(s) missing from reference")):
            if ids:
                print(f"warning: {len(ids)} {wording}: {', '.join(ids)}", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args) -> int:
    ds_kw, ref_kw = _input_options(args)
    base, json_path = _prepare_outputs(args.json, [args.ratings, args.reference])
    digests = {} if base else None
    ds = load_ratings(_read_input(args.ratings, digests), **ds_kw)
    ref = load_reference(_read_input(args.reference, digests), **ref_kw)
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
    if base:
        doc = {"dataset": ds.label, "mos_method": args.mos_method, **dataclasses.asdict(result)}
        _write_json(json_path, doc)
        write_manifest(base, args.argv, None, digests)
    return EXIT_OK


def cmd_simulate(args) -> int:
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

    ds_kw, ref_kw = _input_options(args)
    base, csv_path, json_path = _prepare_outputs(
        args.out, [args.ratings, args.reference], (".csv", ".json"))
    digests: dict[str, str] = {}
    ds = load_ratings(_read_input(args.ratings, digests), **ds_kw)
    ref = load_reference(_read_input(args.reference, digests), **ref_kw) if args.reference else None
    curves = run_sweep(ds, ref, cfg)

    if args.delta:
        curves += simulate.certainty_gain(ds, cfg)[2:]

    simulate.write_curves_csv(curves, csv_path)
    simulate.write_curves_json(curves, json_path, cfg)
    manifest_path = write_manifest(base, args.argv, args.seed, digests)
    print(f"dataset: {ds.label} ({len(ds.conditions)} conditions, {ds.n_votes} votes)")
    print(f"curves:  {', '.join(c.metric for c in curves)}")
    print(f"sweep:   n={cfg.n_values[0]}..{cfg.n_values[-1]} ({len(cfg.n_values)} points), r={cfg.repetitions}")
    for path in (csv_path, json_path, manifest_path):
        print(f"wrote:   {path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    base, out_path = _prepare_outputs(args.out, [args.curves])
    path = Path(args.curves)
    digests = {} if base else None
    curves = simulate._read_curves(_read_input(args.curves, digests))
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
    if base:
        doc = {"metric": curve.metric, "dataset": curve.dataset_label, **dataclasses.asdict(model)}
        _write_json(out_path, doc)
        write_manifest(base, args.argv, None, digests)
    return EXIT_OK


def cmd_maxci(args) -> int:
    text = "n,max_ci_width\n" + "".join(
        f"{n},{max_ci_width(args.mos, n, args.level):.6g}\n" for n in parse_sweep(args.n)
    )
    base, out_path = _prepare_outputs(args.out, [])
    print(text, end="")
    if base:
        Path(out_path).write_text(text, encoding="utf-8", newline="")
        write_manifest(base, args.argv, None, {})
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
