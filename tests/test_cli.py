"""End-to-end command-line tests."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import mos_dict, synthetic_dataset, votes
import qvotes
from qvotes import ConfigError, dataset_mos, read_curves_csv, write_curves_csv, write_curves_json
from qvotes.cli import build_parser, main, parse_col_map, parse_metrics, parse_sweep
from qvotes import cli, simulate
from qvotes.simulate import CurvePoint, MetricCurve


@pytest.fixture()
def toy_files(tmp_path):
    ds = synthetic_dataset(seed=20, n_conditions=6, n_users=10)
    ratings = tmp_path / "ratings.csv"
    lines = ["condition_id,user_id,score"]
    lines += [f"{v.condition_id},{v.user_id},{v.score}" for v in votes(ds)]
    ratings.write_text("\n".join(lines) + "\n")

    mos = dataset_mos(ds, "user_balanced")
    reference = tmp_path / "reference.csv"
    ref_lines = ["condition_id,mos"]
    ref_lines += [f"{c},{v!r}" for c, v in mos_dict(mos).items()]
    reference.write_text("\n".join(ref_lines) + "\n")
    return ratings, reference


def child_env() -> dict[str, str]:
    """This environment, with the tested package first on a child
    interpreter's import path."""
    env = dict(os.environ)
    src = str(Path(qvotes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


SURFACE = json.loads((Path(__file__).resolve().parent / "data" / "cli_surface.json").read_text("utf-8"))


class TestSurface:
    """Exit code, stdout and stderr of help and of argument errors, as
    qvotes 0.8.2 gave them when every run built the parsers of all five
    commands (``data/cli_surface.json``, at ``columns`` wide).  argparse's
    wording differs between Python versions, so the recorded text is
    compared only under the version that wrote it; on every version the
    output must equal that of the parser with every command."""

    @staticmethod
    def _exits(call, capsys):
        with pytest.raises(SystemExit) as exc:
            call()
        return (exc.value.code, *capsys.readouterr())

    @pytest.mark.parametrize(
        "case", SURFACE["cases"], ids=lambda case: " ".join(case["argv"]) or "no arguments"
    )
    def test_pinned(self, case, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", str(SURFACE["columns"]))
        argv = case["argv"]
        got = self._exits(lambda: main(list(argv)), capsys)
        assert got == self._exits(lambda: build_parser().parse_args(list(argv)), capsys)
        if "%d.%d" % sys.version_info[:2] == SURFACE["python"]:
            assert got == (case["exit"], case["stdout"], case["stderr"])

    def test_version(self, capsys):
        assert self._exits(lambda: main(["--version"]), capsys) == (0, f"qvotes {qvotes.__version__}\n", "")

    def test_python_m_qvotes(self, toy_files, tmp_path):
        ratings, _ = toy_files
        env = child_env()
        out = tmp_path / "sweep"
        proc = subprocess.run(
            [sys.executable, "-m", "qvotes", "simulate", str(ratings), "--n", "10:20:10",
             "--runs", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"wrote:   {out}.csv" in proc.stdout.splitlines()
        assert read_curves_csv(f"{out}.csv")[0].n_values == (10, 20)
        proc = subprocess.run(
            [sys.executable, "-m", "qvotes", "bogus"], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr and "bogus" in proc.stderr


class TestParsers:
    def test_sweep(self):
        assert parse_sweep("10:50:10") == (10, 20, 30, 40, 50)
        assert parse_sweep("10:10:10") == (10,)
        assert parse_sweep("60") == (60,)

    def test_sweep_errors(self):
        for bad in ("10:5:10", "0:10:5", "10:20:0", "a:b:c", "1:2:3:4"):
            with pytest.raises(ConfigError):
                parse_sweep(bad)

    def test_metrics_aliases(self):
        assert parse_metrics("srcc,rmse") == ("validity_srcc", "validity_rmse")
        assert parse_metrics("irr") == ("irr",)
        with pytest.raises(ConfigError, match="unknown metric"):
            parse_metrics("kappa")

    def test_metrics_empty_entries(self):
        assert parse_metrics("irr,,gain_rmse") == ("irr", "gain_rmse")
        with pytest.raises(ConfigError, match="^no metrics given$"):
            parse_metrics(",")

    def test_col_map(self):
        mapping = parse_col_map("condition=cond,user=worker,score=vote")
        assert mapping == {"condition_id": "cond", "user_id": "worker", "score": "vote"}
        with pytest.raises(ConfigError):
            parse_col_map("who=傻")
        with pytest.raises(ConfigError, match="invalid --col entry 'condition'; expected key=COLUMN"):
            parse_col_map("condition")
        with pytest.raises(ConfigError, match="empty column name for --col key 'user'"):
            parse_col_map("condition=cond,user= ")
        # A column named twice, by either spelling, used to keep its last entry.
        for text, column in [("condition=cond,condition_id=xx", "condition_id"),
                             ("condition_id=xx,condition=cond", "condition_id"),
                             ("user=a,score=vote,user=b", "user_id"),
                             ("mos=m,mos=m", "mos")]:
            with pytest.raises(ConfigError, match=f"^--col names {column} more than once$"):
                parse_col_map(text)


class TestValidate:
    def test_clean_dataset(self, toy_files, capsys):
        ratings, reference = toy_files
        assert main(["validate", str(ratings), "--ref", str(reference)]) == 0
        out = capsys.readouterr().out
        assert "conditions:" in out
        assert "votes per condition:" in out
        assert "reference conditions:" in out

    def test_bad_score_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("condition_id,user_id,score\nc1,u1,0\n")
        assert main(["validate", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_orphan_conditions_warn(self, toy_files, capsys):
        ratings, _ = toy_files
        ref = ratings.parent / "orphans.csv"
        ref.write_text("condition_id,mos\nzz1,3.0\nzz2,2.0\n")
        assert main(["validate", str(ratings), "--ref", str(ref)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "zz1" in err

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "none.csv")]) == 1

    def test_reference_only_ids_sorted(self, toy_files, capsys):
        ratings, _ = toy_files
        ref = ratings.parent / "orphans.csv"
        ref.write_text("condition_id,mos\nzz2,2.0\nzz1,3.0\n")
        assert main(["validate", str(ratings), "--ref", str(ref)]) == 0
        assert "never rated: zz1, zz2\n" in capsys.readouterr().err

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_mapped_stimulus_column_must_exist(self, toy_files, capsys, quote):
        ratings, _ = toy_files
        ratings.write_text(ratings.read_text().replace("condition_id", f"{quote}condition_id{quote}", 1))
        assert main(["validate", str(ratings), "--col", "stimulus=stim"]) == 1
        assert capsys.readouterr().err == "error: missing required column(s): stim\n"

    @pytest.mark.parametrize("col", ["condition=condition_id,condition_id=xx",
                                     "condition_id=xx,condition=condition_id"])
    def test_column_named_twice_exits_two(self, toy_files, capsys, col):
        # The first order used to exit 1 with "missing required column(s): xx",
        # and the second read condition_id without a word.
        ratings, _ = toy_files
        assert main(["validate", str(ratings), "--col", col]) == 2
        assert capsys.readouterr() == ("", "error: --col names condition_id more than once\n")

    def test_stimuli_line(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("condition_id,user_id,score,stimulus_id\nc1,u1,4,s1\nc1,u2,3,s2\n"
                           "c2,u1,5,s1\n")
        assert main(["validate", str(ratings)]) == 0
        assert "\nstimuli:              2\n" in capsys.readouterr().out

    def test_two_keys_on_one_column_exits_two(self, toy_files, capsys):
        ratings, _ = toy_files
        assert main(["validate", str(ratings), "--col", "user=condition_id"]) == 2
        assert "condition_id and user_id both map to column" in capsys.readouterr().err


class TestCompare:
    def test_self_reference_perfect(self, toy_files, capsys):
        ratings, reference = toy_files
        assert main(["compare", str(ratings), str(reference), "--fom"]) == 0
        out = capsys.readouterr().out
        assert "SRCC:              1.000" in out
        assert "RMSE:              0.000" in out

    def test_json_output_with_manifest(self, toy_files, tmp_path):
        import hashlib

        ratings, reference = toy_files
        out = tmp_path / "cmp.json"
        assert main(["compare", str(ratings), str(reference), "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["srcc"] == pytest.approx(1.0)
        manifest = json.loads((tmp_path / "cmp.manifest.json").read_text())
        assert set(manifest["input_digests"]) == {str(ratings), str(reference)}
        assert manifest["input_digests"][str(ratings)] == hashlib.sha256(
            ratings.read_bytes()
        ).hexdigest()
        assert manifest["tool_version"]
        assert manifest["invocation"][0] == "qvotes"

    def test_byte_order_marks_keep_raw_digests(self, toy_files, tmp_path):
        import hashlib

        inputs = []
        for path in toy_files:
            marked = tmp_path / f"bom_{path.name}"
            marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            inputs.append(marked)
        out = tmp_path / "bom.json"
        assert main(["compare", *map(str, inputs), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["srcc"] == pytest.approx(1.0)
        digests = json.loads((tmp_path / "bom.manifest.json").read_text())["input_digests"]
        assert digests == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}

    @pytest.mark.parametrize(
        "extra, expected",
        [
            ((), '{\n  "dataset": "ratings",\n  "mos_method": "user_balanced",\n  "n_shared": 6,\n'
                 '  "srcc": 1.0,\n  "rmse": 0.0,\n  "rmse_after_mapping": null,\n  "mapping": null\n}\n'),
            (("--fom", "--mos-method", "plain"),
             '{\n  "dataset": "ratings",\n  "mos_method": "plain",\n  "n_shared": 6,\n'
             '  "srcc": 1.0,\n  "rmse": 0.11145620330859873,\n'
             '  "rmse_after_mapping": 0.09906515402045347,\n  "mapping": {\n'
             '    "slope": 0.9514815243960827,\n    "intercept": 0.1583276792294237\n  }\n}\n'),
        ],
        ids=["default", "fom-plain"],
    )
    def test_json_bytes_are_pinned(self, toy_files, tmp_path, extra, expected):
        # The document is the result's own fields after dataset and
        # mos_method, in this key order, as qvotes 0.9.0 wrote it.
        ratings, reference = toy_files
        out = tmp_path / "cmp.json"
        assert main(["compare", str(ratings), str(reference), *extra, "--json", str(out)]) == 0
        assert out.read_text("utf-8") == expected

    def test_too_few_shared_conditions(self, toy_files, tmp_path, capsys):
        ratings, _ = toy_files
        ref = tmp_path / "short.csv"
        ref.write_text("condition_id,mos\nc00,3.0\nc01,2.0\n")
        assert main(["compare", str(ratings), str(ref)]) == 1
        assert "got 2" in capsys.readouterr().err


class TestSimulate:
    def _run(self, toy_files, tmp_path, name, extra=()):
        ratings, reference = toy_files
        out = tmp_path / name
        code = main(
            [
                "simulate",
                str(ratings),
                "--ref",
                str(reference),
                "--n",
                "10:30:10",
                "--runs",
                "4",
                "--seed",
                "7",
                "--out",
                str(out),
                *extra,
            ]
        )
        assert code == 0
        return out

    def test_writes_all_artifacts(self, toy_files, tmp_path):
        out = self._run(toy_files, tmp_path, "run1")
        csv_text = (out.with_suffix(".csv")).read_text()
        assert csv_text.startswith("metric,dataset,n,mean,ci_low,ci_high,std_dev\n")
        doc = json.loads(out.with_suffix(".json").read_text())
        metrics = {c["metric"] for c in doc["curves"]}
        assert metrics == {
            "validity_srcc",
            "validity_rmse",
            "gain_srcc",
            "gain_rmse",
            "ci_width",
            "irr",
        }
        assert doc["config"]["master_seed"] == 7
        manifest = json.loads((tmp_path / "run1.manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert len(manifest["input_digests"]) == 2

    def test_seeded_reruns_are_byte_identical(self, toy_files, tmp_path):
        first = self._run(toy_files, tmp_path, "a")
        second = self._run(toy_files, tmp_path, "b")
        assert first.with_suffix(".csv").read_bytes() == second.with_suffix(".csv").read_bytes()
        assert (
            json.loads(first.with_suffix(".json").read_text())["curves"]
            == json.loads(second.with_suffix(".json").read_text())["curves"]
        )

    def test_manifest_replay_reproduces_output(self, toy_files, tmp_path):
        out = self._run(toy_files, tmp_path, "replay")
        original = out.with_suffix(".csv").read_bytes()
        manifest = json.loads((tmp_path / "replay.manifest.json").read_text())
        assert main(manifest["invocation"][1:]) == 0
        assert out.with_suffix(".csv").read_bytes() == original

    def test_delta_curves(self, toy_files, tmp_path):
        out = self._run(toy_files, tmp_path, "delta", extra=("--delta",))
        doc = json.loads(out.with_suffix(".json").read_text())
        metrics = {c["metric"] for c in doc["curves"]}
        assert {"gain_srcc_delta", "gain_rmse_delta"} <= metrics
        delta = next(c for c in doc["curves"] if c["metric"] == "gain_srcc_delta")
        assert delta["points"][0]["n"] == 10
        assert delta["points"][0]["mean"] == 0.0

    def test_gain_only_without_reference(self, toy_files, tmp_path):
        ratings, _ = toy_files
        out = tmp_path / "noref"
        code = main(
            ["simulate", str(ratings), "--n", "10:20:10", "--runs", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        metrics = {c["metric"] for c in doc["curves"]}
        assert metrics == {"gain_srcc", "gain_rmse", "ci_width", "irr"}

    def test_validity_without_reference_is_config_error(self, toy_files, tmp_path, capsys):
        ratings, _ = toy_files
        code = main(
            ["simulate", str(ratings), "--metrics", "srcc", "--n", "10:10:10",
             "--runs", "2", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "reference" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["label", "file_name"])
    def test_label_that_is_not_utf8_is_config_error(self, toy_files, tmp_path, capsys, source):
        # Such a label used to fail in the curve CSV writer after the whole
        # sweep, as a traceback, leaving a header-only CSV and no JSON.
        ratings, _ = toy_files
        extra = ["--label", "r\udcff"]
        if source == "file_name":
            ratings = ratings.rename(tmp_path / os.fsdecode(b"r\xff.csv"))
            extra = []
        code = main(["simulate", str(ratings), "--n", "10:20:10", "--runs", "1", *extra,
                     "--out", str(tmp_path / "lab")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: dataset label 'r\\udcff' is not UTF-8 text; pass a UTF-8 one with --label\n"
        )
        assert not list(tmp_path.glob("lab*"))

    def test_unknown_metric_is_config_error(self, toy_files, tmp_path):
        ratings, _ = toy_files
        code = main(
            ["simulate", str(ratings), "--metrics", "kappa", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_delta_without_baseline_fails_before_sampling(self, toy_files, tmp_path, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("votes were drawn before the --delta grid was checked")

        monkeypatch.setattr(simulate, "_draw_votes", no_sampling)
        ratings, reference = toy_files
        out = tmp_path / "x"
        code = main(
            ["simulate", str(ratings), "--ref", str(reference), "--n", "20:40:10",
             "--runs", "2", "--delta", "--out", str(out)]
        )
        assert code == 2
        assert "n=10" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("metrics", [(), ("--metrics", "irr"), ("--metrics", "gain_rmse,ci_width")])
    def test_one_vote_fails_before_sampling(self, toy_files, tmp_path, monkeypatch, capsys, metrics):
        # One vote per condition has no bootstrap CI and no second rater to
        # compare with: a configuration error, not a failure mid-sweep.
        def no_sampling(*args, **kwargs):
            raise AssertionError("votes were drawn before the vote count was checked")

        monkeypatch.setattr(simulate, "_draw_votes", no_sampling)
        ratings, _ = toy_files
        code = main(
            ["simulate", str(ratings), "--n", "1:5:1", "--runs", "2", *metrics,
             "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "at least 2 votes" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_extreme_level_without_ci_width_runs(self, toy_files, tmp_path):
        # Only the bootstrap needs a tail above 1e-9; the curve points'
        # across-run t intervals take any level in (0, 1).
        ratings, _ = toy_files
        code = main(
            ["simulate", str(ratings), "--n", "2:4:2", "--runs", "3", "--metrics", "gain_rmse,irr",
             "--ci-level", "0.999999999", "--out", str(tmp_path / "x")]
        )
        assert code == 0

    def test_out_of_memory_is_config_error(self, toy_files, tmp_path, monkeypatch, capsys):
        # A grid too large for memory: numpy's allocation error is a
        # MemoryError, and a smaller --n or --runs is the fix.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(simulate, "_draw_votes", no_memory)
        ratings, _ = toy_files
        code = main(
            ["simulate", str(ratings), "--n", "10:20:10", "--runs", "2", "--metrics",
             "gain_rmse", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: not enough memory: Unable to allocate 74.5 GiB for an array\n"
        )
        assert not list(tmp_path.glob("x*"))

    def test_one_vote_is_enough_for_gain(self, toy_files, tmp_path):
        ratings, _ = toy_files
        code = main(
            ["simulate", str(ratings), "--n", "1:5:1", "--runs", "2", "--metrics",
             "gain_srcc,gain_rmse", "--out", str(tmp_path / "x")]
        )
        assert code == 0

    def test_bad_sweep_is_config_error(self, toy_files, tmp_path):
        ratings, _ = toy_files
        code = main(
            ["simulate", str(ratings), "--n", "50:10:10", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    @pytest.mark.parametrize("bad", [
        ("--n", "20:10:1"), ("--runs", "0"), ("--metrics", "bogus"), ("--n", "20:40:10", "--delta"),
        ("--n", "1:5:1"), ("--metrics", "srcc"), ("--metrics", "ci_width", "--ci-level", "0.999999999"),
        ("--ci-level", "0.999999999"),
    ])
    def test_configuration_is_checked_before_any_input(self, tmp_path, capsys, bad):
        missing = tmp_path / "nope.csv"
        # A validity metric is a configuration error only without --ref.
        ref = () if "srcc" in bad else ("--ref", str(missing))
        code = main(["simulate", str(missing), *ref, *bad, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" not in err


class TestFit:
    def _write_curve(self, tmp_path, a=-0.3837, b=-1.0129, c=0.9749):
        points = tuple(
            CurvePoint(n, a * n**b + c, a * n**b + c, a * n**b + c, 0.0)
            for n in range(10, 201, 10)
        )
        path = tmp_path / "curves.csv"
        write_curves_csv(
            [MetricCurve(metric="validity_srcc", dataset_label="toy", points=points)], path
        )
        return path

    def test_fit_recovers_model(self, tmp_path, capsys):
        path = self._write_curve(tmp_path)
        out = tmp_path / "model.json"
        assert main(["fit", str(path), "--metric", "validity_srcc", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # CSV carries 6 significant digits, so recovery is good to ~1e-4
        assert doc["a"] == pytest.approx(-0.3837, rel=1e-3)
        assert doc["b"] == pytest.approx(-1.0129, rel=1e-3)
        assert doc["c"] == pytest.approx(0.9749, rel=1e-3)
        assert doc["n_points"] == 20
        assert (tmp_path / "model.manifest.json").is_file()
        assert "asymptote" in capsys.readouterr().out

    def test_curve_csv_with_byte_order_mark(self, tmp_path):
        path = self._write_curve(tmp_path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["fit", str(path), "--metric", "validity_srcc"]) == 0

    def test_curve_json_with_byte_order_mark(self, tmp_path):
        curve = read_curves_csv(self._write_curve(tmp_path))
        path = tmp_path / "curves.json"
        write_curves_json(curve, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["fit", str(path), "--metric", "validity_srcc"]) == 0

    def test_curve_json_of_the_indented_layout(self, tmp_path, capsys):
        # Curve JSON up to 0.13.3 was json.dumps(doc, indent=2); it reads
        # to the same curves, and fit reads it the same.
        curves = read_curves_csv(self._write_curve(tmp_path))
        path = tmp_path / "curves.json"
        write_curves_json(curves, path, simulate.SweepConfig(n_values=(10, 20), repetitions=3))
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(path.read_text()), indent=2) + "\n")
        assert simulate.read_curves_json(indented) == simulate.read_curves_json(path) == curves
        assert main(["fit", str(path), "--metric", "validity_srcc"]) == 0
        want = capsys.readouterr().out
        assert main(["fit", str(indented), "--metric", "validity_srcc"]) == 0
        assert capsys.readouterr().out == want

    def test_repeated_curve_in_json_is_data_error(self, tmp_path, capsys):
        # fit used to ask for --dataset here, and --dataset toy picked both
        # copies again.
        curves = read_curves_csv(self._write_curve(tmp_path))
        path = tmp_path / "twice.json"
        write_curves_json(curves * 2, path)
        for extra in ([], ["--dataset", "toy"]):
            assert main(["fit", str(path), "--metric", "srcc", *extra]) == 1
            assert capsys.readouterr().err == (
                "error: malformed curve JSON: curve 2 repeats the validity_srcc curve of "
                "dataset 'toy'\n"
            )

    def test_metric_alias(self, tmp_path):
        path = self._write_curve(tmp_path)
        assert main(["fit", str(path), "--metric", "srcc"]) == 0

    def test_unknown_metric_lists_available(self, tmp_path, capsys):
        path = self._write_curve(tmp_path)
        assert main(["fit", str(path), "--metric", "irr"]) == 1
        assert "validity_srcc" in capsys.readouterr().err

    def test_dataset_picks_one_of_several(self, tmp_path, capsys):
        path = self._write_curve(tmp_path)
        curves = read_curves_csv(path)
        other = MetricCurve("validity_srcc", "other", curves[0].points)
        write_curves_csv([*curves, other], path)
        assert main(["fit", str(path), "--metric", "srcc"]) == 1
        assert capsys.readouterr().err == (
            "error: multiple datasets carry metric validity_srcc (toy, other); "
            "pick one with --dataset\n"
        )
        assert main(["fit", str(path), "--metric", "srcc", "--dataset", "other"]) == 0
        assert "dataset:    other\n" in capsys.readouterr().out

    def test_dataset_not_in_the_file(self, tmp_path, capsys):
        path = self._write_curve(tmp_path)
        assert main(["fit", str(path), "--metric", "srcc", "--dataset", "other"]) == 1
        assert capsys.readouterr().err == (
            f"error: no validity_srcc curve for dataset 'other' in {path}\n"
        )

    def test_too_few_points(self, tmp_path):
        points = tuple(CurvePoint(n, 0.5, 0.5, 0.5, 0.0) for n in (10, 20, 30))
        path = tmp_path / "short.csv"
        write_curves_csv([MetricCurve("irr", "toy", points)], path)
        assert main(["fit", str(path), "--metric", "irr"]) == 1

    def test_nan_mean_names_the_field(self, tmp_path, capsys):
        path = self._write_curve(tmp_path)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = "nan"
        path.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
        assert main(["fit", str(path), "--metric", "validity_srcc"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: validity_srcc curve of dataset 'toy': curve point at n=10 has non-finite mean\n"
        )
        assert "outside its CI" not in err

    def test_rows_out_of_order_name_the_curve_and_line(self, tmp_path, capsys):
        path = self._write_curve(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2], lines[1], *lines[3:]]) + "\n")
        assert main(["fit", str(path), "--metric", "validity_srcc"]) == 1
        assert capsys.readouterr().err == (
            "error: malformed curve CSV at line 3: validity_srcc curve of dataset 'toy' "
            "has n=10 after n=20; its n must strictly increase\n"
        )

    def test_fit_from_json(self, toy_files, tmp_path):
        ratings, _ = toy_files
        out = tmp_path / "sim"
        main(["simulate", str(ratings), "--n", "10:60:10", "--runs", "3", "--out", str(out)])
        assert main(["fit", str(out) + ".json", "--metric", "ci_width"]) == 0

    @pytest.mark.parametrize("kind, name", [("json", "curves.txt"), ("csv", "curves.json")])
    def test_reader_follows_the_content_not_the_name(self, tmp_path, capsys, kind, name):
        path = self._write_curve(tmp_path)
        if kind == "json":
            write_curves_json(read_curves_csv(path), path.with_suffix(".json"))
            path = path.with_suffix(".json")
        assert main(["fit", str(path), "--metric", "validity_srcc"]) == 0
        want = capsys.readouterr().out
        renamed = tmp_path / "renamed" / name
        renamed.parent.mkdir()
        renamed.write_bytes(path.read_bytes())
        assert main(["fit", str(renamed), "--metric", "validity_srcc"]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "name, text",
        [
            ("bad_number.csv", "metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,toy,10,abc,0.1,0.2,0.0\n"),
            ("bad_n.json", '{"curves": [{"metric": "irr", "dataset": "toy", "points": '
                           '[{"n": "ten", "mean": 0.5, "ci_low": 0.5, "ci_high": 0.5, "std_dev": 0.0}]}]}'),
            ("broken.json", "{not json"),
            ("header_only.csv", "metric,dataset,n,mean,ci_low,ci_high,std_dev\n"),
        ],
    )
    def test_malformed_curve_file_is_data_error(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert main(["fit", str(path), "--metric", "irr"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("big.csv", "metric,dataset,n,mean,ci_low,ci_high,std_dev\n"
             f"irr,toy,10,0.5,0.5,0.5,{'0' * 200_000}\n",
             f"malformed CSV at line 2: field larger than field limit ({csv.field_size_limit()})"),
            ("short.csv", "metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,toy,10,0.5\n",
             "missing field at line 2"),
            ("nested.json", '{"curves": ' + "[" * 100_000 + "]" * 100_000 + "}",
             "malformed curve JSON: maximum recursion depth exceeded"),
        ],
        ids=["long_field", "short_row", "nested_json"],
    )
    def test_reader_fault_is_one_error_line(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert main(["fit", str(path), "--metric", "irr"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "points, message",
        [
            ([], "irr curve of dataset 'toy' has no points"),
            ([{"n": 10, "mean": True, "ci_low": 0.5, "ci_high": 1.0, "std_dev": 0.0}],
             "curve point mean must be a number, got True"),
            ([{"n": "10", "mean": 0.5, "ci_low": 0.5, "ci_high": 0.5, "std_dev": 0.0}],
             "curve point n must be an integer, got '10'"),
        ],
    )
    def test_invalid_json_curve_is_named(self, tmp_path, capsys, points, message):
        # An empty curve used to fail as "points must be (x, y) pairs", and
        # a true mean was fitted as 1.0.
        path = tmp_path / "curves.json"
        path.write_text(json.dumps({"curves": [{"metric": "irr", "dataset": "toy", "points": points}]}))
        assert main(["fit", str(path), "--metric", "irr"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestUnreadableInput:
    """A bad delimiter is a configuration error (exit 2) and bytes that are
    not UTF-8 a data error (exit 1), each one ``error:`` line."""

    def _fails(self, argv, code, capsys):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_delimiter_of_two_characters(self, toy_files, tmp_path, capsys, command):
        ratings, _ = toy_files
        extra = ["--out", str(tmp_path / "sim")] if command == "simulate" else []
        err = self._fails([command, str(ratings), "--delimiter", ",,", *extra], 2, capsys)
        assert "delimiter" in err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_ratings_not_utf8(self, tmp_path, capsys, command):
        ratings = tmp_path / "ratings.csv"
        ratings.write_bytes(b"condition_id,user_id,score\nc1,u1,4\nc1,\xff,3\n")
        extra = ["--out", str(tmp_path / "sim")] if command == "simulate" else []
        err = self._fails([command, str(ratings), *extra], 1, capsys)
        assert "ratings.csv is not UTF-8" in err

    def test_reference_not_utf8(self, toy_files, capsys):
        ratings, reference = toy_files
        reference.write_bytes(reference.read_bytes() + b"c\xff,3.0\n")
        err = self._fails(["validate", str(ratings), "--ref", str(reference)], 1, capsys)
        assert "reference.csv is not UTF-8" in err

    def test_ratings_field_over_the_csv_limit(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text(f"condition_id,user_id,score\nc1,u1,{'4' * (csv.field_size_limit() + 1)}\n")
        err = self._fails(["validate", str(big)], 1, capsys)
        assert "at line 2: field larger than field limit" in err

    def test_reference_field_over_the_csv_limit(self, toy_files, tmp_path, capsys):
        ratings, _ = toy_files
        big = tmp_path / "big.csv"
        big.write_text(f"condition_id,mos\nc1,{'3' * (csv.field_size_limit() + 1)}\n")
        err = self._fails(["validate", str(ratings), "--ref", str(big)], 1, capsys)
        assert "at line 2: field larger than field limit" in err

    def test_curve_csv_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "curves.csv"
        path.write_bytes(b"metric,dataset,n,mean,ci_low,ci_high,std_dev\nirr,t\xffy,10,0.5,0.5,0.5,0.0\n")
        err = self._fails(["fit", str(path), "--metric", "irr"], 1, capsys)
        assert "curves.csv is not UTF-8" in err

    def test_curve_json_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "curves.json"
        path.write_bytes(b'{"curves": [{"metric": "irr", "dataset": "t\xffy", "points": []}]}')
        err = self._fails(["fit", str(path), "--metric", "irr"], 1, capsys)
        assert "curves.json is not UTF-8" in err

    @staticmethod
    def _strict_run(argv, cwd):
        """``qvotes argv`` in a child whose standard streams take UTF-8 only,
        as a terminal's do: printing a lone surrogate there raises."""
        return subprocess.run(
            [sys.executable, "-m", "qvotes", *argv], cwd=cwd, capture_output=True,
            env={**child_env(), "PYTHONIOENCODING": "utf-8:strict"}, timeout=120,
        )

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_file_name_label_not_utf8(self, toy_files, tmp_path, command):
        # The stem of such a file name used to print as a UnicodeEncodeError
        # traceback (exit 1); simulate already refused it.
        ratings, reference = toy_files
        ratings = ratings.rename(tmp_path / os.fsdecode(b"r\xff.csv"))
        extra = [str(reference)] if command == "compare" else []
        proc = self._strict_run([command, ratings.name, *extra], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == b""
        assert proc.stderr == (
            b"error: dataset label 'r\\udcff' is not UTF-8 text; pass a UTF-8 one with --label\n"
        )

    @pytest.mark.parametrize("field", ["metric", "dataset"])
    def test_curve_json_name_not_utf8(self, tmp_path, field):
        # A \udcff escape is legal JSON; a dataset holding one used to print
        # as a UnicodeEncodeError traceback after the fit.
        points = [{"n": n, "mean": 1.0 / n, "ci_low": 1.0 / n, "ci_high": 1.0 / n, "std_dev": 0.0}
                  for n in (10, 20, 30, 40, 50)]
        curve = {"metric": "gain_rmse", "dataset": "r", "points": points, field: "r\udcff"}
        (tmp_path / "c.json").write_text(json.dumps({"curves": [curve]}))
        proc = self._strict_run(["fit", "c.json", "--metric", "gain_rmse"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == b""
        assert proc.stderr == (
            f"error: malformed curve JSON: curve 1 has {field} 'r\\udcff', "
            "which is not UTF-8 text\n"
        ).encode()


class TestInputOptionsFirst:
    """``validate``, ``compare`` and ``simulate`` check ``--delimiter`` and
    ``--col`` before they read any input, and parse ``--col`` once."""

    @pytest.mark.parametrize("option, error", [
        (["--delimiter", ";;"], "error: invalid delimiter ';;': "),
        (["--col", "bogus=x"], "error: unknown --col key 'bogus'; expected one of "),
    ], ids=["delimiter", "col"])
    @pytest.mark.parametrize("command", ["validate", "compare", "simulate"])
    def test_bad_option_with_the_ratings_missing(self, tmp_path, capsys, command, option, error):
        # Each used to exit 1 with the missing file's error.
        missing = str(tmp_path / "missing.csv")
        argv = {
            "validate": ["validate", missing],
            "compare": ["compare", missing, missing],
            "simulate": ["simulate", missing, "--n", "10:20:10", "--runs", "1",
                         "--out", str(tmp_path / "sim")],
        }[command]
        assert main([*argv, *option]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(error) and err.count("\n") == 1

    def test_col_parsed_once_for_two_tables(self, toy_files, tmp_path, monkeypatch):
        ratings, reference = toy_files
        (tmp_path / "ref.csv").write_text(reference.read_text().replace("mos", "lab", 1))
        calls = []

        def counted(text):
            calls.append(text)
            return parse_col_map(text)

        monkeypatch.setattr(cli, "parse_col_map", counted)
        assert main(["simulate", str(ratings), "--ref", str(tmp_path / "ref.csv"),
                     "--col", "mos=lab,user=user_id", "--metrics", "srcc,gain_rmse",
                     "--n", "10:20:10", "--runs", "1", "--out", str(tmp_path / "sim")]) == 0
        assert calls == ["mos=lab,user=user_id"]
        assert [c.metric for c in read_curves_csv(tmp_path / "sim.csv")] == [
            "validity_srcc", "gain_rmse"]


@pytest.mark.skipif(
    not hasattr(os, "mkfifo") or not os.path.isdir("/dev/fd"),
    reason="needs POSIX pipes named under /dev/fd",
)
class TestPipedInputs:
    """An input given as a pipe, as ``<(cat ratings.csv)`` gives it, can be
    read only once: each manifest digest is the SHA-256 of the bytes that
    came through the pipe, not that of an empty second read."""

    @staticmethod
    @contextlib.contextmanager
    def _piped(data: bytes):
        """``data`` behind a pipe, fed by a thread, as a ``/dev/fd`` path."""
        r, w = os.pipe()

        def feed():
            with contextlib.suppress(BrokenPipeError), open(w, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            yield f"/dev/fd/{r}"
        finally:
            os.close(r)
            writer.join()

    @staticmethod
    def _digests(base: Path) -> dict:
        return json.loads(base.with_name(base.name + ".manifest.json").read_text())["input_digests"]

    @staticmethod
    def _sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def test_simulate(self, toy_files, tmp_path):
        ratings, reference = (p.read_bytes() for p in toy_files)
        base = tmp_path / "piped"
        with self._piped(ratings) as r, self._piped(reference) as ref:
            assert main(["simulate", r, "--ref", ref, "--n", "10:20:10", "--runs", "2",
                         "--label", "toy", "--out", str(base)]) == 0
            assert self._digests(base) == {r: self._sha256(ratings), ref: self._sha256(reference)}
        plain = tmp_path / "plain"
        assert main(["simulate", str(toy_files[0]), "--ref", str(toy_files[1]), "--n", "10:20:10",
                     "--runs", "2", "--label", "toy", "--out", str(plain)]) == 0
        assert base.with_suffix(".csv").read_bytes() == plain.with_suffix(".csv").read_bytes()

    def test_compare(self, toy_files, tmp_path):
        ratings, reference = (p.read_bytes() for p in toy_files)
        out = tmp_path / "cmp.json"
        with self._piped(ratings) as r, self._piped(reference) as ref:
            assert main(["compare", r, ref, "--json", str(out)]) == 0
            assert self._digests(tmp_path / "cmp") == {
                r: self._sha256(ratings), ref: self._sha256(reference)
            }

    def test_fit(self, toy_files, tmp_path):
        sweep = tmp_path / "sweep"
        assert main(["simulate", str(toy_files[0]), "--n", "10:40:10", "--runs", "2",
                     "--out", str(sweep)]) == 0
        curves = sweep.with_suffix(".csv").read_bytes()
        out = tmp_path / "model.json"
        with self._piped(curves) as path:
            assert main(["fit", path, "--metric", "gain_rmse", "--out", str(out)]) == 0
            assert self._digests(tmp_path / "model") == {path: self._sha256(curves)}

    def test_fit_json(self, toy_files, tmp_path, capsys):
        sweep = tmp_path / "sweep"
        assert main(["simulate", str(toy_files[0]), "--n", "10:40:10", "--runs", "2",
                     "--out", str(sweep)]) == 0
        capsys.readouterr()
        assert main(["fit", str(sweep.with_suffix(".json")), "--metric", "gain_srcc"]) == 0
        want = capsys.readouterr().out
        with self._piped(sweep.with_suffix(".json").read_bytes()) as path:
            assert main(["fit", path, "--metric", "gain_srcc"]) == 0
        assert capsys.readouterr().out == want


class TestDigestsOnlyForManifests:
    """An input is hashed only when a manifest records its digest: once
    per input for a command that writes one, never for one that does not."""

    CASES = {
        # command line, with R, F and C for the ratings, reference and
        # curves files: (arguments, manifest base or None, inputs hashed)
        "validate": (["validate", "R", "--ref", "F"], None, ()),
        "compare": (["compare", "R", "F", "--fom"], None, ()),
        "fit": (["fit", "C", "--metric", "gain_rmse"], None, ()),
        "compare-json": (["compare", "R", "F", "--json", "cmp.json"], "cmp", "RF"),
        "fit-out": (["fit", "C", "--metric", "gain_rmse", "--out", "model.json"], "model", "C"),
        "simulate": (["simulate", "R", "--ref", "F", "--n", "10:20:10", "--runs", "2",
                      "--out", "run"], "run", "RF"),
        "maxci-out": (["maxci", "--mos", "3", "--n", "10:20:10", "--out", "ci.csv"], "ci", ""),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_sha256_calls(self, case, toy_files, tmp_path, monkeypatch, capsys):
        argv, base, hashed = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(toy_files[0]), "--n", "10:40:10", "--runs", "2",
                     "--out", "sweep"]) == 0
        paths = {"R": str(toy_files[0]), "F": str(toy_files[1]), "C": "sweep.csv"}
        calls = []
        sha256 = hashlib.sha256

        def counted(*args, **kwargs):
            calls.append(args)
            return sha256(*args, **kwargs)

        monkeypatch.setattr(cli.hashlib, "sha256", counted)
        assert main([paths.get(a, a) for a in argv]) == 0
        assert len(calls) == len(hashed)
        if base is not None:
            digests = json.loads((tmp_path / f"{base}.manifest.json").read_text())["input_digests"]
            assert digests == {
                paths[k]: sha256(Path(paths[k]).read_bytes()).hexdigest() for k in hashed
            }


class TestMaxci:
    def test_single_row_value(self, capsys):
        assert main(["maxci", "--mos", "3", "--n", "10:10:10"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,max_ci_width"
        assert "2.50331" in out

    def test_extremes_symmetric(self, capsys):
        main(["maxci", "--mos", "1", "--n", "10:50:10"])
        low = capsys.readouterr().out
        main(["maxci", "--mos", "5", "--n", "10:50:10"])
        high = capsys.readouterr().out
        assert low == high

    def test_out_file_and_manifest(self, tmp_path):
        out = tmp_path / "widths.csv"
        assert main(["maxci", "--mos", "3", "--n", "10:30:10", "--out", str(out)]) == 0
        assert out.read_text().startswith("n,max_ci_width\n")
        assert (tmp_path / "widths.manifest.json").is_file()

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        out = tmp_path / "widths.csv"
        assert main(["maxci", "--mos", "2.7", "--n", "2:40:3", "--level", "0.9",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_mos_out_of_range(self, capsys):
        assert main(["maxci", "--mos", "7", "--n", "10:10:10"]) == 1


class TestOutputPaths:
    """An output, result or manifest, that is the same file as one of the
    command's inputs, or that names no file, is refused with exit 2 before
    any input is read, and every command creates the directory its output
    goes in."""

    @staticmethod
    def _refused(argv, folder, monkeypatch, capsys):
        def no_reading(*args, **kwargs):
            raise AssertionError("an input was read before the outputs were checked")

        before = {p: p.read_bytes() for p in folder.iterdir()}
        monkeypatch.setattr(cli, "_read_input", no_reading)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output ") and "would overwrite the input" in err
        assert {p: p.read_bytes() for p in folder.iterdir()} == before

    @pytest.mark.parametrize("out", ["ratings", "ratings.json", "reference.csv"])
    def test_simulate_out_naming_an_input(self, toy_files, tmp_path, monkeypatch, capsys, out):
        ratings, reference = toy_files
        # Spelled another way than the input, so only the file can match.
        base = tmp_path / "." / out
        self._refused(["simulate", str(ratings), "--ref", str(reference), "--n", "10:20:10",
                       "--runs", "2", "--out", str(base)], tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("which", [0, 1])
    def test_compare_json_naming_an_input(self, toy_files, tmp_path, monkeypatch, capsys, which):
        ratings, reference = toy_files
        self._refused(["compare", str(ratings), str(reference), "--json", str(toy_files[which])],
                      tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("curves, out", [("sweep.csv", "sweep.csv"),
                                             ("model.manifest.json", "model.json")])
    def test_fit_out_naming_its_curves_or_manifest(self, tmp_path, monkeypatch, capsys, curves, out):
        path = tmp_path / curves
        write_curves_csv([MetricCurve("irr", "toy", tuple(
            CurvePoint(n, 0.5, 0.5, 0.5, 0.0) for n in (10, 20, 30, 40)))], path)
        self._refused(["fit", str(path), "--metric", "irr", "--out", str(tmp_path / out)],
                      tmp_path, monkeypatch, capsys)

    def test_compare_creates_its_directory(self, toy_files, tmp_path):
        out = tmp_path / "new" / "deeper" / "cmp.json"
        assert main(["compare", *map(str, toy_files), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["n_shared"] == 6
        assert (out.parent / "cmp.manifest.json").is_file()

    def test_fit_creates_its_directory(self, toy_files, tmp_path):
        sweep = tmp_path / "sweep"
        assert main(["simulate", str(toy_files[0]), "--n", "10:40:10", "--runs", "2",
                     "--out", str(sweep)]) == 0
        out = tmp_path / "new" / "model.json"
        assert main(["fit", f"{sweep}.csv", "--metric", "gain_rmse", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n_points"] == 4
        assert (out.parent / "model.manifest.json").is_file()

    def test_maxci_creates_its_directory(self, tmp_path):
        out = tmp_path / "new" / "widths.csv"
        assert main(["maxci", "--mos", "3", "--n", "10:30:10", "--out", str(out)]) == 0
        assert out.is_file()
        assert (out.parent / "widths.manifest.json").is_file()

    @pytest.mark.parametrize("command, kind", [
        pytest.param(command, kind, id=command if kind == "directory" else f"{command}-{kind}")
        for kind in ("directory", "separator", "empty")
        for command in ("compare", "fit", "maxci", "simulate")
    ])
    def test_out_naming_a_directory(self, toy_files, tmp_path, monkeypatch, capsys, command, kind):
        # An existing directory, a new path ending in a separator and an empty
        # path each exit 2 before anything is read, printed or created.
        folder = tmp_path / "results"
        folder.mkdir()
        out = {"directory": str(folder), "separator": f"{tmp_path / 'new'}/", "empty": ""}[kind]
        argv = {
            "compare": ["compare", *map(str, toy_files), "--json", out],
            "fit": ["fit", str(toy_files[0]), "--metric", "irr", "--out", out],
            "maxci": ["maxci", "--mos", "3", "--n", "10:30:10", "--out", out],
            "simulate": ["simulate", str(toy_files[0]), "--n", "10:20:10", "--runs", "2",
                         "--out", out],
        }[command]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_read_input", lambda *args: pytest.fail("an input was read"))
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        error = f"{folder} is a directory" if kind == "directory" else f"{out!r} does not name a file"
        assert capsys.readouterr() == ("", f"error: output {error}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_manifest_naming_a_directory(self, toy_files, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "sim.manifest.json"
        manifest.mkdir()
        monkeypatch.setattr(cli, "_read_input", lambda *args: pytest.fail("an input was read"))
        before = sorted(tmp_path.rglob("*"))
        assert main(["simulate", str(toy_files[0]), "--n", "10:20:10", "--runs", "2",
                     "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr() == ("", f"error: output {manifest} is a directory\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_maxci_unwritable_out_prints_nothing(self, tmp_path, capsys):
        # The output directory is checked before the table is printed.
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" / "x.csv"
        assert main(["maxci", "--mos", "3", "--n", "10:30:10", "--out", str(out)]) == 1
        assert capsys.readouterr().out == ""


COLD_START_SCRIPT = """
import json, sys
def probed_modules():
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return [scipy, "numpy.fft" in sys.modules, "concurrent.futures" in sys.modules,
            "numpy.ma" in sys.modules]
import qvotes.cli
ratings, reference, curves, out, report = sys.argv[1:]
loaded = {"import qvotes.cli": [0, *probed_modules()]}
sweep = ["--ref", reference, "--n", "10:40:10", "--seed", "3"]
steps = {
    "validate": ["validate", ratings, "--ref", reference],
    "compare": ["compare", ratings, reference, "--fom"],
    "fit": ["fit", curves, "--metric", "gain_rmse"],
    "simulate --runs 1 --metrics gain_rmse,irr":
        ["simulate", ratings, *sweep, "--runs", "1", "--metrics", "gain_rmse,irr", "--out", out],
    "simulate --runs 1": ["simulate", ratings, *sweep, "--runs", "1", "--out", out],
    "simulate --runs 2": ["simulate", ratings, *sweep, "--runs", "2", "--out", out],
    "maxci": ["maxci", "--mos", "3", "--n", "10:20:10"],
}
for name, argv in steps.items():
    loaded[name] = [qvotes.cli.main(argv), *probed_modules()]
with open(report, "w") as fh:
    json.dump(loaded, fh)
"""


class TestColdStart:
    """Which optional modules each command loads, step by step in one fresh
    interpreter (this test process has scipy and numpy.fft loaded already).
    ``fit`` reads a committed curve file so that it runs before any sweep."""

    def _loaded(self, toy_files, tmp_path):
        ratings, reference = toy_files
        curves = Path(__file__).resolve().parent / "data" / "golden_sweep.csv"
        report = tmp_path / "modules.json"
        env = child_env()
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_SCRIPT, str(ratings), str(reference),
             str(curves), str(tmp_path / "sweep"), str(report)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(report.read_text())
        assert all(code == 0 for code, *_ in loaded.values()), loaded
        return loaded

    def test_scipy_is_imported_only_for_quantiles(self, toy_files, tmp_path):
        loaded = self._loaded(toy_files, tmp_path)
        for step in ("import qvotes.cli", "validate", "compare", "fit",
                     "simulate --runs 1 --metrics gain_rmse,irr", "simulate --runs 1"):
            assert loaded[step][1] == [], step
        # The across-run t quantile and the beta quantiles of maxci come
        # from scipy.special alone.
        for step in ("simulate --runs 2", "maxci"):
            assert "scipy.special" in loaded[step][1], step
            assert not any(m.startswith("scipy.stats") for m in loaded[step][1]), step

    def test_fft_is_imported_only_for_ci_width(self, toy_files, tmp_path):
        loaded = self._loaded(toy_files, tmp_path)
        for step in ("import qvotes.cli", "validate", "compare", "fit",
                     "simulate --runs 1 --metrics gain_rmse,irr"):
            assert not loaded[step][2], step
        # The default sweep computes ci_width, whose exact bootstrap is the
        # only user of numpy.fft.
        assert loaded["simulate --runs 1"][2]

    def test_no_thread_pool_is_imported(self, toy_files, tmp_path):
        loaded = self._loaded(toy_files, tmp_path)
        # scipy.special pulls concurrent.futures in through numpy.testing;
        # qvotes itself never imports it.
        for step, (_, scipy, _, futures, _) in loaded.items():
            assert not futures or scipy, step

    def test_masked_arrays_are_not_imported(self, toy_files, tmp_path):
        loaded = self._loaded(toy_files, tmp_path)
        for step in ("import qvotes.cli", "validate", "compare", "fit"):
            assert not loaded[step][4], step


BYTE_ORDER_MARK_SCRIPT = """
import sys
import qvotes.cli
ratings, reference, out = sys.argv[1:]
before = "encodings.utf_8_sig" in sys.modules
code = qvotes.cli.main(["simulate", ratings, "--ref", reference, "--n", "2:6:2", "--runs", "3",
                        "--seed", "5", "--out", out])
print(code, before, "encodings.utf_8_sig" in sys.modules)
"""


def test_byte_order_marks_are_dropped_without_the_utf_8_sig_codec(toy_files, tmp_path):
    # Bytes lose a leading mark by hand and decode as plain UTF-8, so a
    # sweep of marked inputs imports no codec module of its own, in a fresh
    # interpreter, and writes the curves of the unmarked inputs.
    (tmp_path / "marked").mkdir()
    marked = [tmp_path / "marked" / path.name for path in toy_files]
    for path, copy in zip(toy_files, marked):
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "-c", BYTE_ORDER_MARK_SCRIPT, *map(str, marked), str(tmp_path / "marked" / "out")],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"
    ratings, reference = toy_files
    assert main(["simulate", str(ratings), "--ref", str(reference), "--n", "2:6:2", "--runs", "3",
                 "--seed", "5", "--out", str(tmp_path / "plain")]) == 0
    for suffix in (".csv", ".json"):
        marked_bytes = (tmp_path / "marked" / f"out{suffix}").read_bytes()
        assert marked_bytes == (tmp_path / f"plain{suffix}").read_bytes(), suffix
