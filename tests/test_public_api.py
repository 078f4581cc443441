"""The package's public surface: ``qvotes.__all__`` names exactly what
``from qvotes import *`` binds, and every name in it resolves."""

from __future__ import annotations

import dataclasses
import io
from pathlib import Path

import pytest

import qvotes


def test_every_exported_name_resolves():
    missing = [name for name in qvotes.__all__ if not hasattr(qvotes, name)]
    assert not missing


def test_exports_do_not_repeat():
    assert len(set(qvotes.__all__)) == len(qvotes.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from qvotes import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qvotes.__all__)


def test_all_is_pinned():
    # Adding or removing a public name is an API change: update this list
    # on purpose, and bump the version.
    assert qvotes.__all__ == [
        "__version__",
        "ComparisonResult",
        "ConfigError",
        "CurvePoint",
        "DataError",
        "DegenerateDataError",
        "LinearMap",
        "MetricCurve",
        "MosVector",
        "PowerModel",
        "QvotesError",
        "RatingDataset",
        "ReferenceMos",
        "SweepConfig",
        "average_ranks",
        "bootstrap_ci_mos",
        "certainty_gain",
        "clopper_pearson",
        "compare_to_reference",
        "dataset_mos",
        "draw_run_sample",
        "fit_line",
        "fit_power_model",
        "irr_full",
        "load_ratings",
        "load_reference",
        "max_ci_width",
        "read_curves_csv",
        "read_curves_json",
        "reference_coverage",
        "remove_outliers_iqr",
        "rmse",
        "run_sweep",
        "srcc",
        "votes_for_target",
        "write_curves_csv",
        "write_curves_json",
    ]


def test_dataset_surface_is_pinned():
    # Adding or removing a public attribute of a dataset is an API change:
    # update this list on purpose, and bump the version.
    ds = qvotes.load_ratings(io.StringIO("condition_id,user_id,score\nc1,u1,4\n"))
    assert sorted(name for name in dir(ds) if not name.startswith("_")) == [
        "conditions",
        "label",
        "n_votes",
        "stimuli",
        "summary",
        "users",
        "votes_per_condition",
    ]


def test_mos_vector_surface_is_pinned():
    # Adding or removing a public attribute of a MOS vector is an API
    # change: update this list on purpose, and bump the version.
    mos = qvotes.MosVector(("c1",), [4.0])
    assert sorted(name for name in dir(mos) if not name.startswith("_")) == [
        "conditions",
        "values",
    ]


def test_reference_surface_is_pinned():
    # Adding or removing a public attribute of a reference table is an API
    # change: update this list on purpose, and bump the version.
    ref = qvotes.ReferenceMos({"c1": 4.0})
    assert sorted(name for name in dir(ref) if not name.startswith("_")) == ["mos"]


def test_written_record_fields_are_pinned():
    # Output files take their keys and columns from these fields: renaming
    # or reordering one changes the curve CSV and JSON, ``compare --json``,
    # ``fit --out`` or the config a curve JSON echoes.  Update this on
    # purpose, and record the output change.
    assert qvotes.CurvePoint._fields == ("n", "mean", "ci_low", "ci_high", "std_dev")
    fields = {
        record: [f.name for f in dataclasses.fields(record)]
        for record in (qvotes.ComparisonResult, qvotes.PowerModel, qvotes.SweepConfig)
    }
    assert fields == {
        qvotes.ComparisonResult: ["n_shared", "srcc", "rmse", "rmse_after_mapping", "mapping"],
        qvotes.PowerModel: ["a", "b", "c", "rmse_of_fit", "n_points"],
        qvotes.SweepConfig: ["n_values", "repetitions", "master_seed", "metrics", "ci_level",
                             "apply_first_order_map"],
    }


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == qvotes.__version__
