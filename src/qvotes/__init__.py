"""qvotes: how many subjective quality votes per condition are enough.

Resamples real rating datasets to show how validity (agreement with a
reference test) and reliability (inter-rater agreement, certainty gain,
MOS confidence width) depend on the number of votes per condition, and
fits saturating power models to the resulting curves.
"""

__version__ = "0.14.0"

from .bootstrap import bootstrap_ci_mos, clopper_pearson, max_ci_width
from .data import (
    RatingDataset,
    ReferenceMos,
    load_ratings,
    load_reference,
    reference_coverage,
    remove_outliers_iqr,
)
from .errors import ConfigError, DataError, DegenerateDataError, QvotesError
from .modelfit import PowerModel, fit_power_model, votes_for_target
from .simulate import (
    CurvePoint,
    MetricCurve,
    SweepConfig,
    certainty_gain,
    draw_run_sample,
    irr_full,
    read_curves_csv,
    read_curves_json,
    run_sweep,
    write_curves_csv,
    write_curves_json,
)
from .stats import (
    ComparisonResult,
    LinearMap,
    MosVector,
    average_ranks,
    compare_to_reference,
    dataset_mos,
    fit_line,
    rmse,
    srcc,
)

__all__ = [
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
