"""Power-model fitting and vote-target tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvotes import (
    DataError,
    DegenerateDataError,
    PowerModel,
    fit_power_model,
    votes_for_target,
)

SWEEP_X = tuple(range(10, 201, 10))

# Published coefficient triples for the benchmark curves; the mapped RMSE
# variants exercise different shapes.
KNOWN_MODELS = [
    ("srcc_401", -0.3837, -1.0129, 0.9749),
    ("srcc_501", -0.3039, -0.8319, 0.8916),
    ("srcc_701", -0.3443, -0.9675, 0.9317),
    ("rmse_401", 0.6467, -0.9903, 0.4803),
    ("rmse_501", 0.6717, -0.8544, 0.3184),
    ("rmse_701", 0.7667, -0.9142, 0.3172),
    ("rmse_401_mapped", 0.8004, -0.8306, 0.1647),
    ("rmse_501_mapped", 0.6528, -0.8588, 0.3109),
    ("rmse_701_mapped", 0.8141, -0.9074, 0.3149),
]


def model_points(a, b, c, xs=SWEEP_X):
    return [(float(x), a * x**b + c) for x in xs]


class TestFitPowerModel:
    @pytest.mark.parametrize("name,a,b,c", KNOWN_MODELS)
    def test_noiseless_round_trip(self, name, a, b, c):
        model = fit_power_model(model_points(a, b, c))
        assert model.a == pytest.approx(a, rel=1e-6)
        assert model.b == pytest.approx(b, rel=1e-6)
        assert model.c == pytest.approx(c, rel=1e-6)
        assert model.rmse_of_fit < 1e-9
        assert model.n_points == len(SWEEP_X)

    def test_constant_y_degenerate(self):
        model = fit_power_model([(x, 0.5) for x in (10, 20, 30, 40)])
        assert (model.a, model.b, model.c) == (0.0, -1.0, 0.5)
        assert model.rmse_of_fit == 0.0

    def test_needs_four_distinct_x(self):
        with pytest.raises(DataError, match="4 distinct"):
            fit_power_model([(10, 1.0), (20, 2.0), (30, 3.0)])
        with pytest.raises(DataError, match="4 distinct"):
            fit_power_model([(10, 1.0), (10, 1.1), (20, 2.0), (30, 3.0)])

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DataError, match="positive"):
            fit_power_model([(0, 1.0), (10, 2.0), (20, 3.0), (30, 4.0)])

    @pytest.mark.parametrize(
        "bad",
        [(1, np.nan), (1, np.inf), (0, np.inf), (0, np.nan)],
        ids=["nan_y", "inf_y", "inf_x", "nan_x"],
    )
    def test_rejects_non_finite_points(self, bad):
        # NaN or inf in y used to raise TypeError; inf in x returned a
        # model, NaN in x raised LinAlgError
        points = [[10.0, 0.4], [20.0, 0.5], [30.0, 0.6], [40.0, 0.7]]
        column, value = bad
        points[0][column] = value
        with pytest.raises(DataError, match="finite"):
            fit_power_model(points)

    def test_rejects_bad_shape(self):
        with pytest.raises(DataError):
            fit_power_model([1.0, 2.0, 3.0, 4.0])

    def test_never_worse_than_best_linear_start(self):
        # the fit must not lose to the exact (a, c) at any of the exponents
        # that seeded the Gauss-Newton fit of qvotes 0.5
        rng = np.random.default_rng(0)
        x = np.array(SWEEP_X, dtype=float)
        y = -0.4 * x**-0.9 + 0.95 + rng.normal(0, 0.01, x.size)
        best_start_sse = np.inf
        for b0 in (-2.0, -1.5, -1.0, -0.5, -0.25, -0.1):
            design = np.column_stack([x**b0, np.ones_like(x)])
            (a0, c0), *_ = np.linalg.lstsq(design, y, rcond=None)
            sse = float(np.sum((a0 * x**b0 + c0 - y) ** 2))
            best_start_sse = min(best_start_sse, sse)
        model = fit_power_model(list(zip(x, y)))
        assert model.rmse_of_fit**2 * x.size <= best_start_sse + 1e-12

    def test_direction_matches_data(self):
        x = np.array(SWEEP_X, dtype=float)
        rising = 0.9 - 0.5 * x**-0.7
        model_up = fit_power_model(list(zip(x, rising)))
        assert model_up.a < 0 and model_up.b < 0
        falling = 0.3 + 0.8 * x**-0.9
        model_down = fit_power_model(list(zip(x, falling)))
        assert model_down.a > 0 and model_down.b < 0

    def test_saturating_non_power_data(self):
        # exponential saturation is not in the family but the fit should
        # still land on a rising saturating shape
        x = np.array(SWEEP_X, dtype=float)
        y = 1.0 - np.exp(-x / 30.0)
        model = fit_power_model(list(zip(x, y)))
        assert model.a < 0 and model.b < 0
        assert model.rmse_of_fit < 0.05


DENSE_B = -np.geomspace(8.0, 0.001, 4001)


def dense_grid_sse(x, y):
    """Least SSE of a * x^b + c over DENSE_B, each (a, c) solved in
    closed form and the residuals summed explicitly."""
    u = np.power(x[None, :], DENSE_B[:, None])
    du = u - u.mean(axis=1, keepdims=True)
    a = du @ (y - y.mean()) / np.einsum("ij,ij->i", du, du)
    c = y.mean() - a * u.mean(axis=1)
    r = a[:, None] * u + c[:, None] - y[None, :]
    return float(np.min(np.einsum("ij,ij->i", r, r)))


class TestFitOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(st.integers(1, 400), min_size=4, max_size=30, unique=True),
        a=st.floats(0.05, 2.0),
        rising=st.booleans(),
        b=st.floats(-3.0, -0.05),
        c=st.floats(-1.0, 1.0),
        noise=st.floats(0.0, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_above_dense_grid_minimum(self, xs, a, rising, b, c, noise, seed):
        x = np.array(sorted(xs), dtype=float)
        a = -a if rising else a
        y = a * x**b + c + np.random.default_rng(seed).normal(0.0, noise, x.size)
        model = fit_power_model(list(zip(x, y)))
        assert -8.0 <= model.b <= -0.001
        fit_sse = model.rmse_of_fit**2 * x.size
        assert fit_sse <= dense_grid_sse(x, y) * (1 + 1e-9) + 1e-24


def scalar_evaluate(model, x):
    """The removed ``evaluate_model``: the model at one vote count, in
    Python floats.  ``predict`` must give its bits on the cases below."""
    return float(model.a * float(x) ** model.b + model.c)


class TestEvaluateModel:
    """``PowerModel.predict``, the one evaluation of a fitted model."""

    def test_known_curve_value(self):
        model = PowerModel(a=-0.3837, b=-1.0129, c=0.9749, rmse_of_fit=0.0, n_points=20)
        expected = -0.3837 * 60.0**-1.0129 + 0.9749
        assert float(model.predict(60)) == pytest.approx(expected, abs=1e-15)
        assert float(model.predict(60)) == pytest.approx(0.9688, abs=1e-4)
        assert float(model.predict(60)) == scalar_evaluate(model, 60)

    def test_asymptote(self):
        model = PowerModel(a=-0.3837, b=-1.0129, c=0.9749, rmse_of_fit=0.0, n_points=20)
        assert float(model.predict(1e6)) == pytest.approx(model.c, abs=1e-6)
        assert float(model.predict(1e6)) == scalar_evaluate(model, 1e6)

    def test_degenerate_model_is_flat(self):
        model = PowerModel(a=0.0, b=-1.0, c=0.5, rmse_of_fit=0.0, n_points=4)
        for x in (1, 17, 400):
            assert float(model.predict(x)) == 0.5 == scalar_evaluate(model, x)

    def test_predict_vectorized(self):
        model = PowerModel(a=2.0, b=-1.0, c=1.0, rmse_of_fit=0.0, n_points=4)
        assert np.allclose(model.predict([1.0, 2.0]), [3.0, 2.0])


class TestVotesForTarget:
    srcc_401 = PowerModel(a=-0.3837, b=-1.0129, c=0.9749, rmse_of_fit=0.0, n_points=20)
    rmse_501 = PowerModel(a=0.6717, b=-0.8544, c=0.3184, rmse_of_fit=0.0, n_points=20)

    def _scan_oracle(self, model, target, rising):
        for n in range(1, 1001):
            value = float(model.predict(n))
            if (rising and value >= target) or (not rising and value <= target):
                return n
        return None

    def test_rising_curve_against_integer_scan(self):
        # the scan gives 25: the value at 25 is 0.96018, at 24 it is 0.95955
        oracle = self._scan_oracle(self.srcc_401, 0.96, rising=True)
        assert oracle == 25
        assert votes_for_target(self.srcc_401, 0.96) == oracle

    def test_falling_curve_against_integer_scan(self):
        for target in (1.0, 0.5, 0.35):
            oracle = self._scan_oracle(self.rmse_501, target, rising=False)
            assert votes_for_target(self.rmse_501, target) == oracle

    def test_target_beyond_asymptote_unreachable(self):
        assert votes_for_target(self.srcc_401, 0.98) is None
        assert votes_for_target(self.srcc_401, self.srcc_401.c) is None

    def test_falling_curve_asymptote_unreachable(self):
        assert votes_for_target(self.rmse_501, self.rmse_501.c) is None
        assert votes_for_target(self.rmse_501, 0.1) is None

    def test_already_met_at_one(self):
        assert votes_for_target(self.srcc_401, 0.0) == 1

    def test_monotone_in_target(self):
        targets = np.linspace(0.90, 0.974, 30)
        counts = [votes_for_target(self.srcc_401, float(t)) for t in targets]
        assert all(c is not None for c in counts)
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_nan_target_rejected(self):
        # used to raise ValueError: cannot convert float NaN to integer
        with pytest.raises(DataError, match="NaN"):
            votes_for_target(self.srcc_401, float("nan"))

    @pytest.mark.parametrize("model, target", [
        (PowerModel(a=-1.0, b=-0.001, c=1.0, rmse_of_fit=0.0, n_points=5), 0.9),
        (PowerModel(a=1.0, b=-0.001, c=0.0, rmse_of_fit=0.0, n_points=5), 0.1),
    ])
    def test_count_beyond_float_range(self, model, target):
        # 0.1 ** -1000 used to escape as OverflowError
        with pytest.raises(DataError, match="more votes than can be represented"):
            votes_for_target(model, target)

    def test_degenerate_model_rejected(self):
        flat = PowerModel(a=0.0, b=-1.0, c=0.5, rmse_of_fit=0.0, n_points=4)
        with pytest.raises(DegenerateDataError):
            votes_for_target(flat, 0.4)
        growing = PowerModel(a=1.0, b=0.5, c=0.5, rmse_of_fit=0.0, n_points=4)
        with pytest.raises(DegenerateDataError):
            votes_for_target(growing, 0.4)
