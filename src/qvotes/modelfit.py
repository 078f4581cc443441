"""Saturating power-model fitting: y = a * x^b + c.

The model is linear in (a, c) for a fixed exponent, so fitting starts
from a grid of exponents with the linear subproblem solved exactly, then
refines each start with damped Gauss-Newton steps and keeps the best
local optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError

EXPONENT_STARTS = (-2.0, -1.5, -1.0, -0.5, -0.25, -0.1)
MAX_ITERATIONS = 500
STEP_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PowerModel:
    """Fitted y = a * x^b + c.  For a saturating curve b < 0 and c is the
    asymptote as x grows."""

    a: float
    b: float
    c: float
    rmse_of_fit: float
    n_points: int

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.a * np.power(x, self.b) + self.c


def evaluate_model(model: PowerModel, x: float) -> float:
    """Model value at a vote count x >= 1."""
    return float(model.a * float(x) ** model.b + model.c)


def _residual_cost(x, y, params):
    a, b, c = params
    with np.errstate(over="ignore", invalid="ignore"):
        r = a * np.power(x, b) + c - y
    if not np.all(np.isfinite(r)):
        return r, math.inf
    return r, float(r @ r)


def _refine(x, y, start):
    """Damped Gauss-Newton (Levenberg-style) from one start; never
    returns a worse point than the start."""
    log_x = np.log(x)
    params = np.asarray(start, dtype=float)
    residual, cost = _residual_cost(x, y, params)
    damping = 1e-3
    for _ in range(MAX_ITERATIONS):
        a, b, _ = params
        xb = np.power(x, b)
        jac = np.column_stack([xb, a * log_x * xb, np.ones_like(x)])
        gradient = jac.T @ residual
        hessian = jac.T @ jac
        lhs = hessian + damping * np.diag(np.diag(hessian)) + 1e-12 * np.eye(3)
        try:
            step = np.linalg.solve(lhs, -gradient)
        except np.linalg.LinAlgError:
            break
        trial = params + step
        trial_residual, trial_cost = _residual_cost(x, y, trial)
        if trial_cost < cost:
            params, residual, cost = trial, trial_residual, trial_cost
            damping = max(damping * 0.3, 1e-12)
            if np.linalg.norm(step) < STEP_TOLERANCE:
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    return params, cost


def fit_power_model(points) -> PowerModel:
    """Least-squares fit of a * x^b + c to (x, y) points.

    Needs at least 4 distinct positive x values.  A constant-y input has
    no identifiable (a, b) and yields the documented degenerate model
    (a=0, b=-1, c=mean).
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DataError("points must be (x, y) pairs")
    x = pts[:, 0]
    y = pts[:, 1]
    # Counted without np.unique, which imports numpy.ma.
    distinct = len(set(x.tolist()))
    if distinct < 4:
        raise DataError(f"need at least 4 distinct x values, got {distinct}")
    if np.any(x <= 0):
        raise DataError("x values must be positive")
    if np.all(y == y[0]):
        return PowerModel(a=0.0, b=-1.0, c=float(y[0]), rmse_of_fit=0.0, n_points=x.size)

    best_params = None
    best_cost = math.inf
    ones = np.ones_like(x)
    for b0 in EXPONENT_STARTS:
        design = np.column_stack([np.power(x, b0), ones])
        (a0, c0), *_ = np.linalg.lstsq(design, y, rcond=None)
        params, cost = _refine(x, y, (a0, b0, c0))
        if cost < best_cost:
            best_params, best_cost = params, cost
    a, b, c = best_params
    return PowerModel(
        a=float(a),
        b=float(b),
        c=float(c),
        rmse_of_fit=math.sqrt(best_cost / x.size),
        n_points=int(x.size),
    )


def votes_for_target(model: PowerModel, target: float, search_margin: int = 4) -> int | None:
    """Smallest vote count at which the model meets ``target``.

    For curves rising toward the asymptote (a < 0) the value must reach
    at least the target; for falling curves (a > 0) at most the target.
    Returns None when the target lies beyond the asymptote, which the
    model approaches but never attains.
    """
    if model.a == 0.0 or model.b >= 0.0:
        raise DegenerateDataError(
            "vote targeting needs a saturating model (a != 0, b < 0)"
        )
    rising = model.a < 0.0
    if rising and target >= model.c:
        return None
    if not rising and target <= model.c:
        return None

    def met(n: int) -> bool:
        value = evaluate_model(model, n)
        return value >= target if rising else value <= target

    if met(1):
        return 1
    # Monotone curve: invert analytically, then verify on a small integer
    # window around the float solution.
    exact = ((target - model.c) / model.a) ** (1.0 / model.b)
    start = max(1, int(math.floor(exact)) - search_margin)
    n = start
    while not met(n):
        n += 1
        if n > exact + 10 * search_margin + 10:
            raise DataError("vote target search failed to bracket the solution")
    return n
