"""Saturating power-model fitting: y = a * x^b + c.

For a fixed exponent b the model is linear in (a, c), so the least-squares
fit reduces to a one-dimensional search over b of the cost left after
solving for (a, c) exactly (variable projection).  The exponent is searched
on a log grid over [-8, -0.001], then refined by golden-section search
around the best grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError

# Exponents tried before the golden-section search, log-spaced in |b| and
# ascending from -8 to -0.001; the search stops at this relative width.
B_GRID = -np.geomspace(8.0, 0.001, 64)
B_RELATIVE_WIDTH = 1e-12
INVERSE_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Integer window checked below the analytic solution in votes_for_target.
SEARCH_MARGIN = 4


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
        """Model value at the vote count(s) ``x``, as an array of x's shape."""
        x = np.asarray(x, dtype=float)
        return self.a * np.power(x, self.b) + self.c


def _linear_fit(x, y, b):
    """(SSE, a, c) of the least-squares (a, c) for the exponent b.

    ``x`` must be scaled to a minimum of 1, so that the column x^b lies in
    (0, 1] and is never negligible beside the column of ones.
    """
    xb = np.power(x, b)
    (a, c), *_ = np.linalg.lstsq(np.column_stack([xb, np.ones_like(x)]), y, rcond=None)
    r = a * xb + c - y
    return float(r @ r), float(a), float(c)


def fit_power_model(points) -> PowerModel:
    """Least-squares fit of a * x^b + c to (x, y) points, with b in
    [-8, -0.001].

    Needs at least 4 distinct positive x values and finite coordinates.
    A constant-y input has no identifiable (a, b) and yields the
    documented degenerate model (a=0, b=-1, c=mean).
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DataError("points must be (x, y) pairs")
    if not np.all(np.isfinite(pts)):
        raise DataError("points must be finite (no NaN or infinity)")
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

    x_min = float(x.min())
    scaled = x / x_min
    seen = {}

    def cost(b: float) -> float:
        if b not in seen:
            seen[b] = _linear_fit(scaled, y, b)
        return seen[b][0]

    best = int(np.argmin([cost(float(b)) for b in B_GRID]))
    lo = float(B_GRID[max(best - 1, 0)])
    hi = float(B_GRID[min(best + 1, B_GRID.size - 1)])
    inner_lo = hi - INVERSE_GOLDEN * (hi - lo)
    inner_hi = lo + INVERSE_GOLDEN * (hi - lo)
    while hi - lo > B_RELATIVE_WIDTH * abs(hi + lo) / 2:
        if cost(inner_lo) < cost(inner_hi):
            hi, inner_hi = inner_hi, inner_lo
            inner_lo = hi - INVERSE_GOLDEN * (hi - lo)
        else:
            lo, inner_lo = inner_lo, inner_hi
            inner_hi = lo + INVERSE_GOLDEN * (hi - lo)
    b = min(seen, key=lambda k: seen[k][0])
    sse, a, c = seen[b]
    return PowerModel(
        # a * (x / x_min)^b == (a * x_min^-b) * x^b
        a=a * x_min**-b,
        b=b,
        c=c,
        rmse_of_fit=math.sqrt(sse / x.size),
        n_points=int(x.size),
    )


def votes_for_target(model: PowerModel, target: float) -> int | None:
    """Smallest vote count at which ``model.predict`` meets ``target``.

    For curves rising toward the asymptote (a < 0) the value must reach
    at least the target; for falling curves (a > 0) at most the target.
    Returns None when the target lies beyond the asymptote, which the
    model approaches but never attains.
    """
    if math.isnan(target):
        raise DataError("vote target must not be NaN")
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
        value = float(model.predict(n))
        return value >= target if rising else value <= target

    if met(1):
        return 1
    # Monotone curve: invert analytically, then verify on a small integer
    # window around the float solution.
    try:
        exact = ((target - model.c) / model.a) ** (1.0 / model.b)
    except (OverflowError, ZeroDivisionError):
        raise DataError(
            f"vote target {target} needs more votes than can be represented"
        ) from None
    n = max(1, int(math.floor(exact)) - SEARCH_MARGIN)
    while not met(n):
        n += 1
        if n > exact + 10 * SEARCH_MARGIN + 10:
            raise DataError("vote target search failed to bracket the solution")
    return n
