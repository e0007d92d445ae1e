"""Quantitative analysis of the latency estimate (paper §5.2).

The paper turns Theorem 1 into scaling laws; this module holds the
least-squares fits that verify them and the marginal-benefit figures
the advisor reports:

* ``E[TS(N)] = Theta(1/(1-q))`` in the concurrency (Fig. 5);
* ``E[TS(N)] = Theta(log N)`` (Fig. 12);
* ``E[TD(N)] = Theta(r)`` small N / ``Theta(log r)`` large N (eq. (25),
  Fig. 11) and ``Theta(log N)`` (Fig. 13).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ValidationError
from .stages import DatabaseStage


# ----------------------------------------------------------------------
# Scaling-law extraction.
# ----------------------------------------------------------------------


def fit_linear_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``y`` on ``x``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValidationError("need matching x/y with at least two points")
    sxx = float(((xs - xs.mean()) ** 2).sum())
    if sxx == 0:
        raise ValidationError("x values must not be all equal")
    return float(((xs - xs.mean()) * (ys - ys.mean())).sum() / sxx)


def fit_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Slope of ``y`` on ``log x`` — the Theta(log .) checks."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise ValidationError("x values must be positive for a log fit")
    return fit_linear_slope(np.log(xs), ys)


def goodness_of_linear_fit(xs: Sequence[float], ys: Sequence[float]) -> float:
    """R^2 of the least-squares line of ``y`` on ``x``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope = fit_linear_slope(xs, ys)
    intercept = float(ys.mean() - slope * xs.mean())
    residuals = ys - (intercept + slope * xs)
    total = float(((ys - ys.mean()) ** 2).sum())
    if total == 0:
        return 1.0
    return 1.0 - float((residuals**2).sum()) / total


def marginal_benefit_fewer_keys(
    database: DatabaseStage, n_keys: float, *, factor: float = 2.0
) -> float:
    """Latency saved by cutting the key count by ``factor`` (seconds)."""
    if factor <= 1.0:
        raise ValidationError(f"factor must be > 1, got {factor}")
    return database.mean_latency(n_keys) - database.mean_latency(n_keys / factor)


def marginal_benefit_lower_miss_ratio(
    database: DatabaseStage, n_keys: float, *, factor: float = 2.0
) -> float:
    """Latency saved by cutting the miss ratio by ``factor`` (seconds)."""
    if factor <= 1.0:
        raise ValidationError(f"factor must be > 1, got {factor}")
    improved = database.with_miss_ratio(database.miss_ratio / factor)
    return database.mean_latency(n_keys) - improved.mean_latency(n_keys)
