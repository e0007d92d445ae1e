"""Latency cliff analysis (paper Proposition 2 and Table 4).

The paper observes that ``E[TS(N)]`` as a function of server utilization
``rho`` has a *cliff point* whose location depends only on the burst
degree ``xi`` — not on the absolute rates (Proposition 2) and, as shown
here, not on the concurrency ``q`` either.

Why only ``(xi, rho)`` matter: with the paper's workload the batch gap is
``GPD(rate=(1-q) lambda, xi)`` whose scale is ``(1-xi)/((1-q) lambda)``,
and the fixed point evaluates the LST at ``s = (1-delta)(1-q) muS``, so
``s * scale = (1-delta)(1-xi)/rho`` — a function of ``(rho, xi)`` alone.
All cliff computations therefore work on the normalized latency curve::

    w(rho) = 1 / (1 - delta(xi, rho))        # E[TS(N)] up to a constant

**Cliff definition.** The paper never states its numeric knee recipe, so
we provide three documented criteria, each calibrated so that Poisson
arrivals (``xi = 0``, where ``delta = rho`` and ``w = 1/(1-rho)``) give
the paper's 77%:

* ``"relative-slope"`` (default): the smallest ``rho`` where
  ``d(ln w)/d rho`` reaches ``1/(1-0.77)``. Matches Table 4 within
  ~0.02 for ``xi <= 0.6`` (the realistic range; Facebook is 0.15).
* ``"iso-delta"``: the ``rho`` where ``delta(xi, rho) = 0.77``.
* ``"absolute-slope"``: the ``rho`` where ``dw/d rho = 1/(1-0.77)^2``.

For extreme burst (``xi >= ~0.8``) the curve is already steep at tiny
utilization; when a criterion is exceeded everywhere the cliff is
reported at the low end of the search range — operationally "any load is
past the cliff", qualitatively matching the paper's collapse to 9–39%.
The bench for Table 4 reports our values against the paper's side by
side.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

import numpy as np

from ..distributions import GeneralizedPareto
from ..errors import ValidationError
from .rootfind import solve_gim1_root

#: The Poisson-limit cliff utilization every criterion is calibrated to.
POISSON_CLIFF = 0.77

#: Search range for cliff roots; beyond rho ~ 0.97 the quadrature-backed
#: fixed point loses precision and every curve is post-cliff anyway.
RHO_SEARCH_RANGE = (0.005, 0.965)

CLIFF_METHODS = ("relative-slope", "iso-delta", "absolute-slope")


def delta_for_utilization(xi: float, rho: float) -> float:
    """The GI/M/1 root ``delta`` as a function of ``(xi, rho)`` only.

    Works in normalized units: unit batch service rate, batch gap
    ``GPD(rate=rho, xi)``. By the scale invariance above this equals the
    delta of any Facebook-style workload with the same burst degree and
    server utilization, regardless of ``lambda``, ``muS`` and ``q``.
    """
    if not 0.0 <= xi < 1.0:
        raise ValidationError(f"xi must be in [0, 1), got {xi}")
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"rho must be in (0, 1), got {rho}")
    if xi == 0.0:
        # Poisson arrivals: the fixed point is exactly delta = rho.
        return rho
    gap = GeneralizedPareto(rho, xi)
    return solve_gim1_root(gap.laplace, 1.0, arrival_rate=rho)


def normalized_latency(xi: float, rho: float) -> float:
    """``w(rho) = 1/(1 - delta)``: E[TS(N)] up to a rho-independent factor."""
    return 1.0 / (1.0 - delta_for_utilization(xi, rho))


def _latency_log_slope(xi: float, rho: float, h: float = 1e-4) -> float:
    """Central-difference ``d(ln w)/d rho``."""
    lo = max(rho - h, RHO_SEARCH_RANGE[0] / 2)
    hi = min(rho + h, 0.985)
    return (
        math.log(normalized_latency(xi, hi)) - math.log(normalized_latency(xi, lo))
    ) / (hi - lo)


def _latency_slope(xi: float, rho: float, h: float = 1e-4) -> float:
    """Central-difference ``dw/d rho``."""
    lo = max(rho - h, RHO_SEARCH_RANGE[0] / 2)
    hi = min(rho + h, 0.985)
    return (normalized_latency(xi, hi) - normalized_latency(xi, lo)) / (hi - lo)


def _first_crossing(
    func: Callable[[float], float], threshold: float
) -> float:
    """Smallest rho in the search range with ``func(rho) >= threshold``.

    Returns the range's low end if the threshold is exceeded everywhere
    (extreme burst: the cliff is immediate) and the high end if it is
    never reached.
    """
    lo, hi = RHO_SEARCH_RANGE
    if func(lo) >= threshold:
        return lo
    if func(hi) < threshold:
        return hi
    from scipy import optimize

    return float(
        optimize.brentq(lambda r: func(r) - threshold, lo, hi, xtol=1e-5)
    )


def cliff_utilization(xi: float, *, method: str = "relative-slope") -> float:
    """The cliff utilization ``rhoS(xi)`` (paper Table 4).

    See the module docstring for the three criteria. All are calibrated
    to return 0.77 in the Poisson limit and are monotonically decreasing
    in the burst degree.
    """
    if not 0.0 <= xi < 1.0:
        raise ValidationError(f"xi must be in [0, 1), got {xi}")
    if method == "relative-slope":
        threshold = 1.0 / (1.0 - POISSON_CLIFF)
        return _first_crossing(lambda r: _latency_log_slope(xi, r), threshold)
    if method == "iso-delta":
        return _first_crossing(lambda r: delta_for_utilization(xi, r), POISSON_CLIFF)
    if method == "absolute-slope":
        threshold = 1.0 / (1.0 - POISSON_CLIFF) ** 2
        return _first_crossing(lambda r: _latency_slope(xi, r), threshold)
    raise ValidationError(
        f"unknown cliff method {method!r}; choose one of {CLIFF_METHODS}"
    )


def cliff_key_rate(
    xi: float, service_rate: float, *, method: str = "relative-slope"
) -> float:
    """Per-server key rate (keys/s) at the Proposition 2 cliff.

    The cliff utilization depends only on the burst degree, so the
    per-server arrival rate where ``E[TS(N)]`` starts exploding is
    simply ``rhoS(xi) * muS``. This is the analytic upper anchor the
    capacity search brackets against: a server driven past this rate is
    on the steep side of the latency curve regardless of ``N`` or ``q``.
    """
    if service_rate <= 0.0:
        raise ValidationError(
            f"service_rate must be > 0, got {service_rate}"
        )
    return cliff_utilization(xi, method=method) * service_rate


def cliff_table(
    xis: Sequence[float], *, method: str = "relative-slope"
) -> Dict[float, float]:
    """Reproduce Table 4: ``{xi: rhoS(xi)}`` for the given burst degrees."""
    return {float(xi): cliff_utilization(float(xi), method=method) for xi in xis}


def knee_point(
    curve: Callable[[float], float],
    *,
    x_max: float,
    n_grid: int = 193,
) -> float:
    """Max-distance-from-chord (Kneedle) knee of an increasing curve.

    Generic utility (used for hit-rate curves and example analyses):
    normalizes both axes over ``[0, x_max]`` to ``[0, 1]`` and returns
    the ``x`` maximizing ``x_hat - y_hat`` for convex curves (or
    ``y_hat - x_hat`` for concave ones, whichever is larger).
    """
    if x_max <= 0:
        raise ValidationError(f"x_max must be > 0, got {x_max}")
    if n_grid < 8:
        raise ValidationError(f"n_grid must be >= 8, got {n_grid}")
    eps = x_max * 1e-6
    xs = np.linspace(eps, x_max, n_grid)
    ys = np.array([curve(float(x)) for x in xs])
    y0, y1 = ys[0], ys[-1]
    if y1 <= y0:
        raise ValidationError("curve must be increasing on the range")
    x_hat = xs / x_max
    y_hat = (ys - y0) / (y1 - y0)
    gaps = np.abs(x_hat - y_hat)
    return float(xs[int(np.argmax(gaps))])


def poisson_cliff_closed_form(rho_max: float = 0.95) -> float:
    """Kneedle knee of ``1/(1-rho)`` on ``[0, rho_max]`` in closed form.

    ``rho* = 1 - sqrt(rho_max / (1/(1-rho_max) - 1))``; at the default
    window this is 77.6%, which is where the 77% calibration constant
    comes from. Kept as an analytic cross-check for :func:`knee_point`.
    """
    if not 0.0 < rho_max < 1.0:
        raise ValidationError(f"rho_max must be in (0, 1), got {rho_max}")
    span = 1.0 / (1.0 - rho_max) - 1.0
    return 1.0 - math.sqrt(rho_max / span)


#: The paper's Table 4, for validation: burst degree -> cliff utilization.
PAPER_TABLE_4 = {
    0.00: 0.77, 0.05: 0.76, 0.10: 0.76, 0.15: 0.75, 0.20: 0.74,
    0.25: 0.73, 0.30: 0.72, 0.35: 0.71, 0.40: 0.69, 0.45: 0.67,
    0.50: 0.65, 0.55: 0.62, 0.60: 0.59, 0.65: 0.55, 0.70: 0.50,
    0.75: 0.45, 0.80: 0.39, 0.85: 0.31, 0.90: 0.21, 0.95: 0.09,
}
