"""Numeric Laplace–Stieltjes transforms.

The GI/M/1 fixed point (paper eq. (6)) needs ``L_TX(s) = E[exp(-s T)]``
for the inter-arrival distribution ``TX``. The paper's Facebook workload
uses a Generalized Pareto ``TX`` whose LST has no elementary closed form,
so we evaluate it with adaptive quadrature on the survival-function
identity::

    E[exp(-s T)] = 1 - s * \\int_0^\\infty exp(-s t) P(T > t) dt

This form is preferred over integrating ``exp(-s t) f(t) dt`` because it
avoids needing the density and is numerically benign for heavy tails: the
integrand is bounded by ``exp(-s t)`` which quadrature handles well.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..errors import ConvergenceError, ValidationError


def laplace_from_survival(
    survival: Callable[[float], float],
    s: float,
    *,
    mean: Optional[float] = None,
    rtol: float = 1e-10,
) -> float:
    """Evaluate ``E[exp(-s T)]`` from the survival function of ``T``.

    Parameters
    ----------
    survival:
        ``t -> P(T > t)`` for ``t >= 0``.
    s:
        Transform argument; must be ``>= 0`` (the GI/M/1 fixed point only
        evaluates the LST on the non-negative real axis).
    mean:
        Optional ``E[T]``; used to scale the integration variable so that
        quadrature sees an O(1) problem regardless of units.
    rtol:
        Relative tolerance passed to the quadrature routine.
    """
    if s < 0:
        raise ValidationError(f"LST argument must be >= 0, got {s}")
    if s == 0:
        return 1.0

    # Change variables u = s * t so the integrand decays like exp(-u):
    # integral exp(-s t) S(t) dt = (1/s) integral exp(-u) S(u / s) du.
    def integrand(u: float) -> float:
        return math.exp(-u) * survival(u / s)

    from scipy import integrate

    value, abserr = integrate.quad(
        integrand,
        0.0,
        math.inf,
        epsabs=1e-13,
        epsrel=rtol,
        limit=400,
    )
    if not math.isfinite(value):
        raise ConvergenceError(
            f"quadrature for LST diverged at s={s}", last_value=value
        )
    result = 1.0 - value
    # Clamp tiny numerical excursions outside [0, 1].
    if -1e-9 <= result < 0.0:
        result = 0.0
    elif 1.0 < result <= 1.0 + 1e-9:
        result = 1.0
    if not 0.0 <= result <= 1.0:
        raise ConvergenceError(
            f"LST value {result} outside [0, 1] at s={s} "
            f"(quadrature error {abserr:.2e})",
            last_value=result,
        )
    return result
