"""Generalized Pareto inter-arrival gaps (paper eq. (24)).

The Facebook workload measurement (Atikoglu et al., SIGMETRICS'12) found
that key inter-arrival gaps at a Memcached server follow a Generalized
Pareto distribution. The paper parameterizes it by the average arrival
rate ``lam`` and the burst degree ``xi``::

    TX(t) = 1 - (1 + xi * lam * t / (1 - xi)) ** (-1 / xi)

which is a standard GPD with location 0, shape ``xi`` and scale
``(1 - xi) / lam``, so the mean gap is exactly ``1 / lam`` for every
``xi`` in ``[0, 1)``. ``xi = 0`` is the exponential (Poisson) limit;
larger ``xi`` means heavier tails, i.e. burstier arrivals.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ValidationError
from .base import Distribution, require_positive


class GeneralizedPareto(Distribution):
    """GPD in the paper's ``(rate, burst)`` parameterization.

    Parameters
    ----------
    rate:
        Average arrival rate ``lam`` (events/second); the mean gap is
        ``1 / lam`` regardless of ``xi``.
    xi:
        Burst degree (GPD shape) in ``[0, 1)``. ``xi = 0`` degenerates to
        an exponential; the paper's Facebook workload uses ``xi = 0.15``.
    """

    def __init__(self, rate: float, xi: float) -> None:
        self._rate = require_positive("rate", rate)
        xi = float(xi)
        if not 0.0 <= xi < 1.0:
            raise ValidationError(f"xi must be in [0, 1), got {xi}")
        # Tiny shapes make -1/xi overflow; below ~1e-10 the GPD is
        # numerically indistinguishable from its exponential limit.
        if xi < 1e-10:
            xi = 0.0
        self._xi = xi
        # Standard GPD scale; mean = scale / (1 - xi) = 1 / rate.
        self._scale = (1.0 - xi) / self._rate

    @property
    def arrival_rate(self) -> float:
        """The rate parameter ``lam``."""
        return self._rate

    @property
    def xi(self) -> float:
        """The burst degree (GPD shape)."""
        return self._xi

    @property
    def scale(self) -> float:
        """The standard GPD scale ``(1 - xi) / lam``."""
        return self._scale

    @property
    def mean(self) -> float:
        return 1.0 / self._rate

    @property
    def variance(self) -> float:
        xi = self._xi
        if xi >= 0.5:
            return math.inf
        s = self._scale
        return s * s / ((1.0 - xi) ** 2 * (1.0 - 2.0 * xi))

    def cdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        xi = self._xi
        if xi == 0.0:
            return -math.expm1(-t / self._scale)
        # expm1/log1p form of 1 - (1 + xi t/s)^(-1/xi): stable for tiny
        # xi, where the direct power loses ~xi*t/s of precision to the
        # enormous -1/xi exponent.
        return -math.expm1(-math.log1p(xi * t / self._scale) / xi)

    def survival(self, t: float) -> float:
        if t <= 0:
            return 1.0
        xi = self._xi
        if xi == 0.0:
            return math.exp(-t / self._scale)
        return math.exp(-math.log1p(xi * t / self._scale) / xi)

    def pdf(self, t: float) -> float:
        if t < 0:
            return 0.0
        xi = self._xi
        if xi == 0.0:
            return math.exp(-t / self._scale) / self._scale
        return (
            math.exp(-(1.0 / xi + 1.0) * math.log1p(xi * t / self._scale))
            / self._scale
        )

    def quantile(self, k: float) -> float:
        if not 0.0 <= k < 1.0:
            raise ValidationError(f"quantile level must be in [0, 1): {k}")
        xi = self._xi
        if xi == 0.0:
            return -self._scale * math.log1p(-k)
        # expm1 form of s/xi * ((1-k)^(-xi) - 1); exact inverse of cdf.
        return self._scale / xi * math.expm1(-xi * math.log1p(-k))

    def cache_token(self):
        return ("gpd", self._rate, self._xi)

    def laplace(self, s: float) -> float:
        """LST via the confluent hypergeometric function of the second kind.

        With survival ``S(t) = (1 + t/beta)^(-a)`` (``beta = scale/xi``,
        ``a = 1/xi``), integrating by parts gives::

            E[exp(-s T)] = 1 - s * beta * U(1, 2 - a, s * beta)

        which is far more robust than adaptive quadrature for the slowly
        decaying heavy tail. Falls back to quadrature if ``hyperu``
        returns a non-finite value (extreme parameter corners).

        Below ``xi = 1e-6`` the series in ``xi`` is used instead: there
        ``hyperu`` needs seconds per call (``2 - a`` is about ``-1/xi``)
        while the series is exact to ``O(xi^3)``, far below double
        precision. Expanding ``S(t) = exp(-log1p(xi t/scale)/xi)`` to
        second order and integrating term by term gives, with
        ``r = 1 / (1 + s * scale)``::

            E[exp(-s T)] = r - (1 - r) xi r^2 (1 + xi r (3 r - 2)) + O(xi^3)
        """
        if s < 0:
            raise ValidationError(f"LST argument must be >= 0, got {s}")
        if s == 0:
            return 1.0
        xi = self._xi
        if xi < 1e-6:
            r = 1.0 / (1.0 + s * self._scale)
            return r - (1.0 - r) * xi * r * r * (1.0 + xi * r * (3.0 * r - 2.0))
        from scipy import special

        beta = self._scale / self._xi
        a = 1.0 / self._xi
        value = special.hyperu(1.0, 2.0 - a, s * beta)
        if math.isfinite(value):
            result = 1.0 - s * beta * float(value)
            if -1e-9 <= result < 0.0:
                result = 0.0
            elif 1.0 < result <= 1.0 + 1e-9:
                result = 1.0
            if 0.0 <= result <= 1.0:
                return result
        return super().laplace(s)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        u = rng.random(size)
        xi = self._xi
        if xi == 0.0:
            if size is None:
                return -self._scale * math.log1p(-float(u))
            return -self._scale * np.log1p(-u)
        if size is None:
            return self._scale / xi * math.expm1(-xi * math.log1p(-float(u)))
        return self._scale / xi * np.expm1(-xi * np.log1p(-u))

    def sample_window(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # The uniforms come from one vectorized draw (same bit stream as
        # scalar calls), but the inverse-CDF transform must stay on the
        # libm scalar path: np.expm1/np.log1p differ from math.expm1/
        # math.log1p in the last ulp for ~9% of inputs, which would break
        # the bit-identical windowing contract. The loop only runs once
        # per window refill.
        u = rng.random(int(size))
        xi = self._xi
        if xi == 0.0:
            scale = self._scale
            return np.asarray([-scale * math.log1p(-x) for x in u.tolist()])
        scale_over_xi = self._scale / xi
        return np.asarray(
            [scale_over_xi * math.expm1(-xi * math.log1p(-x)) for x in u.tolist()]
        )

    def with_rate(self, rate: float) -> "GeneralizedPareto":
        """Return a copy with the same burst degree and a new rate."""
        return GeneralizedPareto(rate, self._xi)
