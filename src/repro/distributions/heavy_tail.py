"""Additional heavy- and moderate-tailed laws for workload modeling.

Key/value sizes in the Facebook trace are well described by Pareto and
(generalized-extreme-value-like) skewed laws; we provide Pareto, Weibull
and Lognormal so workload generators can model realistic size mixes, and
so burstiness ablations can compare tail families.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ValidationError
from .base import Distribution, require_positive


class Pareto(Distribution):
    """Classic Pareto (Lomax-shifted) with ``P(T > t) = (xm / (xm + t))^alpha``.

    Location-zero (Lomax) form so support starts at 0, matching the other
    time distributions.
    """

    def __init__(self, alpha: float, xm: float) -> None:
        self._alpha = require_positive("alpha", alpha)
        self._xm = require_positive("xm", xm)

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def mean(self) -> float:
        if self._alpha <= 1.0:
            return math.inf
        return self._xm / (self._alpha - 1.0)

    @property
    def variance(self) -> float:
        if self._alpha <= 2.0:
            return math.inf
        a = self._alpha
        return self._xm**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def cdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return 1.0 - (self._xm / (self._xm + t)) ** self._alpha

    def survival(self, t: float) -> float:
        if t <= 0:
            return 1.0
        return (self._xm / (self._xm + t)) ** self._alpha

    def pdf(self, t: float) -> float:
        if t < 0:
            return 0.0
        return self._alpha / self._xm * (self._xm / (self._xm + t)) ** (self._alpha + 1.0)

    def quantile(self, k: float) -> float:
        if not 0.0 <= k < 1.0:
            raise ValidationError(f"quantile level must be in [0, 1): {k}")
        return self._xm * ((1.0 - k) ** (-1.0 / self._alpha) - 1.0)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        u = rng.random(size)
        return self._xm * ((1.0 - u) ** (-1.0 / self._alpha) - 1.0)


class Weibull(Distribution):
    """Weibull with shape ``k`` and scale ``lam``.

    ``k < 1`` gives a heavy(ish) stretched-exponential tail, ``k > 1`` a
    light tail; a convenient one-knob burstiness family.
    """

    def __init__(self, shape: float, scale: float) -> None:
        self._shape = require_positive("shape", shape)
        self._scale = require_positive("scale", scale)

    @classmethod
    def from_mean(cls, mean: float, shape: float) -> "Weibull":
        """Construct with the given mean and shape."""
        mean = require_positive("mean", mean)
        shape = require_positive("shape", shape)
        scale = mean / math.gamma(1.0 + 1.0 / shape)
        return cls(shape, scale)

    @property
    def mean(self) -> float:
        return self._scale * math.gamma(1.0 + 1.0 / self._shape)

    @property
    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self._shape)
        g2 = math.gamma(1.0 + 2.0 / self._shape)
        return self._scale**2 * (g2 - g1 * g1)

    def cdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return -math.expm1(-((t / self._scale) ** self._shape))

    def survival(self, t: float) -> float:
        if t <= 0:
            return 1.0
        return math.exp(-((t / self._scale) ** self._shape))

    def pdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        z = t / self._scale
        return (
            self._shape
            / self._scale
            * z ** (self._shape - 1.0)
            * math.exp(-(z**self._shape))
        )

    def quantile(self, k: float) -> float:
        if not 0.0 <= k < 1.0:
            raise ValidationError(f"quantile level must be in [0, 1): {k}")
        return self._scale * (-math.log1p(-k)) ** (1.0 / self._shape)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return self._scale * rng.weibull(self._shape, size=size)


class Lognormal(Distribution):
    """Lognormal with log-mean ``mu`` and log-std ``sigma``."""

    def __init__(self, mu: float, sigma: float) -> None:
        self._mu = float(mu)
        self._sigma = require_positive("sigma", sigma)

    @classmethod
    def from_mean_cv2(cls, mean: float, cv2: float) -> "Lognormal":
        """Construct from the mean and squared coefficient of variation."""
        mean = require_positive("mean", mean)
        cv2 = require_positive("cv2", cv2)
        sigma2 = math.log1p(cv2)
        mu = math.log(mean) - 0.5 * sigma2
        return cls(mu, math.sqrt(sigma2))

    @property
    def mean(self) -> float:
        return math.exp(self._mu + 0.5 * self._sigma**2)

    @property
    def variance(self) -> float:
        s2 = self._sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self._mu + s2)

    def cdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        from scipy import stats

        return float(stats.norm.cdf((math.log(t) - self._mu) / self._sigma))

    def pdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        z = (math.log(t) - self._mu) / self._sigma
        return math.exp(-0.5 * z * z) / (t * self._sigma * math.sqrt(2.0 * math.pi))

    def quantile(self, k: float) -> float:
        if not 0.0 <= k < 1.0:
            raise ValidationError(f"quantile level must be in [0, 1): {k}")
        if k == 0.0:
            return 0.0
        from scipy import stats

        return math.exp(self._mu + self._sigma * float(stats.norm.ppf(k)))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.lognormal(self._mu, self._sigma, size=size)
