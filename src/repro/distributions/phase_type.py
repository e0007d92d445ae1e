"""Phase-type and classical renewal distributions.

These cover the burstiness spectrum around the exponential:

* :class:`Erlang` / :class:`Gamma` — smoother than Poisson (cv2 < 1),
  the low-variance side of GI/M/1 sweeps.
* :class:`Hyperexponential` — burstier than Poisson (cv2 > 1) with a
  closed-form LST; a light-tailed alternative to the Generalized Pareto
  for ablations.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy import special

from ..errors import ValidationError
from .base import Distribution, require_positive, require_weights


class Gamma(Distribution):
    """Gamma distribution with shape ``k`` and rate ``rate``."""

    def __init__(self, shape: float, rate: float) -> None:
        self._shape = require_positive("shape", shape)
        self._rate = require_positive("rate", rate)

    @classmethod
    def from_mean_cv2(cls, mean: float, cv2: float) -> "Gamma":
        """Construct from mean and squared coefficient of variation."""
        mean = require_positive("mean", mean)
        cv2 = require_positive("cv2", cv2)
        shape = 1.0 / cv2
        return cls(shape, shape / mean)

    @property
    def shape(self) -> float:
        return self._shape

    @property
    def mean(self) -> float:
        return self._shape / self._rate

    @property
    def variance(self) -> float:
        return self._shape / (self._rate * self._rate)

    def cdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return float(special.gammainc(self._shape, self._rate * t))

    def pdf(self, t: float) -> float:
        if t < 0:
            return 0.0
        from scipy import stats

        return float(stats.gamma.pdf(t, self._shape, scale=1.0 / self._rate))

    def quantile(self, k: float) -> float:
        if not 0.0 <= k < 1.0:
            raise ValidationError(f"quantile level must be in [0, 1): {k}")
        from scipy import stats

        return float(stats.gamma.ppf(k, self._shape, scale=1.0 / self._rate))

    def laplace(self, s: float) -> float:
        if s < 0:
            raise ValidationError(f"LST argument must be >= 0, got {s}")
        return (self._rate / (self._rate + s)) ** self._shape

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.gamma(self._shape, 1.0 / self._rate, size=size)


class Erlang(Gamma):
    """Erlang-k: Gamma with integer shape; sum of k exponentials."""

    def __init__(self, k: int, rate: float) -> None:
        if int(k) != k or k < 1:
            raise ValidationError(f"Erlang order must be a positive integer, got {k}")
        super().__init__(int(k), rate)

    @property
    def order(self) -> int:
        return int(self._shape)


class Hyperexponential(Distribution):
    """A mixture of exponentials: with prob ``w_i`` the rate is ``rates[i]``.

    cv2 >= 1 always, which makes it the canonical *bursty but light-tailed*
    renewal process for GI/M/1 studies.
    """

    def __init__(self, weights: Sequence[float], rates: Sequence[float]) -> None:
        self._weights = require_weights("weights", weights)
        rates = np.asarray(rates, dtype=float)
        if rates.shape != self._weights.shape:
            raise ValidationError("weights and rates must have equal length")
        if np.any(rates <= 0):
            raise ValidationError("all rates must be > 0")
        self._rates = rates

    @classmethod
    def balanced_two_phase(cls, mean: float, cv2: float) -> "Hyperexponential":
        """Two-phase H2 with balanced means matching ``mean`` and ``cv2 >= 1``.

        Uses the standard balanced-means construction: ``p1/r1 = p2/r2``.
        """
        mean = require_positive("mean", mean)
        cv2 = float(cv2)
        if cv2 < 1.0:
            raise ValidationError(f"H2 requires cv2 >= 1, got {cv2}")
        if math.isclose(cv2, 1.0):
            return cls([1.0], [1.0 / mean])
        root = math.sqrt((cv2 - 1.0) / (cv2 + 1.0))
        p1 = 0.5 * (1.0 + root)
        p2 = 1.0 - p1
        r1 = 2.0 * p1 / mean
        r2 = 2.0 * p2 / mean
        return cls([p1, p2], [r1, r2])

    @property
    def mean(self) -> float:
        return float(np.sum(self._weights / self._rates))

    @property
    def variance(self) -> float:
        second = float(np.sum(2.0 * self._weights / self._rates**2))
        return second - self.mean**2

    def cdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return float(np.sum(self._weights * -np.expm1(-self._rates * t)))

    def survival(self, t: float) -> float:
        if t <= 0:
            return 1.0
        return float(np.sum(self._weights * np.exp(-self._rates * t)))

    def pdf(self, t: float) -> float:
        if t < 0:
            return 0.0
        return float(np.sum(self._weights * self._rates * np.exp(-self._rates * t)))

    def laplace(self, s: float) -> float:
        if s < 0:
            raise ValidationError(f"LST argument must be >= 0, got {s}")
        return float(np.sum(self._weights * self._rates / (self._rates + s)))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            phase = rng.choice(len(self._rates), p=self._weights)
            return rng.exponential(1.0 / self._rates[phase])
        phases = rng.choice(len(self._rates), size=size, p=self._weights)
        return rng.exponential(1.0 / self._rates[phases])


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``; a simple low-variance law."""

    def __init__(self, low: float, high: float) -> None:
        low = float(low)
        high = float(high)
        if low < 0 or high <= low:
            raise ValidationError(f"need 0 <= low < high, got [{low}, {high}]")
        self._low = low
        self._high = high

    @property
    def mean(self) -> float:
        return 0.5 * (self._low + self._high)

    @property
    def variance(self) -> float:
        return (self._high - self._low) ** 2 / 12.0

    def cdf(self, t: float) -> float:
        if t <= self._low:
            return 0.0
        if t >= self._high:
            return 1.0
        return (t - self._low) / (self._high - self._low)

    def pdf(self, t: float) -> float:
        if self._low <= t <= self._high:
            return 1.0 / (self._high - self._low)
        return 0.0

    def quantile(self, k: float) -> float:
        if not 0.0 <= k < 1.0:
            raise ValidationError(f"quantile level must be in [0, 1): {k}")
        return self._low + k * (self._high - self._low)

    def laplace(self, s: float) -> float:
        if s < 0:
            raise ValidationError(f"LST argument must be >= 0, got {s}")
        if s == 0:
            return 1.0
        width = self._high - self._low
        return (math.exp(-s * self._low) - math.exp(-s * self._high)) / (s * width)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.uniform(self._low, self._high, size=size)
