"""Abstract base classes for the stochastic substrate.

Every arrival, service, and size process in the library is described by a
:class:`Distribution` object. The queueing solvers only need a small,
uniform surface: moments, CDF evaluation, quantiles, sampling, and the
Laplace–Stieltjes transform (LST) used by the GI/M/1 fixed point.

Analytic subclasses override :meth:`Distribution.laplace` with a closed
form; heavy-tailed ones (e.g. the Generalized Pareto the paper uses) fall
back to the adaptive-quadrature default in :mod:`repro.distributions.laplace`.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence

import numpy as np

from ..errors import ValidationError
from .laplace import laplace_from_survival


class Distribution(abc.ABC):
    """A non-negative continuous random variable.

    The library models times (inter-arrival gaps, service times, network
    delays), all of which are non-negative; implementations may assume
    ``t >= 0`` and must return ``cdf(t) = 0`` for ``t < 0``.
    """

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value ``E[T]``. ``math.inf`` if it does not exist."""

    @property
    @abc.abstractmethod
    def variance(self) -> float:
        """Variance ``Var[T]``. ``math.inf`` if it does not exist."""

    @abc.abstractmethod
    def cdf(self, t: float) -> float:
        """``P(T <= t)``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one sample (``size=None``) or an ndarray of samples."""

    def sample_window(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` samples, bit-identical to ``size`` scalar :meth:`sample` calls.

        This is the contract the simulator's pre-drawn RNG windows rely
        on: a windowed stream must vend exactly the values the scalar
        hot path drew before, so seeded runs stay reproducible for any
        window size. The default draws scalars in a loop — always
        correct, never faster. Subclasses whose vectorized ``sample``
        matches the scalar path bit-for-bit (numpy fills vectorized
        output sequentially from the same bit stream for ``random``,
        ``exponential``, ``geometric``, ...) override this with the
        vectorized draw; subclasses that post-process with libm calls
        (``math.expm1`` vs ``np.expm1`` differ in the last ulp) must
        keep the scalar transform — see ``GeneralizedPareto``.
        """
        return np.asarray([self.sample(rng) for _ in range(int(size))], dtype=float)

    # ------------------------------------------------------------------
    # Derived quantities with sensible defaults.
    # ------------------------------------------------------------------

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.variance)

    @property
    def cv2(self) -> float:
        """Squared coefficient of variation ``Var[T] / E[T]^2``.

        The key burstiness summary used by queueing approximations.
        """
        mean = self.mean
        if mean == 0:
            raise ValidationError("cv2 undefined for zero-mean distribution")
        if not math.isfinite(mean):
            return math.inf
        return self.variance / (mean * mean)

    @property
    def rate(self) -> float:
        """Event rate ``1 / E[T]``; convenient for arrival processes."""
        mean = self.mean
        if mean <= 0:
            raise ValidationError("rate undefined for non-positive mean")
        return 1.0 / mean

    def survival(self, t: float) -> float:
        """``P(T > t)``; override when a direct form is more accurate."""
        return 1.0 - self.cdf(t)

    def pdf(self, t: float) -> float:
        """Density at ``t``; default is a central finite difference."""
        if t < 0:
            return 0.0
        h = max(1e-9, abs(t) * 1e-6)
        lo = max(0.0, t - h)
        return (self.cdf(t + h) - self.cdf(lo)) / (t + h - lo)

    def quantile(self, k: float) -> float:
        """The k-th quantile ``inf{t : cdf(t) >= k}`` via bisection.

        Subclasses with closed-form inverses should override this.
        """
        if not 0.0 <= k < 1.0:
            raise ValidationError(f"quantile level must be in [0, 1): {k}")
        if k == 0.0:
            return 0.0
        lo, hi = 0.0, max(self.mean, 1e-12)
        # Expand the bracket geometrically until cdf(hi) >= k.
        for _ in range(200):
            if self.cdf(hi) >= k:
                break
            hi *= 2.0
        else:
            raise ValidationError(f"quantile bracket expansion failed for k={k}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) >= k:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-14 + 1e-10 * hi:
                break
        return hi

    def laplace(self, s: float) -> float:
        """Laplace–Stieltjes transform ``E[exp(-s T)]``.

        The default integrates the survival function numerically,
        ``LST(s) = 1 - s * integral_0^inf exp(-s t) S(t) dt``,
        which is stable even for heavy-tailed laws because the exponential
        factor tames the tail. Analytic subclasses override this.
        """
        return laplace_from_survival(self.survival, s, mean=self.mean)

    def cache_token(self):
        """Hashable value identifying this law, or ``None``.

        Two distributions with equal tokens must be identical in law
        (same CDF/LST); solvers use the token to memoize derived
        quantities such as the GI/M/1 fixed point across parameter
        sweeps. The default ``None`` opts out of caching — safe for
        data-backed laws (empirical samples, mixtures) whose identity
        is not captured by scalar parameters.
        """
        return None

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(
            f"{key}={value!r}"
            for key, value in sorted(vars(self).items())
            if not key.startswith("_")
        )
        return f"{type(self).__name__}({params})"


class DiscreteDistribution(abc.ABC):
    """A random variable on the positive integers (batch sizes, key counts)."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value."""

    @property
    @abc.abstractmethod
    def variance(self) -> float:
        """Variance."""

    @abc.abstractmethod
    def pmf(self, n: int) -> float:
        """``P(X = n)``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one sample or an ndarray of samples."""

    def sample_window(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` samples, bit-identical to scalar calls (see Distribution)."""
        return np.asarray([self.sample(rng) for _ in range(int(size))])

    def cdf(self, n: int) -> float:
        """``P(X <= n)``; default sums the pmf."""
        if n < 1:
            return 0.0
        return float(sum(self.pmf(i) for i in range(1, int(n) + 1)))

    def pgf(self, z: float, *, terms: int = 10_000, tol: float = 1e-14) -> float:
        """Probability generating function ``E[z^X]`` by truncated series."""
        total = 0.0
        power = z
        for n in range(1, terms + 1):
            term = self.pmf(n) * power
            total += term
            power *= z
            if abs(term) < tol and n > 8:
                break
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(
            f"{key}={value!r}"
            for key, value in sorted(vars(self).items())
            if not key.startswith("_")
        )
        return f"{type(self).__name__}({params})"


def require_positive(name: str, value: float) -> float:
    """Validate ``value > 0`` and return it as float."""
    value = float(value)
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return value


def require_probability(name: str, value: float, *, closed: bool = True) -> float:
    """Validate that ``value`` is a probability and return it as float.

    With ``closed=False`` the endpoints 0 and 1 are excluded.
    """
    value = float(value)
    if closed:
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValidationError(f"{name} must be in (0, 1), got {value}")
    return value


def require_weights(name: str, weights: Sequence[float]) -> np.ndarray:
    """Validate a non-empty, non-negative weight vector summing to ~1."""
    array = np.asarray(weights, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-D sequence")
    if np.any(array < 0):
        raise ValidationError(f"{name} must be non-negative")
    total = float(array.sum())
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
        raise ValidationError(f"{name} must sum to 1, got {total}")
    return array
