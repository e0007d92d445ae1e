"""Empirical (trace-driven) distributions.

:class:`Empirical` wraps a sample of observed gaps/latencies so measured
traces can be plugged anywhere a parametric law is accepted — including
the GI/M/1 fixed point, whose LST is computed from the empirical average
of ``exp(-s t)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ValidationError
from .base import Distribution


class Empirical(Distribution):
    """Distribution defined by an observed sample (ECDF + bootstrap sampling)."""

    def __init__(self, samples: Sequence[float]) -> None:
        data = np.asarray(samples, dtype=float)
        if data.ndim != 1 or data.size == 0:
            raise ValidationError("samples must be a non-empty 1-D sequence")
        if np.any(data < 0) or not np.all(np.isfinite(data)):
            raise ValidationError("samples must be finite and non-negative")
        self._sorted = np.sort(data)

    @property
    def n_samples(self) -> int:
        return int(self._sorted.size)

    @property
    def mean(self) -> float:
        return float(self._sorted.mean())

    @property
    def variance(self) -> float:
        if self._sorted.size < 2:
            return 0.0
        return float(self._sorted.var(ddof=1))

    def cdf(self, t: float) -> float:
        return float(np.searchsorted(self._sorted, t, side="right")) / self._sorted.size

    def quantile(self, k: float) -> float:
        if not 0.0 <= k < 1.0:
            raise ValidationError(f"quantile level must be in [0, 1): {k}")
        return float(np.quantile(self._sorted, k, method="inverted_cdf"))

    def laplace(self, s: float) -> float:
        if s < 0:
            raise ValidationError(f"LST argument must be >= 0, got {s}")
        return float(np.mean(np.exp(-s * self._sorted)))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            return float(rng.choice(self._sorted))
        return rng.choice(self._sorted, size=size)
