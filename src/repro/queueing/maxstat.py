"""Maximal statistics for fork-join latency (paper §4.3.2, §4.4).

A request completes when the slowest of its N keys completes, so request
latency is a maximum of (approximately independent) per-key latencies.
The paper approximates the mean of the maximum by a quantile::

    E[max of N iid T] ~ F_T^{-1}(N / (N + 1))

(Casella & Berger [34]). This module provides that rule, the exact
integral it approximates, and an empirical estimator, so the accuracy of
the rule itself can be measured (one of our ablation benches).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..distributions import Distribution
from ..errors import ValidationError


def quantile_level(n: float) -> float:
    """The quantile level ``n / (n + 1)`` used for ``E[max of n]``."""
    if n <= 0:
        raise ValidationError(f"n must be > 0, got {n}")
    return n / (n + 1.0)


def expected_max_quantile_rule(distribution: Distribution, n: float) -> float:
    """``E[max of n] ~ quantile(n / (n + 1))`` — the paper's approximation.

    ``n`` may be fractional: the rule extends smoothly, which the paper
    exploits when on average ``p_j * N`` keys land on server ``j``.
    """
    return distribution.quantile(quantile_level(n))


def expected_max_exact(distribution: Distribution, n: int, *, upper: float | None = None) -> float:
    """Exact ``E[max of n iid]`` via ``int_0^inf (1 - F(t)^n) dt``.

    Only valid for non-negative variables (all of ours). ``upper`` caps
    the integration range; by default a generous quantile-based cap is
    used and the remaining tail is integrated adaptively.
    """
    if int(n) != n or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n}")
    n = int(n)

    def integrand(t: float) -> float:
        return 1.0 - distribution.cdf(t) ** n

    if upper is None:
        # Integrate to where F(t)^n = 1 - 1e-12; beyond it the integrand
        # contributes O(1e-12 * upper). A finite, quantile-derived cap is
        # essential: quad over [0, inf) can miss an integrand supported
        # at microsecond scales entirely.
        level = (1.0 - 1e-12) ** (1.0 / n)
        upper = distribution.quantile(level)
    from scipy import integrate

    value, _ = integrate.quad(
        integrand, 0.0, upper, limit=400, points=[distribution.mean]
    )
    return float(value)


def expected_max_empirical(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    n: int,
    *,
    rng: np.random.Generator,
    replications: int = 1000,
) -> float:
    """Monte-Carlo ``E[max of n]`` from a per-item sampler."""
    if int(n) != n or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n}")
    if replications < 1:
        raise ValidationError(f"replications must be >= 1, got {replications}")
    samples = sampler(rng, int(n) * replications)
    samples = np.asarray(samples, dtype=float).reshape(replications, int(n))
    return float(samples.max(axis=1).mean())


def max_cdf_power(cdf_values: Sequence[float], exponents: Sequence[float]) -> float:
    """``prod F_j(t)^(e_j)`` — the mixture CDF of paper eq. (10)/(11).

    The CDF of the max over servers with fractional per-server key counts
    is the product of per-server CDFs raised to those counts.
    """
    values = np.asarray(cdf_values, dtype=float)
    powers = np.asarray(exponents, dtype=float)
    if values.shape != powers.shape:
        raise ValidationError("cdf_values and exponents must have equal length")
    if np.any((values < 0) | (values > 1)):
        raise ValidationError("cdf values must lie in [0, 1]")
    if np.any(powers < 0):
        raise ValidationError("exponents must be non-negative")
    # 0^0 := 1 (a server receiving no keys contributes nothing).
    out = 1.0
    for value, power in zip(values, powers):
        if power == 0.0:
            continue
        if value == 0.0:
            return 0.0
        out *= value**power
    return float(out)


def expected_max_of_exponential(rate: float, n: float) -> float:
    """Closed-form quantile-rule max for ``Exp(rate)``: ``ln(n + 1) / rate``.

    This is the form that appears throughout Theorem 1 (e.g. the
    ``ln(N+1) / ((1-delta)(1-q) muS)`` upper bound).
    """
    if rate <= 0:
        raise ValidationError(f"rate must be > 0, got {rate}")
    if n <= 0:
        raise ValidationError(f"n must be > 0, got {n}")
    return math.log(n + 1.0) / rate


def harmonic_expected_max_of_exponential(rate: float, n: int) -> float:
    """Exact ``E[max of n iid Exp(rate)] = H_n / rate`` (harmonic number).

    Used in tests to quantify the quantile rule's error: ``ln(n+1)`` vs
    ``H_n ~ ln(n) + gamma``.
    """
    if rate <= 0:
        raise ValidationError(f"rate must be > 0, got {rate}")
    if int(n) != n or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n}")
    harmonic = sum(1.0 / i for i in range(1, int(n) + 1))
    return harmonic / rate
