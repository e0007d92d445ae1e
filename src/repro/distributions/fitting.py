"""Fitting workload distributions from trace samples.

The paper generates load from a *statistical model* of the Facebook trace
(Generalized Pareto gaps, concurrency probability ``q``). Given a raw
timestamp trace, these helpers recover those model parameters so users
can calibrate the analytic model to their own deployments:

* :func:`fit_generalized_pareto` — MLE (scipy) of ``(rate, xi)`` for gaps.
* :func:`estimate_concurrency` — fraction of gaps below the concurrency
  window, the paper's ``q``.
* :func:`fit_workload_from_timestamps` — the full pipeline: timestamps ->
  (lambda, xi, q).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..errors import ValidationError
from .generalized_pareto import GeneralizedPareto

#: The paper treats keys closer than 1 microsecond as "concurrent".
CONCURRENCY_WINDOW_SECONDS = 1e-6


@dataclasses.dataclass(frozen=True)
class WorkloadFit:
    """Result of fitting the paper's workload model to a gap trace."""

    rate: float
    """Average key arrival rate (keys/second)."""

    xi: float
    """Fitted burst degree (GPD shape)."""

    q: float
    """Estimated concurrency probability."""

    n_gaps: int
    """Number of inter-arrival gaps used."""

    log_likelihood: float
    """GPD log-likelihood of the non-concurrent gaps at the fit."""

    def gap_distribution(self) -> GeneralizedPareto:
        """The fitted batch-gap distribution."""
        return GeneralizedPareto(self.rate, self.xi)


def _validate_gaps(gaps: Sequence[float]) -> np.ndarray:
    data = np.asarray(gaps, dtype=float)
    if data.ndim != 1 or data.size < 2:
        raise ValidationError("need at least two gap samples")
    if np.any(data < 0) or not np.all(np.isfinite(data)):
        raise ValidationError("gaps must be finite and non-negative")
    return data


def fit_generalized_pareto(gaps: Sequence[float]) -> GeneralizedPareto:
    """MLE fit of the paper's ``(rate, xi)`` GPD to inter-arrival gaps.

    The shape is constrained to ``[0, 1)`` (the paper's domain); location
    is fixed at zero. Falls back to the exponential (``xi = 0``) when the
    unconstrained MLE shape is negative.
    """
    data = _validate_gaps(gaps)
    positive = data[data > 0]
    if positive.size < 2:
        raise ValidationError("need at least two positive gaps for a GPD fit")
    from scipy import stats

    shape, _, scale = stats.genpareto.fit(positive, floc=0.0)
    shape = min(max(float(shape), 0.0), 0.999)
    scale = float(scale)
    # Re-derive the rate from (shape, scale): mean = scale / (1 - shape).
    mean = scale / (1.0 - shape)
    return GeneralizedPareto(1.0 / mean, shape)


def estimate_concurrency(
    gaps: Sequence[float], window: float = CONCURRENCY_WINDOW_SECONDS
) -> float:
    """Estimate the concurrency probability ``q``.

    ``q`` is the fraction of inter-arrival gaps smaller than the
    concurrency window (the paper uses < 1 microsecond, with the Facebook
    measurement q ~ 0.1159).
    """
    data = _validate_gaps(gaps)
    if window <= 0:
        raise ValidationError(f"window must be > 0, got {window}")
    return float(np.mean(data < window))


def fit_workload_from_timestamps(
    timestamps: Sequence[float],
    *,
    window: float = CONCURRENCY_WINDOW_SECONDS,
) -> WorkloadFit:
    """Fit the full workload model ``(lambda, xi, q)`` from key timestamps.

    Gaps below the concurrency window count toward ``q`` (they are
    within-batch arrivals); the remaining gaps are fit with a GPD to get
    the batch-gap law, matching how the paper's model separates batching
    from the renewal process.
    """
    ts = np.asarray(timestamps, dtype=float)
    if ts.ndim != 1 or ts.size < 3:
        raise ValidationError("need at least three timestamps")
    if not np.all(np.isfinite(ts)):
        raise ValidationError("timestamps must be finite")
    ts = np.sort(ts)
    gaps = np.diff(ts)
    q = estimate_concurrency(gaps, window)
    batch_gaps = gaps[gaps >= window]
    if batch_gaps.size < 2:
        raise ValidationError("not enough non-concurrent gaps to fit a GPD")
    gpd = fit_generalized_pareto(batch_gaps)
    loglik = float(
        np.sum(np.log(np.maximum([gpd.pdf(g) for g in batch_gaps], 1e-300)))
    )
    span = float(ts[-1] - ts[0])
    if span <= 0:
        raise ValidationError("timestamps must span a positive interval")
    key_rate = (ts.size - 1) / span
    return WorkloadFit(
        rate=key_rate,
        xi=gpd.xi,
        q=q,
        n_gaps=int(gaps.size),
        log_likelihood=loglik,
    )


def lilliefors_exponential_distance(samples: Sequence[float]) -> float:
    """KS distance of a sample from the exponential with matched mean.

    A quick goodness-of-fit signal: large values mean the gap trace is not
    Poisson and a bursty (GPD) model is warranted.
    """
    data = np.asarray(samples, dtype=float)
    if data.ndim != 1 or data.size < 2:
        raise ValidationError("need at least two samples")
    mean = float(data.mean())
    if mean <= 0:
        raise ValidationError("mean must be positive")
    from scipy import stats

    statistic, _ = stats.kstest(data, "expon", args=(0.0, mean))
    return float(statistic)
