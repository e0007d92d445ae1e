"""GI^[X]/M/1 with *general* batch sizes — beyond the paper's geometric.

The paper's elegant reduction (geometric sum of exponentials is
exponential) only works for geometric batch sizes. Real concurrency
bursts need not be geometric — the closed-loop simulator, for one,
produces binomial batches. This module handles a general batch-size
law ``X``:

* the batch service time is the phase-type mixture
  ``sum_{n} P(X = n) Erlang(n, mu)``, whose LST is ``G_X(mu/(mu+s))``
  (the PGF evaluated at the exponential LST);
* the embedded waiting-time analysis is GI/G/1, for which we provide
  the **effective-exponential approximation**: replace the batch
  service by an exponential with the same mean, recovering a GI/M/1
  whose root gives eq. (4)-(5)-style formulas;
* :func:`batch_collapse_error` quantifies the approximation against a
  vectorized Lindley simulation, so users know when the geometric
  assumption is safe.

For geometric ``X`` the approximation is *exact* and this class agrees
with :class:`~repro.queueing.gixm1.GIXM1Queue` to machine precision.
"""

from __future__ import annotations

import numpy as np

from ..distributions import DiscreteDistribution, Distribution, Geometric
from ..errors import StabilityError, ValidationError
from .gim1 import GIM1Queue


class GeneralBatchQueue:
    """Batch-arrival queue with an arbitrary batch-size law.

    Parameters
    ----------
    batch_gap:
        Distribution of the gap between batches.
    batch_size:
        Any :class:`~repro.distributions.DiscreteDistribution` on
        ``{1, 2, ...}``.
    service_rate:
        Per-key exponential rate ``muS``.
    """

    def __init__(
        self,
        batch_gap: Distribution,
        batch_size: DiscreteDistribution,
        service_rate: float,
    ) -> None:
        if service_rate <= 0:
            raise ValidationError(f"service_rate must be > 0, got {service_rate}")
        self._gap = batch_gap
        self._size = batch_size
        self._mu = float(service_rate)
        mean_size = batch_size.mean
        if mean_size < 1.0:
            raise ValidationError("batch sizes must be >= 1")
        key_rate = mean_size * batch_gap.rate
        if key_rate >= self._mu:
            raise StabilityError(key_rate / self._mu)
        # Effective exponential: same mean batch service E[X]/mu.
        self._effective_rate = self._mu / mean_size
        self._embedded = GIM1Queue(batch_gap, self._effective_rate)

    @property
    def batch_gap(self) -> Distribution:
        return self._gap

    @property
    def batch_size(self) -> DiscreteDistribution:
        return self._size

    @property
    def service_rate(self) -> float:
        return self._mu

    @property
    def key_arrival_rate(self) -> float:
        return self._size.mean * self._gap.rate

    @property
    def utilization(self) -> float:
        return self.key_arrival_rate / self._mu

    @property
    def effective_batch_service_rate(self) -> float:
        """``mu / E[X]`` — the matched-mean exponential rate."""
        return self._effective_rate

    @property
    def delta(self) -> float:
        """Root of the effective GI/M/1 fixed point."""
        return self._embedded.sigma

    def batch_service_lst(self, s: float) -> float:
        """Exact LST of the true batch service: ``G_X(mu / (mu + s))``."""
        if s < 0:
            raise ValidationError(f"LST argument must be >= 0, got {s}")
        return self._size.pgf(self._mu / (self._mu + s))

    def batch_service_cv2(self) -> float:
        """Squared CV of the true batch service time.

        ``Var[S] = E[X]/mu^2 + Var[X]/mu^2`` for sums of iid
        exponentials, so ``cv2 = (E[X] + Var[X]) / E[X]^2``. Geometric
        sizes give exactly 1 (the collapse); smaller means the
        effective-exponential approximation *overestimates* delay,
        larger means it underestimates.
        """
        mean = self._size.mean
        return (mean + self._size.variance) / (mean * mean)

    def mean_queueing_time(self) -> float:
        """Approximate batch wait (effective-exponential GI/M/1)."""
        return self._embedded.mean_wait

    def mean_completion_time(self) -> float:
        """Approximate batch completion time."""
        return self._embedded.mean_sojourn

    def mean_key_latency(self) -> float:
        """Approximate mean per-key latency.

        Batch wait plus the mean in-batch position's service,
        ``E[J]/mu`` with ``E[J] = (E[X^2]/E[X] + 1) / 2`` under
        size-biased sampling.
        """
        mean = self._size.mean
        second = self._size.variance + mean * mean
        mean_position = (second / mean + 1.0) / 2.0
        return self.mean_queueing_time() + mean_position / self._mu

    # ------------------------------------------------------------------

    def simulate_key_latencies(
        self,
        rng: np.random.Generator,
        n_keys: int,
        *,
        warmup_fraction: float = 0.05,
    ) -> np.ndarray:
        """Exact per-key latencies by vectorized Lindley recursion."""
        # Local import: repro.simulation imports repro.queueing, so the
        # reverse edge must be lazy.
        from ..simulation.fastpath import _simulate_keys

        return _simulate_keys(
            self._gap,
            self._size,
            self._mu,
            n_keys=n_keys,
            rng=rng,
            warmup_fraction=warmup_fraction,
        )


def batch_collapse_error(
    queue: GeneralBatchQueue,
    rng: np.random.Generator,
    *,
    n_keys: int = 200_000,
) -> float:
    """Relative error of the effective-exponential mean vs simulation.

    Positive: the approximation overestimates; negative: underestimates.
    Near zero for geometric batches (where the collapse is exact).
    """
    simulated = float(queue.simulate_key_latencies(rng, n_keys).mean())
    approx = queue.mean_key_latency()
    return (approx - simulated) / simulated


def geometric_reference(
    batch_gap: Distribution, q: float, service_rate: float
) -> GeneralBatchQueue:
    """A GeneralBatchQueue with geometric sizes (cross-check helper)."""
    return GeneralBatchQueue(batch_gap, Geometric(q), service_rate)
