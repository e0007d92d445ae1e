"""Classic fork-join baselines (paper §2.3).

The paper argues the *typical* Fork-Join model cannot describe Memcached
because of (1) one-to-one task distribution, (2) simple (non-batch)
service queues, (3) a single processing stage. We implement the classic
estimators so benches can compare them against the paper's model on the
same workloads:

* :func:`nelson_tantawi_mean` — the standard M/M/1 fork-join
  approximation for the mean join time of N identical M/M/1 servers
  (Nelson & Tantawi, 1988; paper ref. [28]).
* :class:`SplitMergeBounds` — independence bounds for the join time of N
  *general* per-task sojourn distributions: the lower bound takes the max
  of means, the upper takes the mean of the independent max (valid when
  tasks are positively associated, which queueing fork-joins are).
* :func:`varma_makowski_interpolation` — light/heavy-traffic
  interpolation (paper ref. [27]) for M/M/1 fork-join.
"""

from __future__ import annotations

from ..distributions import Distribution
from ..errors import StabilityError, ValidationError
from .maxstat import expected_max_exact, expected_max_quantile_rule


def _harmonic(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


def _check_mm1(arrival_rate: float, service_rate: float) -> float:
    if arrival_rate < 0:
        raise ValidationError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if service_rate <= 0:
        raise ValidationError(f"service_rate must be > 0, got {service_rate}")
    rho = arrival_rate / service_rate
    if rho >= 1.0:
        raise StabilityError(rho)
    return rho


def nelson_tantawi_mean(
    n_tasks: int, arrival_rate: float, service_rate: float
) -> float:
    """Nelson-Tantawi approximation of the mean fork-join response time.

    For N homogeneous M/M/1 queues fed by synchronized job arrivals::

        T_2(rho)  = (12 - rho) / 8 * 1 / (mu - lam)          # exact for N=2
        T_N(rho) ~ [H_N / H_2 + 4 rho / 11 (1 - H_N / H_2)] T_2(rho)

    Exact for N <= 2; within a few percent of simulation for N <= 32 in
    the original paper's range.
    """
    if int(n_tasks) != n_tasks or n_tasks < 1:
        raise ValidationError(f"n_tasks must be a positive integer, got {n_tasks}")
    n_tasks = int(n_tasks)
    rho = _check_mm1(arrival_rate, service_rate)
    mean_sojourn = 1.0 / (service_rate - arrival_rate)
    if n_tasks == 1:
        return mean_sojourn
    t2 = (12.0 - rho) / 8.0 * mean_sojourn
    if n_tasks == 2:
        return t2
    ratio = _harmonic(n_tasks) / _harmonic(2)
    return (ratio + 4.0 * rho / 11.0 * (1.0 - ratio)) * t2


def varma_makowski_interpolation(
    n_tasks: int, arrival_rate: float, service_rate: float
) -> float:
    """Varma-Makowski light/heavy-traffic interpolation for M/M/1 fork-join.

    Interpolates the mean join time between the light-traffic limit
    (``H_N / mu``, the mean max of N service times) and the heavy-traffic
    growth ``H_N / (mu (1 - rho))``-style scaling. We use the simple
    convex interpolation form::

        T_N(rho) ~ (H_N / mu) * (1 - rho + rho / (1 - rho))

    which matches both limits and is the shape used in interpolation
    approximations for symmetric fork-join queues.
    """
    if int(n_tasks) != n_tasks or n_tasks < 1:
        raise ValidationError(f"n_tasks must be a positive integer, got {n_tasks}")
    rho = _check_mm1(arrival_rate, service_rate)
    light = _harmonic(int(n_tasks)) / service_rate
    return light * (1.0 - rho + rho / (1.0 - rho))


class SplitMergeBounds:
    """Independence-based bounds on the join time of N general tasks.

    Given the per-task sojourn distribution ``T`` (assumed identical
    across tasks and positively associated, as in FCFS queues fed by the
    same arrivals), the mean join time ``E[max of N]`` satisfies::

        E[T]  <=  E[max of N T_i]  <=  E[max of N iid copies]

    The upper bound is the independent-max mean; the paper approximates
    it with the quantile rule.
    """

    def __init__(self, sojourn: Distribution, n_tasks: int) -> None:
        if int(n_tasks) != n_tasks or n_tasks < 1:
            raise ValidationError(f"n_tasks must be a positive integer, got {n_tasks}")
        self._sojourn = sojourn
        self._n = int(n_tasks)

    @property
    def n_tasks(self) -> int:
        return self._n

    @property
    def lower(self) -> float:
        """``E[T]``: a max is at least any single coordinate."""
        return self._sojourn.mean

    @property
    def upper_exact(self) -> float:
        """Exact mean of the independent max (numeric integral)."""
        return expected_max_exact(self._sojourn, self._n)

    @property
    def upper_quantile_rule(self) -> float:
        """Quantile-rule estimate of the independent max mean."""
        return expected_max_quantile_rule(self._sojourn, self._n)

    def as_tuple(self) -> tuple[float, float]:
        """``(lower, upper_exact)``."""
        return self.lower, self.upper_exact
