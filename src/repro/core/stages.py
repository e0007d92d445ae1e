"""The three latency stages of Theorem 1 (paper §4).

* :class:`NetworkStage` — constant network latency (paper §4.2).
* :class:`ServerStage` — processing latency at Memcached servers: the
  GI^X/M/1 per-key law lifted to the max over N keys across M servers
  with shares ``{p_j}`` (paper §4.3, Proposition 1, eq. (14)).
* :class:`DatabaseStage` — processing latency at the database for missed
  keys (paper §4.4, eqs. (15)-(23)).
"""

from __future__ import annotations

import dataclasses
import math

from ..distributions import Exponential, require_positive, require_probability
from ..errors import ValidationError
from ..queueing import GIXM1Queue, expected_max_exact, quantile_level
from .cluster import ClusterModel
from .workload import WorkloadPattern


def _require_count(n: float) -> float:
    n = float(n)
    if n <= 0:
        raise ValidationError(f"key count must be > 0, got {n}")
    return n


class NetworkStage:
    """Constant network latency (paper eq. (2)).

    The paper measures network utilization below 10% and treats
    ``TN(N)`` as a constant: propagation plus transmission, no queueing.
    """

    def __init__(self, delay: float) -> None:
        delay = float(delay)
        if delay < 0:
            raise ValidationError(f"delay must be >= 0, got {delay}")
        self._delay = delay

    @property
    def delay(self) -> float:
        return self._delay

    def mean_latency(self, n_keys: float) -> float:
        """``TN(N)``: constant in N (eq. (2))."""
        _require_count(n_keys)
        return self._delay


@dataclasses.dataclass(frozen=True)
class ServerStageEstimate:
    """Bounds for ``E[TS(N)]`` (paper eq. (14))."""

    lower: float
    upper: float
    delta: float
    decay_rate: float
    quantile: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


class ServerStage:
    """Processing latency at the Memcached servers (paper §4.3).

    Built on the heaviest server's GI^X/M/1 queue. Proposition 1 bounds
    the mixture quantile across unbalanced servers by the heaviest
    server alone::

        (T_S1)_{k^{1/p1}}  <=  (T_S(1))_k  <=  (T_S1)_k

    and the per-key law is bounded by batch queueing/completion times
    (eq. (9)). When the cluster is balanced all servers are identical,
    the mixture CDF *equals* the per-server CDF, and the bounds tighten
    to the (TQ)_k / (TC)_k pair at ``k = N/(N+1)`` — this is the case
    behind the paper's Table 3.
    """

    def __init__(
        self,
        workload: WorkloadPattern,
        service_rate: float,
        *,
        heaviest_share: float = 1.0,
        balanced: bool = True,
    ) -> None:
        require_positive("service_rate", service_rate)
        heaviest_share = float(heaviest_share)
        if not 0.0 < heaviest_share <= 1.0:
            raise ValidationError(
                f"heaviest_share must be in (0, 1], got {heaviest_share}"
            )
        self._workload = workload
        self._service_rate = float(service_rate)
        self._p1 = heaviest_share
        self._balanced = bool(balanced)
        self._queue = GIXM1Queue(
            workload.batch_gap_distribution(), workload.q, self._service_rate
        )

    @classmethod
    def from_cluster(
        cls,
        cluster: ClusterModel,
        total_key_rate: float,
        pattern: WorkloadPattern,
    ) -> "ServerStage":
        """Build the stage for a cluster fed by a total key stream.

        Only the heaviest server matters for the bounds (Prop. 1), so a
        single queue at rate ``p1 * Lambda`` is constructed.
        """
        heaviest = cluster.heaviest_workload(total_key_rate, pattern)
        return cls(
            heaviest,
            cluster.service_rate,
            heaviest_share=cluster.heaviest_share,
            balanced=cluster.is_balanced,
        )

    # ------------------------------------------------------------------

    @property
    def workload(self) -> WorkloadPattern:
        """The heaviest server's workload."""
        return self._workload

    @property
    def queue(self) -> GIXM1Queue:
        """The heaviest server's GI^X/M/1 queue."""
        return self._queue

    @property
    def utilization(self) -> float:
        """Utilization of the heaviest server."""
        return self._queue.utilization

    @property
    def delta(self) -> float:
        return self._queue.delta

    @property
    def heaviest_share(self) -> float:
        return self._p1

    @property
    def is_balanced(self) -> bool:
        return self._balanced

    def per_key_quantile_bounds(self, k: float) -> tuple[float, float]:
        """Eq. (9): bounds on the k-th quantile of one key's latency."""
        return self._queue.key_latency_bounds(k)

    def mixture_quantile_bounds(self, k: float) -> tuple[float, float]:
        """Proposition 1 bounds on the k-th quantile of ``T_S(1)``.

        ``T_S(1)`` is the stochastic time whose CDF is the share-weighted
        product of per-server CDFs (paper eq. (11)).
        """
        require_probability("k", k, closed=False)
        if self._balanced:
            k_low = k
        else:
            k_low = k ** (1.0 / self._p1)
        lower = self._queue.queueing_quantile(k_low)
        upper = self._queue.completion_quantile(k)
        return lower, upper

    def mean_latency_bounds(self, n_keys: float) -> ServerStageEstimate:
        """Eq. (14): bounds on ``E[TS(N)]`` via the quantile rule.

        ``E[TS(N)] ~ (T_S(1))_{N/(N+1)}`` (maximal statistics), then
        Proposition 1 and eq. (9) bound that quantile from both sides.
        """
        n_keys = _require_count(n_keys)
        k = quantile_level(n_keys)
        lower, upper = self.mixture_quantile_bounds(k)
        return ServerStageEstimate(
            lower=lower,
            upper=upper,
            delta=self.delta,
            decay_rate=self._queue.decay_rate,
            quantile=k,
        )

    def mean_latency_upper_exact(self, n_keys: int) -> float:
        """Exact-integral refinement of the upper bound.

        Instead of the quantile rule, integrate ``E[max of N iid TC]``
        exactly; used by the quantile-rule ablation bench.
        """
        return expected_max_exact(self._queue.completion_distribution(), n_keys)


class DatabaseStage:
    """Processing latency at the database for missed keys (paper §4.4).

    Misses happen independently with probability ``r`` per key; each
    missed key visits an M/M/1 database with service rate ``muD`` whose
    load is negligible (``rho << 1``), so its sojourn is ~``Exp(muD)``
    (eq. (19)).
    """

    def __init__(
        self,
        service_rate: float,
        miss_ratio: float,
        *,
        utilization: float = 0.0,
    ) -> None:
        self._mu = require_positive("service_rate", service_rate)
        self._r = require_probability("miss_ratio", miss_ratio)
        utilization = float(utilization)
        if not 0.0 <= utilization < 1.0:
            raise ValidationError(
                f"utilization must be in [0, 1), got {utilization}"
            )
        self._rho = utilization

    @property
    def service_rate(self) -> float:
        return self._mu

    @property
    def miss_ratio(self) -> float:
        return self._r

    @property
    def effective_rate(self) -> float:
        """``(1 - rho) muD`` — the sojourn's exponential rate (eq. (19))."""
        return (1.0 - self._rho) * self._mu

    def sojourn_distribution(self) -> Exponential:
        """One missed key's database latency ``TD``."""
        return Exponential(self.effective_rate)

    def miss_probability(self, n_keys: float) -> float:
        """``P(K > 0) = 1 - (1 - r)^N`` (eq. (17))."""
        n_keys = _require_count(n_keys)
        if self._r in (0.0, 1.0):  # log1p(-1) is undefined at r = 1
            return self._r
        return -math.expm1(n_keys * math.log1p(-self._r))

    def expected_misses(self, n_keys: float) -> float:
        """``E[K] = N r``."""
        return _require_count(n_keys) * self._r

    def expected_misses_given_any(self, n_keys: float) -> float:
        """``E[K | K > 0] = N r / (1 - (1-r)^N)`` (eq. (18))."""
        p_any = self.miss_probability(n_keys)
        if p_any == 0.0:
            raise ValidationError("no misses are possible when r = 0")
        return self.expected_misses(n_keys) / p_any

    def mean_latency_given_any(self, n_keys: float) -> float:
        """``E[TD(N) | K > 0]`` (eq. (22))."""
        conditional = self.expected_misses_given_any(n_keys)
        return math.log(conditional + 1.0) / self.effective_rate

    def mean_latency(self, n_keys: float) -> float:
        """``E[TD(N)]`` (eq. (23) / Theorem 1 part 3)."""
        n_keys = _require_count(n_keys)
        if self._r == 0.0:
            return 0.0
        p_any = self.miss_probability(n_keys)
        conditional = self.expected_misses(n_keys) / p_any
        return p_any * math.log(conditional + 1.0) / self.effective_rate

    def mean_latency_asymptotic(self, n_keys: float) -> float:
        """Large-N limit ``ln(N r + 1) / muD`` (paper §5.2.4)."""
        n_keys = _require_count(n_keys)
        return math.log(n_keys * self._r + 1.0) / self.effective_rate

    def regime(self, n_keys: float) -> str:
        """Eq. (25): ``"linear"`` in r for small N, ``"logarithmic"`` else.

        The crossover is where multiple misses become likely; we use
        ``E[K] = N r >= 1`` as the boundary, matching the paper's
        small-N/large-N discussion.
        """
        return "logarithmic" if self.expected_misses(n_keys) >= 1.0 else "linear"

    def with_miss_ratio(self, miss_ratio: float) -> "DatabaseStage":
        """Copy with a different miss ratio (sweep helper)."""
        return DatabaseStage(self._mu, miss_ratio, utilization=self._rho)
