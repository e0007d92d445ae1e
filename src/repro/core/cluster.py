"""Memcached cluster model: servers, service rate, load shares (paper §3).

The unbalanced load distribution is the probability vector ``{p_j}``:
on average ``p_j * N`` of a request's N keys are hashed to server ``j``
(paper enhancement 1). :class:`ClusterModel` owns the shares and the
per-key service rate ``muS``, and splits a total key stream into
per-server :class:`~repro.core.workload.WorkloadPattern` objects.
"""

from __future__ import annotations

import dataclasses
import math

from typing import List, Sequence

import numpy as np

from ..distributions import require_positive
from ..errors import ValidationError
from .workload import WorkloadPattern


def _normalize_shares(shares: Sequence[float]) -> tuple[float, ...]:
    array = np.asarray(shares, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValidationError("shares must be a non-empty 1-D sequence")
    if np.any(array <= 0):
        raise ValidationError("every load share must be > 0")
    total = float(array.sum())
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
        raise ValidationError(f"load shares must sum to 1, got {total}")
    return tuple(float(x) for x in array)


@dataclasses.dataclass(frozen=True)
class ClusterModel:
    """A cluster of Memcached servers with (possibly unbalanced) shares.

    Parameters
    ----------
    shares:
        The load-distribution probabilities ``{p_j}``; positive, sum to 1.
    service_rate:
        Per-key service rate ``muS`` (keys/second), identical across
        servers as in the paper.
    """

    shares: tuple
    service_rate: float

    def __init__(self, shares: Sequence[float], service_rate: float) -> None:
        object.__setattr__(self, "shares", _normalize_shares(shares))
        object.__setattr__(
            self, "service_rate", require_positive("service_rate", service_rate)
        )

    @classmethod
    def balanced(cls, n_servers: int, service_rate: float) -> "ClusterModel":
        """Uniform shares over ``n_servers`` servers."""
        if int(n_servers) != n_servers or n_servers < 1:
            raise ValidationError(
                f"n_servers must be a positive integer, got {n_servers}"
            )
        n_servers = int(n_servers)
        return cls([1.0 / n_servers] * n_servers, service_rate)

    @classmethod
    def hot_cold(
        cls,
        n_servers: int,
        service_rate: float,
        *,
        hottest_share: float,
    ) -> "ClusterModel":
        """One hot server with ``hottest_share``, the rest balanced.

        Mirrors the paper's Fig. 10 setup where ``p1`` sweeps from 0.3 to
        0.9 while the remaining load spreads over the other servers.
        """
        if int(n_servers) != n_servers or n_servers < 2:
            raise ValidationError(
                f"n_servers must be an integer >= 2, got {n_servers}"
            )
        n_servers = int(n_servers)
        if not 0.0 < hottest_share < 1.0:
            raise ValidationError(
                f"hottest_share must be in (0, 1), got {hottest_share}"
            )
        if hottest_share < 1.0 / n_servers - 1e-12:
            raise ValidationError(
                "hottest_share below the balanced share would not be hottest"
            )
        rest = (1.0 - hottest_share) / (n_servers - 1)
        return cls([hottest_share] + [rest] * (n_servers - 1), service_rate)

    @classmethod
    def from_key_popularity(
        cls,
        popularity: Sequence[float],
        server_of_key: Sequence[int],
        n_servers: int,
        service_rate: float,
    ) -> "ClusterModel":
        """Derive shares from per-key popularity and a key->server map.

        This is how the model connects to the executable substrate: hash
        each key with the cluster's ring, then aggregate popularity mass
        per server.
        """
        pop = np.asarray(popularity, dtype=float)
        servers = np.asarray(server_of_key, dtype=int)
        if pop.shape != servers.shape:
            raise ValidationError("popularity and server_of_key must align")
        if np.any(pop < 0):
            raise ValidationError("popularity must be non-negative")
        total = float(pop.sum())
        if total <= 0:
            raise ValidationError("popularity must have positive mass")
        if np.any((servers < 0) | (servers >= n_servers)):
            raise ValidationError("server indices out of range")
        shares = np.zeros(int(n_servers))
        np.add.at(shares, servers, pop)
        shares /= total
        if np.any(shares == 0):
            # A server with zero mass receives no keys; the model requires
            # positive shares, so drop it from the latency computation.
            shares = shares[shares > 0]
            shares /= shares.sum()
        return cls(shares.tolist(), service_rate)

    # ------------------------------------------------------------------

    @property
    def n_servers(self) -> int:
        return len(self.shares)

    @property
    def heaviest_share(self) -> float:
        """``p1`` — the largest load ratio (paper Table 2)."""
        return max(self.shares)

    @property
    def is_balanced(self) -> bool:
        """True when all shares are equal (within floating tolerance)."""
        first = self.shares[0]
        return all(math.isclose(s, first, rel_tol=1e-9) for s in self.shares)

    def imbalance_factor(self) -> float:
        """``p1 * M``: 1.0 when balanced, up to ``M`` when fully skewed."""
        return self.heaviest_share * self.n_servers

    def server_rates(self, total_key_rate: float) -> List[float]:
        """Per-server key rates for a total stream of ``total_key_rate``."""
        require_positive("total_key_rate", total_key_rate)
        return [share * total_key_rate for share in self.shares]

    def server_workloads(
        self, total_key_rate: float, pattern: WorkloadPattern
    ) -> List[WorkloadPattern]:
        """Split a total key stream into per-server workload patterns.

        Each server sees the same burst degree and concurrency as the
        aggregate pattern, at its share of the total rate — the paper's
        Fig. 10 construction.
        """
        return [
            pattern.with_rate(rate) for rate in self.server_rates(total_key_rate)
        ]

    def heaviest_workload(
        self, total_key_rate: float, pattern: WorkloadPattern
    ) -> WorkloadPattern:
        """The workload at the most loaded server (drives Prop. 1 bounds)."""
        return pattern.with_rate(self.heaviest_share * float(total_key_rate))

    def utilizations(self, total_key_rate: float) -> List[float]:
        """Per-server utilizations ``p_j * Lambda / muS``."""
        return [rate / self.service_rate for rate in self.server_rates(total_key_rate)]

    def max_utilization(self, total_key_rate: float) -> float:
        """Utilization of the heaviest server."""
        return self.heaviest_share * float(total_key_rate) / self.service_rate

