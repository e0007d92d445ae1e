"""Vectorized fast-path simulator for the paper's validation sweeps.

The event engine is general but pays per-event Python overhead. The
validation figures need millions of per-key latencies across dozens of
parameter points, so this module simulates the GI^X/M/1 server with a
vectorized Lindley recursion::

    W_n = C_n - min_{0<=k<=n} C_k,   C_n = sum_{j<n} (S_j - G_{j+1})

(batch waits), then reconstructs per-key latencies as the batch wait
plus the within-batch partial service sums — exactly the process the
paper's model describes, at numpy speed.

Request-level latencies (the fork-join max over N keys spread across
servers by shares ``{p_j}``, plus database misses) are sampled from the
per-server latency pools, mirroring how the paper aggregates per-key
measurements into end-user latencies.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from ..core.workload import WorkloadPattern
from ..errors import StabilityError, ValidationError


def lindley_waits(service_times: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Vectorized Lindley recursion: FIFO waits of ``n`` arrivals.

    ``service_times`` holds the ``n`` per-arrival service requirements
    and ``gaps`` the ``n - 1`` inter-arrival gaps between consecutive
    arrivals. Uses the prefix-minimum identity::

        W_n = C_n - min_{0<=k<=n} C_k,   C_n = sum_{j<n} (S_j - G_{j+1})

    which replaces the sequential ``W_{n+1} = max(0, W_n + S_n - G_{n+1})``
    with two cumulative scans.
    """
    u = service_times[:-1] - gaps
    c = np.concatenate(([0.0], np.cumsum(u)))
    waits = c - np.minimum.accumulate(np.concatenate(([0.0], c))[:-1])
    return np.maximum(waits, 0.0)


@dataclasses.dataclass(frozen=True, eq=False)
class BatchFifo:
    """FIFO state of a compound batch stream, kept at batch level.

    A key's sojourn is its batch's Lindley wait plus the service of the
    keys up to and including it in its batch: ``(prefix[k] - before[b])
    + waits[b]`` for key ``k`` of batch ``b``. Only ``prefix`` is per
    key; the reads below build per-key sojourns only for the keys they
    are asked about, each with the same float operations in the same
    order, so every read is bit-identical to the full :meth:`sojourn`
    array at the keys it covers.
    """

    #: Keys per batch (each >= 1).
    sizes: np.ndarray
    #: Index of each batch's first key.
    starts: np.ndarray
    #: Inclusive per-key service prefix over the whole stream.
    prefix: np.ndarray
    #: ``prefix`` before each batch's first key.
    before: np.ndarray
    #: Lindley wait of each batch.
    waits: np.ndarray

    def sojourn(self) -> np.ndarray:
        """Every key's sojourn, batch by batch."""
        sojourn = np.repeat(self.before, self.sizes)
        np.subtract(self.prefix, sojourn, out=sojourn)
        sojourn += np.repeat(self.waits, self.sizes)
        return sojourn

    def last(self) -> np.ndarray:
        """Each batch's last-key sojourn, its largest (prefixes never
        decrease within a batch)."""
        last = self.starts + self.sizes - 1
        return (self.prefix[last] - self.before) + self.waits

    def at(self, keys, batch) -> np.ndarray:
        """Sojourns of ``keys``, where ``batch`` holds each key's batch."""
        return (self.prefix[keys] - self.before[batch]) + self.waits[batch]


def batch_fifo(
    gaps: np.ndarray,
    sizes: np.ndarray,
    services: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> BatchFifo:
    """FIFO state of a compound batch stream (eqs. 4-5).

    ``gaps`` holds the ``n - 1`` gaps between consecutive batch
    arrivals, ``sizes`` the ``n`` batch sizes (each >= 1) and
    ``services`` the ``sizes.sum()`` per-key service times, batch by
    batch. Each batch waits by the Lindley recursion over batch service
    totals; each key then also waits behind the keys ahead of it in its
    batch. Returns the :class:`BatchFifo` state, whose reads give every
    key's sojourn, each batch's largest, or a gathered few.

    It takes gaps, not arrival times: ``np.diff(np.cumsum(g))`` is not
    bit-equal to ``g``, so sampled gaps go in as drawn. ``out``, when
    given, receives the per-key ``prefix``, so a caller can keep it in a
    buffer it already owns.
    """
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    waits = lindley_waits(np.add.reduceat(services, starts), gaps)
    prefix = np.cumsum(services, out=out)
    return BatchFifo(
        sizes=sizes,
        starts=starts,
        prefix=prefix,
        before=prefix[starts] - services[starts],
        waits=waits,
    )


def _simulate_keys(
    gap_dist, size_dist, service_rate: float, *, n_keys, rng, warmup_fraction
) -> np.ndarray:
    """Draw gaps, sizes, then services; run :func:`batch_fifo`; drop warmup."""
    if n_keys < 1:
        raise ValidationError(f"n_keys must be >= 1, got {n_keys}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValidationError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    # 5% headroom over the expected batch count so random batch sizes
    # almost never undershoot the requested key count; the slice below
    # truncates any excess.
    keep = 1.0 - warmup_fraction
    n_batches = int(math.ceil(1.05 * n_keys / size_dist.mean / keep)) + 64
    gaps = np.asarray(gap_dist.sample(rng, n_batches), dtype=float)
    sizes = np.asarray(size_dist.sample(rng, n_batches), dtype=np.int64)
    services = rng.exponential(1.0 / service_rate, size=int(sizes.sum()))
    latencies = batch_fifo(gaps[1:], sizes, services).sojourn()
    warmup_keys = int(sizes[: int(n_batches * warmup_fraction)].sum())
    return latencies[warmup_keys:][:n_keys]


def simulate_key_latencies(
    workload: WorkloadPattern,
    service_rate: float,
    *,
    n_keys: int,
    rng: np.random.Generator,
    warmup_fraction: float = 0.05,
) -> np.ndarray:
    """Per-key sojourn times at one GI^X/M/1 Memcached server.

    Simulates enough batches to yield ``n_keys`` post-warmup keys. The
    initial ``warmup_fraction`` of batches is discarded so the sample
    approximates stationarity.
    """
    rho = workload.utilization(service_rate)
    if rho >= 1.0:
        raise StabilityError(rho)
    return _simulate_keys(
        workload.batch_gap_distribution(),
        workload.batch_size_distribution(),
        service_rate,
        n_keys=n_keys,
        rng=rng,
        warmup_fraction=warmup_fraction,
    )


def simulate_batch_times(
    workload: WorkloadPattern,
    service_rate: float,
    *,
    n_batches: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch (wait, completion) pairs — validates paper eqs. (4)-(5).

    Returns two arrays: the queueing time ``TQ`` and the completion time
    ``TC`` of each simulated batch.
    """
    if n_batches < 1:
        raise ValidationError(f"n_batches must be >= 1, got {n_batches}")
    rho = workload.utilization(service_rate)
    if rho >= 1.0:
        raise StabilityError(rho)
    gap_dist = workload.batch_gap_distribution()
    size_dist = workload.batch_size_distribution()
    gaps = np.asarray(gap_dist.sample(rng, n_batches), dtype=float)
    sizes = np.asarray(size_dist.sample(rng, n_batches), dtype=np.int64)
    batch_service = rng.gamma(shape=sizes.astype(float), scale=1.0 / service_rate)
    waits = lindley_waits(batch_service, gaps[1:])
    return waits, waits + batch_service


@dataclasses.dataclass(frozen=True)
class RequestSample:
    """Monte-Carlo end-user request latencies and their decomposition."""

    total: np.ndarray
    server_max: np.ndarray
    database_max: np.ndarray
    network: float

    @property
    def n_requests(self) -> int:
        return int(self.total.size)


def sample_request_latencies(
    server_pools: Sequence[np.ndarray],
    shares: Sequence[float],
    *,
    n_keys: int,
    n_requests: int,
    rng: np.random.Generator,
    network_delay: float = 0.0,
    miss_ratio: float = 0.0,
    database_rate: Optional[float] = None,
    database_utilization: float = 0.0,
) -> RequestSample:
    """Fork-join request latencies from per-server key-latency pools.

    Each request draws N keys, spreads them over servers multinomially
    with probabilities ``shares``, samples each key's server latency
    from that server's pool, applies Bernoulli(r) misses with
    ``Exp((1-rho_D) muD)`` database sojourns, and takes the max (paper
    §4.1): ``T = max_i(n_i + s_i + d_i)`` with constant network ``n``.
    """
    shares_arr = np.asarray(shares, dtype=float)
    if len(server_pools) != shares_arr.size:
        raise ValidationError("server_pools and shares must align")
    if not math.isclose(float(shares_arr.sum()), 1.0, rel_tol=1e-9):
        raise ValidationError("shares must sum to 1")
    if n_keys < 1 or n_requests < 1:
        raise ValidationError("n_keys and n_requests must be >= 1")
    if not 0.0 <= miss_ratio <= 1.0:
        raise ValidationError(f"miss_ratio must be in [0, 1], got {miss_ratio}")
    if miss_ratio > 0.0 and database_rate is None:
        raise ValidationError("database_rate is required when miss_ratio > 0")
    pools = [np.asarray(pool, dtype=float) for pool in server_pools]
    if any(pool.size == 0 for pool in pools):
        raise ValidationError("every server pool must be non-empty")

    total_keys = n_keys * n_requests
    server_of_key = rng.choice(shares_arr.size, size=total_keys, p=shares_arr)
    # One vectorized index draw for every key at once — `high` varies
    # per key with its pool's size — then a single gather from the
    # concatenated pools. Replaces the per-pool boolean-mask loop,
    # which scanned all `total_keys` entries once per server.
    pool_sizes = np.array([pool.size for pool in pools], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(pool_sizes[:-1])))
    merged = pools[0] if len(pools) == 1 else np.concatenate(pools)
    within = rng.integers(0, pool_sizes[server_of_key])
    latencies = merged[offsets[server_of_key] + within]

    server_component = latencies.reshape(n_requests, n_keys)
    database_component = np.zeros_like(server_component)
    if miss_ratio > 0.0:
        miss_mask = rng.random(server_component.shape) < miss_ratio
        n_misses = int(miss_mask.sum())
        if n_misses:
            effective = (1.0 - database_utilization) * float(database_rate)
            database_component[miss_mask] = rng.exponential(
                1.0 / effective, size=n_misses
            )

    per_key_total = server_component + database_component
    return RequestSample(
        total=per_key_total.max(axis=1) + network_delay,
        server_max=server_component.max(axis=1),
        database_max=database_component.max(axis=1),
        network=float(network_delay),
    )


def sample_timeline(
    sample: "RequestSample",
    *,
    request_rate: float,
    rng: np.random.Generator,
    timeline: object = True,
) -> "Timeline":
    """Windowed telemetry for a stationary pool-sampled request batch.

    The pool sampler draws request latencies without a timeline of its
    own (samples are exchangeable, not time-ordered), so this lays them
    on a synthetic Poisson arrival process at ``request_rate`` — valid
    precisely because the sample *is* stationary — and buckets the
    resulting (born, completed) pairs into the shared
    :class:`~repro.observability.timeline.Timeline` schema. No per-stage
    series: the pool sampler does not track queue occupancy.
    """
    from ..observability.timeline import Timeline, TimelineSpec

    if request_rate <= 0:
        raise ValidationError(f"request_rate must be > 0, got {request_rate}")
    spec = TimelineSpec.coerce(timeline)
    if spec is None:
        spec = TimelineSpec.coerce(True)
    totals = np.asarray(sample.total, dtype=float)
    born = np.cumsum(rng.exponential(1.0 / request_rate, size=totals.size))
    completed = born + totals
    end = float(completed.max()) if completed.size else 1.0
    return Timeline.from_events(
        start=0.0,
        end=end,
        request_born=born,
        request_completed=completed,
        request_total=totals,
        stages={},
        spec=spec,
        meta={"backend": "fastpath", "synthetic_arrivals": True},
    )


def expected_max_from_pool(pool: np.ndarray, n: float) -> float:
    """Exact ``E[max of n iid draws]`` from an empirical sample.

    For a sorted pool ``x_(1) <= ... <= x_(M)`` with empirical CDF
    ``F(x_(i)) = i/M``, the max of ``n`` draws equals ``x_(i)`` with
    probability ``(i/M)^n - ((i-1)/M)^n``; the expectation is the
    corresponding weighted sum. Removes the Monte-Carlo resampling layer
    entirely — the only randomness left is the pool itself.
    """
    data = np.sort(np.asarray(pool, dtype=float))
    if data.size == 0:
        raise ValidationError("pool must be non-empty")
    if n <= 0:
        raise ValidationError(f"n must be > 0, got {n}")
    grid = np.arange(data.size + 1, dtype=float) / data.size
    weights = np.diff(grid**float(n))
    return float(np.dot(weights, data))


def expected_max_from_pools(
    pools: Sequence[np.ndarray], shares: Sequence[float], n: float
) -> float:
    """Exact ``E[max of n draws]`` when each draw picks pool ``j`` w.p.
    ``shares[j]`` — the fork-join max across unbalanced servers.

    Builds the share-weighted mixture CDF over the merged support and
    integrates ``1 - F_mix(t)^n`` as a sum over steps.
    """
    share_arr = np.asarray(shares, dtype=float)
    if len(pools) != share_arr.size:
        raise ValidationError("pools and shares must align")
    if not math.isclose(float(share_arr.sum()), 1.0, rel_tol=1e-9):
        raise ValidationError("shares must sum to 1")
    if n <= 0:
        raise ValidationError(f"n must be > 0, got {n}")
    values = []
    weights = []
    for pool, share in zip(pools, share_arr):
        data = np.asarray(pool, dtype=float)
        if data.size == 0:
            raise ValidationError("every pool must be non-empty")
        values.append(data)
        weights.append(np.full(data.size, share / data.size))
    merged = np.concatenate(values)
    weight = np.concatenate(weights)
    order = np.argsort(merged)
    merged = merged[order]
    cdf = np.cumsum(weight[order])
    cdf = np.minimum(cdf / cdf[-1], 1.0)
    cdf_pow = cdf**float(n)
    step = np.diff(np.concatenate(([0.0], cdf_pow)))
    return float(np.dot(step, merged))


def _server_pools(
    workload: WorkloadPattern,
    service_rate: float,
    shares: Optional[Sequence[float]],
    n_keys_per_request: int,
    *,
    pool_size: int,
    rng: np.random.Generator,
) -> tuple[list, list, float]:
    """``(pools, shares, exact E[TS(N)])`` for a (possibly unbalanced) cluster.

    Balanced (``shares`` omitted): every server is statistically
    identical, so one pool at ``workload``'s rate sampled N times is
    equivalent and much cheaper. Otherwise one pool per server, each at
    ``workload.rate * share``.
    """
    if shares is None:
        shares, workloads = [1.0], [workload]
    else:
        shares = list(shares)
        workloads = [workload.with_rate(workload.rate * float(s)) for s in shares]
    pools = [
        simulate_key_latencies(w, service_rate, n_keys=pool_size, rng=rng)
        for w in workloads
    ]
    if len(pools) == 1:
        return pools, shares, expected_max_from_pool(pools[0], n_keys_per_request)
    return pools, shares, expected_max_from_pools(pools, shares, n_keys_per_request)


def simulate_server_stage_mean(
    workload: WorkloadPattern,
    service_rate: float,
    *,
    n_keys_per_request: int,
    rng: np.random.Generator,
    pool_size: int = 200_000,
    shares: Optional[Sequence[float]] = None,
) -> float:
    """Measured ``E[TS(N)]`` for a (possibly unbalanced) cluster.

    Convenience wrapper used by the figure benches: simulate per-server
    latency pools (each server at its share of the total rate described
    by ``workload``'s rate, split via ``shares``; balanced single pool
    when shares are omitted) and take the *exact* expected fork-join max
    over the empirical pools — no Monte-Carlo resampling noise.
    """
    return _server_pools(
        workload, service_rate, shares, n_keys_per_request, pool_size=pool_size, rng=rng
    )[2]
