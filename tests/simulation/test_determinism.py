"""Determinism contract for the batched event engine.

The engine pre-draws random values a window at a time and dispatches
request arrivals as event batches, and both promise to leave seeded
results *bit-identical* to per-event scalar draws. These tests pin that
promise with golden fingerprints: a sha256 over the raw latency samples
of every stage recorder, captured on the pre-batching engine. A change
that shifts a single float by one ulp changes the hash.

The goldens cover the representative hard cases: warmup resets, the
full fault schedule (including a share shift, which disables routing
windows), hedging with cancel-on-winner (cancellation storms), and
timeout/retry policies (timer churn).
"""

import hashlib

import pytest

from repro.core import ClusterModel
from repro.faults import (
    DatabaseOverload,
    FaultSchedule,
    ServerPause,
    ServerSlowdown,
    ShareShift,
)
from repro.policies import RequestPolicy
from repro.simulation import MemcachedSystemSimulator
from repro.simulation.scheduler import HeapScheduler
from repro.units import kps, msec, usec


def build_case(overrides, **extra):
    """The simulator of the determinism scenario with ``overrides`` (and
    simulator keywords ``extra``, such as an observability bundle), and
    its request and warmup counts."""
    kwargs = dict(
        n_keys_per_request=10,
        request_rate=200.0,
        network_delay=usec(20),
        miss_ratio=0.02,
        database_rate=1.0 / msec(1),
        seed=99,
    )
    kwargs.update(overrides, **extra)
    cluster = kwargs.pop("cluster", ClusterModel.balanced(2, kps(80)))
    n_requests = kwargs.pop("n_requests", 200)
    warmup = kwargs.pop("warmup_requests", 0)
    return MemcachedSystemSimulator(cluster, **kwargs), n_requests, warmup


def run_case(overrides, **extra):
    """One seeded run of the determinism scenario with ``overrides``."""
    system, n_requests, warmup = build_case(overrides, **extra)
    return system.run(n_requests=n_requests, warmup_requests=warmup)


def fingerprint(**overrides):
    """Hash every stage recorder's raw samples for one seeded run."""
    results = run_case(overrides)
    digest = hashlib.sha256()
    for recorder in (
        results.total,
        results.server_stage,
        results.database_stage,
        results.network_stage,
        results.per_key_server,
    ):
        digest.update(recorder.samples().tobytes())
    return (
        digest.hexdigest()[:16],
        results.keys_processed,
        results.misses,
    )


def fault_schedule():
    return FaultSchedule(
        [
            ServerSlowdown(start=0.1, duration=0.5, factor=0.4, server=0),
            ServerPause(start=0.3, duration=0.05, server=1),
            DatabaseOverload(start=0.2, duration=0.3, factor=0.5),
            ShareShift(start=0.4, duration=0.4, shares=(0.8, 0.2)),
        ]
    )


#: Golden fingerprints captured on the pre-batching engine (per-event
#: heap scheduler, scalar RNG draws). The batched engine must reproduce
#: them bit-for-bit.
GOLDENS = {
    "plain": ("9296fbe15c890815", 2010, 30),
    "bigger": ("c59488e2c5630964", 11000, 222),
    "faults": ("a7e44b2bb3f907d6", 4000, 94),
    "hedge": ("ae9f33841d4a24b6", 4012, 82),
    "retry": ("7dc5d0346ec7c786", 4010, 79),
}

CASES = {
    "plain": {},
    "bigger": dict(
        n_requests=500, n_keys_per_request=20, seed=20170327, warmup_requests=50
    ),
    "faults": dict(faults=fault_schedule(), n_requests=400, seed=7),
    "hedge": dict(
        policy=RequestPolicy(hedge_delay=msec(2), cancel_on_winner=True),
        n_requests=400,
        seed=11,
    ),
    "retry": dict(
        policy=RequestPolicy(timeout=msec(3), max_retries=2, backoff=1.5),
        n_requests=400,
        seed=13,
    ),
}


class TestGoldenFingerprints:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_default_path_matches_golden(self, case):
        assert fingerprint(**CASES[case]) == GOLDENS[case]


class TestHedgeHeavyBoundedScheduler:
    def test_cancel_storm_keeps_scheduler_bounded(self):
        """Every key arms a hedge timer that its own completion cancels.

        A cancelled entry leaves the heap only once it reaches the
        head. With a 10 ms network delay the system is never idle, so
        without compaction each of the 8000 cancelled hedges stays
        queued until its fire time (peak ~8.2k entries); a compacting
        heap stays near the live population (~1k)."""
        cluster = ClusterModel.balanced(2, kps(80))
        system = MemcachedSystemSimulator(
            cluster,
            n_keys_per_request=20,
            request_rate=400.0,
            network_delay=msec(10),
            seed=3,
            policy=RequestPolicy(hedge_delay=1.0, cancel_on_winner=True),
        )
        peak = 0

        class SampledScheduler(HeapScheduler):
            def push(self, time, seq, obj):
                nonlocal peak
                super().push(time, seq, obj)
                peak = max(peak, system.sim.scheduler_entries)

        system.sim._scheduler = SampledScheduler()
        system.run(n_requests=400)
        assert peak > 0  # the wrapped scheduler ran the whole simulation
        assert peak < 2_000
