"""Exact pins of seeded runs whose hits come from a real cache backend.

:class:`SimulatedCacheBackend` ignores both arguments of ``lookup``: it
draws a catalog key of its own, so the ``cache`` case of the fan-out
pins cannot see a wrong key name or server index, nor a lookup made out
of order as long as the count matches. These pins record every lookup's
``(server_index, key, hit)`` in the order the simulator makes them and
pin the sha256 of that sequence, beside the ``run_account_pins``
fingerprints, plain and with every collector on:

* ``balanced``: four equal servers, light load;
* ``unbalanced-loaded``: unequal shares and 20-key requests under load,
  so most batches queue behind another;
* ``delay0``: ``d = 0``, so a request's keys reach their servers at the
  instant it arrives;
* ``faults``: server slowdowns and pauses and a database overload; a
  server with a pause hook starts each key on its own, since a pause
  can hold the next one back, so every key after a batch's first
  starts in the middle of its batch;
* ``hedge``: a hedging policy, whose attempts carry their own names.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src:. python tests/simulation/test_cache_lookup_pins.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import ClusterModel
from repro.faults import DatabaseOverload, FaultSchedule, ServerPause, ServerSlowdown
from repro.memcached import MemcachedCluster, SimulatedCacheBackend
from repro.observability import Observability
from repro.policies import RequestPolicy
from repro.units import kps, usec

from tests.simulation.fingerprint import (
    WINDOWS,
    json_sha,
    observed_fingerprint,
    pins_fixture,
    result_fingerprint,
    write_pins,
)
from tests.simulation.test_determinism import run_case

PINS_PATH = Path(__file__).with_name("cache_lookup_pins.json")


class RecordingBackend(SimulatedCacheBackend):
    """A cache backend that keeps every lookup it answers."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen = []

    def lookup(self, server_index: int, key: str) -> bool:
        hit = super().lookup(server_index, key)
        self.seen.append((server_index, key, hit))
        return hit


def _faults() -> FaultSchedule:
    """Slowdowns and pauses on every server and two database overloads,
    each shorter than a busy period."""
    windows = []
    for i in range(12):
        at = 0.02 + 0.03 * i
        windows.append(
            ServerSlowdown(start=at, duration=0.002, factor=0.4, server=i % 4)
        )
        windows.append(
            ServerPause(start=at + 0.011, duration=0.0015, server=(i + 1) % 4)
        )
    windows += [
        DatabaseOverload(start=0.05, duration=0.03, factor=0.3),
        DatabaseOverload(start=0.25, duration=0.03, factor=0.3),
    ]
    return FaultSchedule(windows)


#: Each case's simulator keywords, apart from the cache backend.
_BASE = dict(
    cluster=ClusterModel.balanced(4, kps(80)),
    n_keys_per_request=5,
    request_rate=800.0,
    n_requests=300,
    warmup_requests=30,
    miss_ratio=0.0,
    database_rate=5000.0,
)

CASES = {
    "balanced": lambda: dict(_BASE, seed=71),
    "unbalanced-loaded": lambda: dict(
        _BASE,
        cluster=ClusterModel((0.55, 0.25, 0.15, 0.05), kps(80)),
        n_keys_per_request=20,
        request_rate=4000.0,
        database_rate=40_000.0,
        seed=72,
    ),
    "delay0": lambda: dict(_BASE, network_delay=0.0, seed=73),
    "faults": lambda: dict(
        _BASE,
        n_keys_per_request=12,
        request_rate=4000.0,
        database_rate=30_000.0,
        faults=_faults(),
        seed=74,
    ),
    "hedge": lambda: dict(_BASE, policy=RequestPolicy(hedge_delay=usec(150)), seed=75),
}


def _run(case: str, **extra):
    """One seeded run of ``case`` with a fresh cache, and its lookups."""
    backend = RecordingBackend(
        MemcachedCluster(4, 1 << 20),
        n_items=5_000,
        value_size=2048,
        rng=np.random.default_rng(61),
    )
    backend.warm(0.05)
    results = run_case(CASES[case](), cache_backend=backend, **extra)
    lookups = json_sha(backend.seen)
    return results, dict(lookups=lookups, n_lookups=len(backend.seen))


def pin(case: str) -> dict:
    results, lookups = _run(case)
    return dict(result_fingerprint(results), **lookups)


def pin_observed(case: str) -> dict:
    observability = Observability(
        trace=True, metrics=True, attribution=True, timeline=WINDOWS
    )
    results, lookups = _run(case, observability=observability)
    return dict(observed_fingerprint(results), **lookups)


def record() -> dict:
    return {
        "plain": {case: pin(case) for case in sorted(CASES)},
        "observed": {case: pin_observed(case) for case in sorted(CASES)},
    }


pins = pins_fixture(PINS_PATH)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_pin(pins, case):
    assert pin(case) == pins["plain"][case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_observed_run_matches_pin(pins, case):
    assert pin_observed(case) == pins["observed"][case]


if __name__ == "__main__":
    write_pins(PINS_PATH, record())
