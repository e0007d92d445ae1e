"""Exact pins of seeded engine runs at the edges of a request's fan-out.

A request's keys leave the client together and reach their servers one
constant network delay ``d`` later. The determinism goldens, the engine
pins and the run-account pins all use ``d`` = 20 us and the Bernoulli
miss model; none of them aims at these edges:

* ``delay0``: ``d = 0``, so a request's keys reach their servers at the
  instant it arrives;
* ``delay10ms-stop``: ``d`` = 10 ms on a loaded cluster, so about thirty
  requests have arrived but not reached a server when the run stops;
* ``cache``: a real cache backend (:class:`SimulatedCacheBackend`)
  decides hits, so every key carries a named context.

Each case is pinned plain (the ``fingerprint.py`` result fingerprint: the
record, the ``per_key_server`` samples, ``server_utilizations``,
``keys_processed``, ``misses``) and observed with every collector on
(the timeline's stage series, the registry's queue histograms and the
tracer's ``recent()`` and ``slowest()`` span trees).

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src:. python tests/simulation/test_fanout_pins.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import ClusterModel
from repro.distributions import make_rng, split_rng
from repro.memcached import MemcachedCluster, SimulatedCacheBackend
from repro.observability import Observability
from repro.units import kps, msec, usec

from tests.simulation.fingerprint import (
    WINDOWS,
    observed_fingerprint,
    pins_fixture,
    result_fingerprint,
    write_pins,
)
from tests.simulation.test_determinism import run_case

PINS_PATH = Path(__file__).with_name("fanout_pins.json")

#: A loaded two-server cluster with 20-key requests and some misses.
_LOADED = dict(
    n_keys_per_request=20,
    request_rate=3000.0,
    n_requests=300,
    warmup_requests=40,
    miss_ratio=0.05,
    database_rate=1.0 / usec(40),
)


def _cache_case() -> dict:
    """A small real cache in front of a four-server cluster: the hits
    come from its state, so the miss ratio emerges from the run."""
    backend = SimulatedCacheBackend(
        MemcachedCluster(4, 1 << 20),
        n_items=5_000,
        value_size=2048,
        rng=np.random.default_rng(61),
    )
    backend.warm(0.05)
    return dict(
        cluster=ClusterModel.balanced(4, kps(80)),
        n_keys_per_request=5,
        request_rate=800.0,
        n_requests=400,
        warmup_requests=40,
        miss_ratio=0.0,
        database_rate=5000.0,
        cache_backend=backend,
        seed=62,
    )


CASES = {
    "delay0": lambda: dict(_LOADED, network_delay=0.0, seed=63),
    "delay10ms-stop": lambda: dict(_LOADED, network_delay=msec(10), seed=64),
    "cache": _cache_case,
}


def pin(case: str) -> dict:
    return result_fingerprint(run_case(CASES[case]()))


def pin_observed(case: str) -> dict:
    observability = Observability(
        trace=True, metrics=True, attribution=True, timeline=WINDOWS
    )
    return observed_fingerprint(run_case(CASES[case](), observability=observability))


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


def test_stop_falls_within_a_delay_of_later_arrivals():
    """The 10 ms case stops with requests on the wire: many arrivals,
    redrawn from the request stream (the first split child of the
    seed), fall within one network delay before the stop."""
    overrides = CASES["delay10ms-stop"]()
    results = run_case(overrides)
    stop = results.record[:, 2].max()
    gaps = split_rng(make_rng(overrides["seed"]), 7)[0].exponential(
        1.0 / overrides["request_rate"], 4096
    )
    born = np.cumsum(gaps)
    on_wire = np.count_nonzero((born > stop - msec(10)) & (born < stop))
    assert on_wire >= 10


if __name__ == "__main__":
    write_pins(PINS_PATH, record())
