"""Exact pins of seeded engine runs at the edges of a server run.

Without a request policy or cache backend, a server schedules the rest
of a batch as one *run* when its head key starts. The determinism
goldens, ``engine_pins.json`` and ``miss_stream_pins.json`` hash the
stage recorders, the record and some observed runs, but none of them
aims at the places where a run's keys meet something else:

* ``straddle``: a loaded cluster with warmup, so runs are in service at
  the warmup boundary and at the stop;
* ``r0.3``: misses landing as a run's first, middle and last key;
* ``r1-fast-db``: every key misses, into a fast database;
* ``r5e-324``: the smallest subnormal miss ratio (only an exact 0.0
  uniform misses), so the miss cursor meets window ends only;
* ``slowdown``: server slowdowns whose edges fall inside runs;
* ``unbalanced``: unequal shares, long runs on the hot server;
* ``n_keys1``: one key per request, so every run is a run of one.

Each pin is the sha256 of the per-request record and of the
``per_key_server`` samples, the ``server_utilizations`` as
``float.hex``, ``keys_processed`` and ``misses``. The observed cases add
the timeline's stage series and the registry's queue histograms; the
``traced`` pin (``straddle`` with metrics, trace, attribution and
timeline together) also pins the tracer's ``recent()`` and
``slowest()`` span trees. Its warmup boundary falls while both servers
are inside runs, so a run's keys split across the boundary.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src:. python tests/simulation/test_run_account_pins.py``.
"""

from pathlib import Path

import pytest

from repro.core import ClusterModel
from repro.faults import FaultSchedule, ServerSlowdown
from repro.observability import Observability
from repro.units import kps, usec

from tests.simulation.fingerprint import (
    WINDOWS,
    observed_fingerprint,
    pins_fixture,
    result_fingerprint,
    write_pins,
)
from tests.simulation.test_determinism import run_case

PINS_PATH = Path(__file__).with_name("run_account_pins.json")

#: A loaded two-server cluster with 20-key requests: runs of about ten
#: keys, most of them queued behind another run.
_LOADED = dict(n_keys_per_request=20, request_rate=3000.0, n_requests=300)


def _slowdowns():
    """Short slowdown windows on both servers, each shorter than a
    busy period, so a window edge falls between two keys of a run."""
    return FaultSchedule(
        [
            ServerSlowdown(
                start=0.01 + 0.004 * i, duration=0.0007, factor=0.35, server=i % 2
            )
            for i in range(20)
        ]
    )


CASES = {
    "straddle": dict(_LOADED, warmup_requests=60, seed=45),
    "r0.3": dict(
        _LOADED, miss_ratio=0.3, database_rate=1.0 / usec(40), seed=32
    ),
    "r1-fast-db": dict(
        _LOADED, miss_ratio=1.0, database_rate=1.0 / usec(5), seed=33
    ),
    "r5e-324": dict(_LOADED, miss_ratio=5e-324, n_requests=700, seed=34),
    "slowdown": dict(_LOADED, faults=_slowdowns(), warmup_requests=20, seed=35),
    "unbalanced": dict(
        _LOADED,
        cluster=ClusterModel((0.55, 0.25, 0.15, 0.05), kps(80)),
        request_rate=6000.0,
        warmup_requests=30,
        seed=36,
    ),
    "n_keys1": dict(
        n_keys_per_request=1,
        request_rate=90_000.0,
        n_requests=3000,
        warmup_requests=100,
        seed=37,
    ),
}

#: Cases rerun with the registry and the timeline on.
OBSERVED = ("straddle", "r0.3", "slowdown")


def pin(case: str) -> dict:
    return result_fingerprint(run_case(CASES[case]))


def pin_observed(case: str) -> dict:
    observability = Observability(trace=False, metrics=True, timeline=WINDOWS)
    return observed_fingerprint(run_case(CASES[case], observability=observability))


def pin_traced() -> dict:
    """``straddle`` with every per-key collector on at once."""
    observability = Observability(
        trace=True, metrics=True, attribution=True, timeline=WINDOWS
    )
    return observed_fingerprint(
        run_case(CASES["straddle"], observability=observability)
    )


def record() -> dict:
    return {
        "plain": {case: pin(case) for case in sorted(CASES)},
        "observed": {case: pin_observed(case) for case in OBSERVED},
        "traced": pin_traced(),
    }


pins = pins_fixture(PINS_PATH)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_pin(pins, case):
    assert pin(case) == pins["plain"][case]


@pytest.mark.parametrize("case", OBSERVED)
def test_observed_run_matches_pin(pins, case):
    assert pin_observed(case) == pins["observed"][case]


def test_traced_run_matches_pin(pins):
    assert pin_traced() == pins["traced"]


if __name__ == "__main__":
    write_pins(PINS_PATH, record())
