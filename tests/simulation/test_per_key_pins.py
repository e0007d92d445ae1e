"""Exact pins of seeded outputs of the queues that serve one key per event.

A server owned by a policy-free simulator serves its batches as runs,
and the run-account pins aim at those. The other owners, whose keys a
queue reports one by one, feed outputs no other pin holds:

* ``policy``: a policy run with hedges, timeout retries and
  cancel-on-winner at r = 0.3, so that policy attempts reach the
  database. Pinned with the observed fingerprint of ``fingerprint.py``
  (record, ``per_key_server`` samples, utilizations, counts, timeline
  stage series, ``server-j.*``/``database.*``/``key.*`` histograms and
  span trees), plus the database's utilization;
* ``database``: the database's utilization (``float.hex``) on a
  policy-free r = 0.3 run and on the ``policy`` run;
* ``standalone``: a :class:`ServerSim` no simulator owns, with a
  ``rate_factor`` and a ``pause_until`` as in
  ``examples/diurnal_provisioning.py``, and a :class:`DatabaseSim` with
  a ``rate_factor``. Batches alternate between a shared context and
  per-key contexts, some of them abandoned while queued, and the queue
  log is marked mid-run. Pinned: the sha256 of the completions and of
  ``QueueLog.job_columns()`` (since the mark and in full), the batch
  rows, and ``utilization`` as ``float.hex``.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src:. python tests/simulation/test_per_key_pins.py``.
"""

from pathlib import Path

import numpy as np

from repro.faults import FaultSchedule, ServerPause, ServerSlowdown
from repro.observability import Observability
from repro.policies import RequestPolicy
from repro.simulation import DatabaseSim, ServerSim, Simulator
from repro.simulation.server import QueueLog
from repro.units import usec

from tests.simulation.fingerprint import (
    WINDOWS,
    json_sha,
    observed_fingerprint,
    pins_fixture,
    sha,
    write_pins,
)
from tests.simulation.test_determinism import build_case

PINS_PATH = Path(__file__).with_name("per_key_pins.json")

#: A loaded two-server cluster with a third of the keys missing.
_MISSING = dict(
    n_keys_per_request=10,
    request_rate=2500.0,
    n_requests=300,
    warmup_requests=30,
    miss_ratio=0.3,
    database_rate=1.0 / usec(25),
)

CASES = {
    "policy": dict(
        _MISSING,
        policy=RequestPolicy(
            timeout=usec(400), max_retries=2, hedge_delay=usec(120),
            cancel_on_winner=True,
        ),
        seed=81,
    ),
    "policy-free": dict(_MISSING, seed=82),
}


def _run(case: str, **extra):
    """One seeded run of ``case`` and its database's utilization."""
    system, n_requests, warmup = build_case(CASES[case], **extra)
    results = system.run(n_requests=n_requests, warmup_requests=warmup)
    database = system._database.utilization_meter.utilization(system.sim.now)
    return results, database.hex()


def pin_policy() -> dict:
    observability = Observability(trace=True, metrics=True, timeline=WINDOWS)
    results, database = _run("policy", observability=observability)
    return dict(observed_fingerprint(results), database_utilization=database)


def pin_database() -> dict:
    return {case: _run(case)[1] for case in sorted(CASES)}


class _Key:
    """A per-key context a client may abandon while it is queued."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.abandoned = False


def _serve_standalone(queue_class, seed: int, **hooks) -> dict:
    """Feed one unowned queue 400 seeded batches of 1-6 keys and pin
    what it reports."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    log = QueueLog()
    done = []

    def complete(context, arrival, start, finish):
        name = context if isinstance(context, str) else context.name
        done.append((name, arrival, start, finish))

    rate = 60_000.0
    if queue_class is DatabaseSim:
        queue = DatabaseSim(sim, rate, rng, on_complete=complete, log=log, **hooks)
    else:
        queue = ServerSim.exponential(
            sim, rate, rng, on_complete=complete, log=log, **hooks
        )
    arrivals = np.cumsum(rng.exponential(1.0 / 14_000.0, 400))
    sizes = rng.integers(1, 7, 400).tolist()
    abandon = rng.random(400 * 6) < 0.15
    for number, (at, size) in enumerate(zip(arrivals.tolist(), sizes)):
        if number % 2:
            keys = [_Key(f"b{number}k{i}") for i in range(size)]
            offer = lambda keys=keys: queue.offer_batch(
                sim.now, len(keys), contexts=keys
            )
            for i, key in enumerate(keys):
                if abandon[6 * number + i]:
                    sim.schedule_at(at + usec(30), lambda key=key: setattr(
                        key, "abandoned", True
                    ))
        else:
            offer = lambda number=number, size=size: queue.offer_batch(
                sim.now, size, context=f"b{number}"
            )
        sim.schedule_at(at, offer)
    sim.schedule_at(float(arrivals[150]), log.mark)
    sim.run()
    return {
        "completions": json_sha(done),
        "n_completions": len(done),
        "job_columns": sha(*log.job_columns()),
        "job_columns_all": sha(*log.job_columns(False)),
        "batches": json_sha(log.batches),
        "utilization": queue.utilization_meter.utilization(sim.now).hex(),
    }


def _faults() -> FaultSchedule:
    """Slowdowns and pauses of server 0, each shorter than a busy period."""
    windows = []
    for i in range(10):
        at = 0.001 + 0.0025 * i
        windows.append(ServerSlowdown(start=at, duration=0.0006, factor=0.4, server=0))
        windows.append(ServerPause(start=at + 0.0011, duration=0.0003, server=0))
    return FaultSchedule(windows)


def pin_standalone() -> dict:
    faults = _faults()
    return {
        "server": _serve_standalone(
            ServerSim,
            83,
            rate_factor=lambda t: faults.server_rate_factor(0, t),
            pause_until=lambda t: faults.server_pause_end(0, t),
        ),
        "database": _serve_standalone(
            DatabaseSim, 84, rate_factor=lambda t: faults.server_rate_factor(0, t)
        ),
    }


def record() -> dict:
    return {
        "policy": pin_policy(),
        "database": pin_database(),
        "standalone": pin_standalone(),
    }


pins = pins_fixture(PINS_PATH)


def test_policy_run_matches_pin(pins):
    assert pin_policy() == pins["policy"]


def test_database_utilization_matches_pin(pins):
    assert pin_database() == pins["database"]


def test_standalone_queues_match_pin(pins):
    assert pin_standalone() == pins["standalone"]


if __name__ == "__main__":
    write_pins(PINS_PATH, record())
