"""Exact pins of seeded event-engine outputs the determinism goldens skip.

``test_determinism.py`` hashes every stage recorder's samples, the key
count and the miss count. The server queues also feed measured
utilizations, the per-queue registry histograms, the tracer's span
trees and the timeline's stage series; a faster queue that moved one
of those by an ulp would still pass the goldens. ``engine_pins.json``
pins them, recorded on the code before the server queue kept one entry
per batch:

* ``server_utilizations`` (``float.hex``) of every determinism case;
* for a paper §5.1 run under ``Observability(metrics=True, trace=True,
  timeline=12)``: every ``server-j.*``, ``database.*`` and
  ``key.server_sojourn`` histogram (bucket counts and exact sums), and
  the sha256 of the retained slowest-K span trees, which carry each
  key's ``queue_depth_at_enqueue`` and ``hit``, and of the ``recent()``
  ring, which holds a request born before the warmup boundary;
* the same histograms and span trees for the determinism ``hedge``
  case (per-attempt key spans in launch order, cancel-on-winner,
  attempts dropped unserved and attempts still in flight at the stop);
* the timeline stage series of the determinism ``faults`` case (a
  server pause and a server slowdown among its windows).

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src:. python tests/simulation/test_engine_pins.py``.
"""

from pathlib import Path

import pytest

from repro.experiments import Scenario
from repro.observability import Observability

from tests.simulation.fingerprint import (
    hex_or_none,
    pins_fixture,
    spans_digest,
    stage_digests,
    write_pins,
)
from tests.simulation.test_determinism import CASES, run_case

PINS_PATH = Path(__file__).with_name("engine_pins.json")

#: Timeline windows of the pinned observed runs.
WINDOWS = 12
#: Registry histograms the server queues and the per-key path feed.
QUEUE_HISTOGRAM_PREFIXES = ("server-", "database.", "key.server_sojourn")


def utilizations_fingerprint() -> dict:
    """``server_utilizations`` of every determinism case, exactly."""
    return {
        case: [u.hex() for u in run_case(CASES[case]).server_utilizations]
        for case in sorted(CASES)
    }


def observed_section_5_1():
    """One seeded §5.1 engine run with every per-key collector on."""
    scenario = Scenario.paper_section_5_1().replace(
        miss_ratio=0.002, seed=51, n_requests=200, warmup_requests=20
    )
    observability = Observability(metrics=True, trace=True, timeline=WINDOWS)
    return scenario.simulator(observability=observability).run(
        n_requests=scenario.n_requests,
        warmup_requests=scenario.warmup_requests,
    )


def observed_fingerprint(results) -> dict:
    """Queue histograms, slowest-K and recent span trees of an observed
    run."""
    observability = results.observability
    registry = observability.registry
    histograms = {}
    for name in sorted(registry.names()):
        if not name.startswith(QUEUE_HISTOGRAM_PREFIXES):
            continue
        payload = registry.get(name).to_dict()
        if payload["type"] != "histogram":
            continue
        histograms[name] = {
            "zero": payload["zero"],
            "counts": payload["counts"],
            "count": payload["count"],
            "sum": hex_or_none(payload["sum"]),
            "sumsq": hex_or_none(payload["sumsq"]),
            "min": hex_or_none(payload["min"]),
            "max": hex_or_none(payload["max"]),
        }
    tracer = observability.tracer
    return {
        "histograms": histograms,
        "slowest_spans": spans_digest(tracer.slowest()),
        "slowest_count": len(tracer.slowest()),
        "recent_spans": spans_digest(tracer.recent()),
        "recent_count": len(tracer.recent()),
    }


def observed_hedge():
    """The determinism ``hedge`` case with the tracer and registry on."""
    return run_case(
        CASES["hedge"], observability=Observability(metrics=True, trace=True)
    )


def faults_timeline_fingerprint() -> dict:
    """Every stage series of the determinism ``faults`` case."""
    results = run_case(
        CASES["faults"], observability=Observability(
            trace=False, metrics=False, timeline=WINDOWS
        )
    )
    return stage_digests(results.timeline)


def record() -> dict:
    return {
        "server_utilizations": utilizations_fingerprint(),
        "observed": observed_fingerprint(observed_section_5_1()),
        "hedge_observed": observed_fingerprint(observed_hedge()),
        "faults_timeline": faults_timeline_fingerprint(),
    }


pins = pins_fixture(PINS_PATH)


def test_server_utilizations_match_pins(pins):
    assert utilizations_fingerprint() == pins["server_utilizations"]


@pytest.mark.parametrize(
    "key, run", [("observed", observed_section_5_1), ("hedge_observed", observed_hedge)]
)
def test_observed_run_matches_pins(pins, key, run):
    got = observed_fingerprint(run())
    expected = pins[key]
    assert sorted(got["histograms"]) == sorted(expected["histograms"])
    for name, histogram in expected["histograms"].items():
        assert got["histograms"][name] == histogram, name
    assert got["slowest_count"] == expected["slowest_count"]
    assert got["slowest_spans"] == expected["slowest_spans"]
    assert got["recent_count"] == expected["recent_count"]
    assert got["recent_spans"] == expected["recent_spans"]


def test_observed_recent_holds_a_warmup_straddler():
    """A request in flight across the warmup boundary is retained with
    every key, including those served before the boundary."""
    results = observed_section_5_1()
    boundary = results.timeline.start
    straddlers = [
        root
        for root in results.observability.tracer.recent()
        if root.start < boundary
    ]
    assert straddlers
    for root in straddlers:
        keys = [span for span in root.children if span.name == "key"]
        assert len(keys) == root.attributes["n_keys"]
        assert all(key.finished for key in keys)
        assert min(key.children[-1].start for key in keys) < boundary


def test_faults_timeline_matches_pins(pins):
    assert faults_timeline_fingerprint() == pins["faults_timeline"]


if __name__ == "__main__":
    write_pins(PINS_PATH, record())
