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

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import Scenario
from repro.observability import Observability

from tests.simulation.test_determinism import CASES, run_case

PINS_PATH = Path(__file__).with_name("engine_pins.json")

#: Timeline windows of the pinned observed runs.
WINDOWS = 12
#: Registry histograms the server queues and the per-key path feed.
QUEUE_HISTOGRAM_PREFIXES = ("server-", "database.", "key.server_sojourn")


def _hex(value):
    return None if value is None else float(value).hex()


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()


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


def _spans_digest(spans) -> str:
    payload = [span.to_dict() for span in spans]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


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
            "sum": _hex(payload["sum"]),
            "sumsq": _hex(payload["sumsq"]),
            "min": _hex(payload["min"]),
            "max": _hex(payload["max"]),
        }
    tracer = observability.tracer
    return {
        "histograms": histograms,
        "slowest_spans": _spans_digest(tracer.slowest()),
        "slowest_count": len(tracer.slowest()),
        "recent_spans": _spans_digest(tracer.recent()),
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
    timeline = results.timeline
    return {
        name: _digest(
            series.arrivals,
            series.completions,
            series.busy_time,
            series.wait_time,
        )
        for name, series in sorted(timeline.stages.items())
    }


def record() -> dict:
    return {
        "server_utilizations": utilizations_fingerprint(),
        "observed": observed_fingerprint(observed_section_5_1()),
        "hedge_observed": observed_fingerprint(observed_hedge()),
        "faults_timeline": faults_timeline_fingerprint(),
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


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
    PINS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
