"""Golden fingerprints of seeded fastpath-system runs and capacity cells.

The window accounting behind ``fastpath-system`` timelines and the
per-request stage maxima are performance-tuned code paths whose results
must not move: a faster construction that shifts one latency sample, one
window count or one capacity probe verdict is a different simulator.
These goldens pin them. ``fastpath_system_golden.json`` was recorded on
the code before the sorted-order window accounting landed:

* seeded paper §5.1 runs at miss ratios 0, 0.2% and 5% (the last an
  overloaded-database transient): per-request ``T``/``TS``/``TD``
  samples, server utilizations, timeline counts and latency-histogram
  dicts bit-identical. Per-stage busy and wait times and the in-flight
  request time are float sums whose summation order is free, so their
  goldens are the exact (``math.fsum``) window integrals of the
  recorded run's jobs, and a run must land within ``rtol = 1e-9`` of
  them;
* seeded ``find_capacity`` cells at r = 0.25% and 2% on the same
  4-server, N = 150 cluster without burstiness (the ``repro capacity
  --sweep`` shape; the servers bind at 0.25%, the database at 2%):
  ``max_rps`` and every probe's ``(rps, passed, value)`` bit-identical.

``fastpath_system_pins.json`` adds exact pins the golden above does
not hold, recorded on the code before the batch-level FIFO state landed:

* the sha256 of every stage's ``(arrival, start, finish)`` job arrays as
  handed to :meth:`Timeline.from_events`, for each golden §5.1 run;
* every column and exact sum of an attributed §5.1 run;
* the samples and utilizations of a §5.1 run with one
  ``server-slowdown`` and one ``database-overload`` window.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src python tests/simulation/test_fastpath_system_golden.py``
(add ``pins`` to re-record ``fastpath_system_pins.json`` instead).
"""

import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.capacity import CapacityObjective, find_capacity
from repro.distributions.rng import make_rng
from repro.experiments import Scenario
from repro.faults import DatabaseOverload, FaultSchedule, ServerSlowdown
from repro.observability import Timeline
from repro.observability.attribution import STAGES
from repro.simulation import simulate_system_requests

GOLDEN_PATH = Path(__file__).with_name("fastpath_system_golden.json")
PINS_PATH = Path(__file__).with_name("fastpath_system_pins.json")

RUN_MISS_RATIOS = (0.0, 0.002, 0.05)
RUN_WINDOWS = 12
CAPACITY_MISS_RATIOS = (0.0025, 0.02)
#: Probe size; probes never escalate, as on the capacity-sweep benchmark.
CAPACITY_REQUESTS = 2000
OBJECTIVE = CapacityObjective(threshold=0.020, metric="p99")
BUSY_WAIT_RTOL = 1e-9
#: Pinned runs: the attributed run and the fault run (one slowdown of
#: server 1, one database overload, overlapping in time).
ATTRIBUTION_MISS_RATIO = 0.05
FAULT_MISS_RATIO = 0.002
FAULTS = FaultSchedule(
    (
        ServerSlowdown(start=0.05, duration=0.1, factor=0.5, server=1),
        DatabaseOverload(start=0.1, duration=0.1, factor=0.25),
    )
)


def section_5_1(miss_ratio: float, seed: int, n_requests: int) -> Scenario:
    return Scenario.paper_section_5_1().replace(
        miss_ratio=miss_ratio,
        seed=seed,
        n_requests=n_requests,
        warmup_requests=n_requests // 10,
    )


def capacity_scenario(miss_ratio: float) -> Scenario:
    return Scenario(
        key_rate=40_000.0,
        n_servers=4,
        service_rate=80_000.0,
        n_keys=150,
        network_delay=20e-6,
        miss_ratio=miss_ratio,
        database_rate=1_000.0,
        n_requests=CAPACITY_REQUESTS,
        seed=7,
    )


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def run_section_5_1(miss_ratio: float, **options):
    """One seeded §5.1 fastpath-system run with a timeline."""
    scenario = section_5_1(miss_ratio, seed=51, n_requests=300)
    return simulate_system_requests(
        scenario.cluster().shares,
        scenario.service_rate,
        n_keys=scenario.n_keys,
        request_rate=scenario.request_rate(),
        n_requests=scenario.n_requests,
        warmup_requests=scenario.warmup_requests,
        rng=make_rng(scenario.seed),
        network_delay=scenario.network_delay,
        miss_ratio=scenario.miss_ratio,
        database_rate=scenario.database_rate,
        timeline=RUN_WINDOWS,
        **options,
    )


def run_fingerprint(miss_ratio: float) -> dict:
    """Bit-level fingerprint and window integrals of one §5.1 run."""
    sample = run_section_5_1(miss_ratio)
    timeline = sample.timeline
    stages = [timeline.stages[name] for name in timeline.stage_names]
    return {
        "samples": _digest(
            sample.column("total"),
            sample.column("server_max"),
            sample.column("db_max"),
        ),
        "utilizations": list(sample.server_utilizations),
        "counts": _digest(
            timeline.arrivals,
            timeline.completions,
            *[s.arrivals for s in stages],
            *[s.completions for s in stages],
        ),
        "latency": hashlib.sha256(
            json.dumps(
                [h.to_dict() for h in timeline.latency], sort_keys=True
            ).encode()
        ).hexdigest(),
        "stages": timeline.stage_names,
        "busy_time": [s.busy_time.tolist() for s in stages],
        "wait_time": [s.wait_time.tolist() for s in stages],
        "inflight_time": timeline.inflight_time.tolist(),
    }


def exact_overlap(starts, ends, edges) -> list:
    """Per-window overlap of ``[starts_i, ends_i)``, summed exactly."""
    ends = np.maximum(ends, starts)
    return [
        math.fsum(np.maximum(np.minimum(ends, b) - np.maximum(starts, a), 0.0))
        for a, b in zip(edges[:-1], edges[1:])
    ]


def captured_events(run, *args) -> tuple:
    """``run(*args)`` and the keyword arguments it handed to
    :meth:`Timeline.from_events`, with every stage's deferred job
    builder called to its ``(arrival, start, finish)`` arrays."""
    build = Timeline.from_events
    events = {}

    def capture(**kwargs):
        events.update(kwargs, timeline=build(**kwargs))
        return events["timeline"]

    with mock.patch.object(Timeline, "from_events", capture):
        result = run(*args)
    events["stages"] = {
        name: jobs() for name, jobs in events["stages"].items()
    }
    return result, events


def record_run(miss_ratio: float) -> dict:
    """The run's fingerprint, with exact integrals of the jobs the
    backend handed to the timeline in place of its own float sums."""
    fingerprint, events = captured_events(run_fingerprint, miss_ratio)
    edges = events["timeline"].edges
    jobs = [events["stages"][name] for name in fingerprint["stages"]]
    fingerprint["busy_time"] = [
        exact_overlap(start, finish, edges) for _, start, finish in jobs
    ]
    fingerprint["wait_time"] = [
        exact_overlap(arrival, start, edges) for arrival, start, _ in jobs
    ]
    fingerprint["inflight_time"] = exact_overlap(
        events["request_born"], events["request_completed"], edges
    )
    return fingerprint


def capacity_fingerprint(miss_ratio: float) -> dict:
    """``max_rps`` and every probe's verdict for one seeded search."""
    result = find_capacity(
        capacity_scenario(miss_ratio),
        OBJECTIVE,
        max_requests=CAPACITY_REQUESTS,
    )
    return {
        "max_rps": result.max_rps,
        "probes": [[p.rps, p.passed, p.value] for p in result.probes],
    }


def stage_jobs_fingerprint(miss_ratio: float) -> dict:
    """sha256 of each stage's job arrays as the timeline received them."""
    _, events = captured_events(run_section_5_1, miss_ratio)
    return {
        name: _digest(*jobs) for name, jobs in sorted(events["stages"].items())
    }


def attribution_fingerprint() -> dict:
    """Every column and exact sum of one attributed §5.1 run."""
    attribution = run_section_5_1(
        ATTRIBUTION_MISS_RATIO, attribution=True
    ).attribution
    return {
        "count": attribution.count,
        "columns": _digest(
            attribution.request_id,
            attribution.born,
            attribution.completed,
            attribution.total,
            *[attribution.stages[name] for name in STAGES],
        ),
        "sums": [attribution.sums[name].hex() for name in STAGES],
        "sum_total": attribution.sum_total.hex(),
    }


def fault_fingerprint() -> dict:
    """Samples and utilizations of one §5.1 run under rate faults."""
    sample = run_section_5_1(FAULT_MISS_RATIO, faults=FAULTS)
    return {
        "samples": _digest(
            sample.column("total"),
            sample.column("server_max"),
            sample.column("db_max"),
        ),
        "utilizations": [u.hex() for u in sample.server_utilizations],
    }


def record() -> dict:
    return {
        "runs": {str(r): record_run(r) for r in RUN_MISS_RATIOS},
        "capacity": {
            str(r): capacity_fingerprint(r) for r in CAPACITY_MISS_RATIOS
        },
    }


def record_pins() -> dict:
    return {
        "stage_jobs": {
            str(r): stage_jobs_fingerprint(r) for r in RUN_MISS_RATIOS
        },
        "attribution": attribution_fingerprint(),
        "faults": fault_fingerprint(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def assert_run_matches(got: dict, expected: dict) -> None:
    """Counts and samples bit for bit; window integrals within rtol."""
    for key in ("samples", "utilizations", "counts", "latency", "stages"):
        assert got[key] == expected[key], key
    for key in ("busy_time", "wait_time", "inflight_time"):
        np.testing.assert_allclose(
            np.asarray(got[key]),
            np.asarray(expected[key]),
            rtol=BUSY_WAIT_RTOL,
            atol=0.0,
            err_msg=key,
        )


@pytest.mark.parametrize("miss_ratio", RUN_MISS_RATIOS)
def test_section_5_1_run_matches_golden(golden, miss_ratio):
    assert_run_matches(
        run_fingerprint(miss_ratio), golden["runs"][str(miss_ratio)]
    )


def test_record_run_matches_golden(golden):
    """The re-record path reproduces the stored golden: its exact job
    integrals fall within the file's own rtol of the recorded ones."""
    assert_run_matches(record_run(0.002), golden["runs"]["0.002"])


@pytest.mark.parametrize("miss_ratio", CAPACITY_MISS_RATIOS)
def test_capacity_cell_matches_golden(golden, miss_ratio):
    assert capacity_fingerprint(miss_ratio) == golden["capacity"][str(miss_ratio)]


@pytest.mark.parametrize("miss_ratio", RUN_MISS_RATIOS)
def test_stage_jobs_match_pins(pins, miss_ratio):
    assert stage_jobs_fingerprint(miss_ratio) == pins["stage_jobs"][
        str(miss_ratio)
    ]


def test_attribution_matches_pins(pins):
    assert attribution_fingerprint() == pins["attribution"]


def test_fault_run_matches_pins(pins):
    assert fault_fingerprint() == pins["faults"]


if __name__ == "__main__":
    import sys

    path, data = (
        (PINS_PATH, record_pins)
        if sys.argv[1:] == ["pins"]
        else (GOLDEN_PATH, record)
    )
    path.write_text(json.dumps(data(), indent=1) + "\n")
    print(f"wrote {path}")
