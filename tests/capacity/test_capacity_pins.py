"""Exact pins of ``capacity-sweep``-shaped capacity cells.

``fastpath_system_golden.json`` holds two seeded searches at 2000
requests per probe. ``capacity_pins.json`` holds one cell per miss ratio
of the perfbench ``capacity-sweep`` workload: ``capacity_curve(...,
workers=1)`` on the 4-server, N = 150 cluster at p99 <= 20 ms, with
4000-request probes that never escalate. Each pin is the sha256 of the
cell's probe trace: every probe's rps, value, confidence interval,
status, SLO attainment and alert count, then the cell's ``max_rps``.
A probe pass of this size spans many chunks of every server's random
stream, so a change in how the pass draws is seen here.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src python tests/capacity/test_capacity_pins.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.capacity import CapacityObjective, capacity_curve
from repro.experiments import Scenario

PINS_PATH = Path(__file__).with_name("capacity_pins.json")

MISS_RATIOS = (0.0025, 0.005, 0.01, 0.02)
PROBE_REQUESTS = 4000
OBJECTIVE = CapacityObjective(threshold=0.020, metric="p99")
CLUSTER = Scenario(
    key_rate=40_000.0,
    n_servers=4,
    service_rate=80_000.0,
    n_keys=150,
    network_delay=20e-6,
    miss_ratio=0.002,
    database_rate=1_000.0,
    seed=27,
)


def capacity_trace(miss_ratio: float) -> list:
    """The probe trace and ``max_rps`` of one seeded capacity cell."""
    curve = capacity_curve(
        CLUSTER,
        OBJECTIVE,
        "r",
        [miss_ratio],
        workers=1,
        n_requests=PROBE_REQUESTS,
        max_requests=PROBE_REQUESTS,
    )
    cell = curve.suite.cells[0]
    assert cell.error is None, cell.error
    capacity = cell.capacity
    probes = [
        [
            p.rps,
            p.value,
            p.ci_low,
            p.ci_high,
            p.status,
            p.attainment,
            p.n_alerts,
        ]
        for p in capacity.probes
    ]
    return [probes, capacity.max_rps]


def trace_digest(miss_ratio: float) -> str:
    text = json.dumps(capacity_trace(miss_ratio))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("miss_ratio", MISS_RATIOS)
def test_capacity_cell_matches_pin(pins, miss_ratio):
    assert trace_digest(miss_ratio) == pins[str(miss_ratio)]


if __name__ == "__main__":
    PINS_PATH.write_text(
        json.dumps({str(r): trace_digest(r) for r in MISS_RATIOS}, indent=1)
        + "\n"
    )
    print(f"wrote {PINS_PATH}")
