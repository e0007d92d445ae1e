"""Exact pins of 4000-request ``fastpath-system`` runs.

The pins in ``fastpath_system_pins.json`` and
``fastpath_system_result_pins.json`` come from 300-request runs, in
which each server's pass draws about 16 k keys. Capacity probes run at
4000 requests, where each server draws about 190 k service times and
miss uniforms. ``fastpath_system_pass_pins.json`` pins the sha256 of
``Scenario.run("fastpath-system", timeline=24).to_dict()`` (without the
timeline's ``provenance``, which names the code version) for the paper
§5.1 scenario at that size:

* r = 0, where no uniform is drawn;
* r = 0.25%, a lightly loaded database;
* r = 5e-324, the smallest miss ratio, where a miss almost never
  happens but every key still draws its uniform;
* r = 1 with a database fast enough to stay stable, where every key
  misses;
* r = 0.2% under the rate-fault schedule of
  ``test_fastpath_system_golden.py``.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src:. python tests/simulation/test_fastpath_system_pass_pins.py``.
"""

from pathlib import Path

import pytest

from repro.simulation import fastpath_system
from tests.simulation.fingerprint import json_sha, pins_fixture, write_pins
from tests.simulation.test_fastpath_system_golden import (
    FAULT_MISS_RATIO,
    FAULTS,
    section_5_1,
)

PINS_PATH = Path(__file__).with_name("fastpath_system_pass_pins.json")

N_REQUESTS = 4000
N_WINDOWS = 24
#: Per case: the miss ratio and any further scenario changes.
CASES = {
    "r=0": (0.0, {}),
    "r=0.0025": (0.0025, {}),
    "r=5e-324": (5e-324, {}),
    "r=1,fast-db": (1.0, {"database_rate": 1e6}),
    "faults": (FAULT_MISS_RATIO, {"faults": FAULTS}),
}


def case_scenario(case: str):
    miss_ratio, changes = CASES[case]
    return section_5_1(miss_ratio, seed=51, n_requests=N_REQUESTS).replace(
        **changes
    )


def result_digest(case: str) -> str:
    """sha256 of the run's ``to_dict()``, minus the timeline provenance."""
    payload = (
        case_scenario(case).run("fastpath-system", timeline=N_WINDOWS).to_dict()
    )
    del payload["timeline"]["provenance"]
    return json_sha(payload)


pins = pins_fixture(PINS_PATH)


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_matches_pin(pins, case):
    assert result_digest(case) == pins[case]


@pytest.mark.parametrize(
    "case", sorted(case for case, (r, _) in CASES.items() if r > 0.0)
)
def test_every_stream_spans_chunks_and_ends_mid_chunk(monkeypatch, case):
    """The pins cover chunk boundaries: each server draws several
    uniform chunks, and its last chunk is a partial one."""
    streams = []
    miss_keys = fastpath_system._miss_keys

    def recording(rng, n, miss_ratio, buffer):
        streams.append(n)
        return miss_keys(rng, n, miss_ratio, buffer)

    monkeypatch.setattr(fastpath_system, "_miss_keys", recording)
    scenario = case_scenario(case)
    scenario.run("fastpath-system")
    chunk = fastpath_system._UNIFORM_CHUNK
    assert len(streams) == scenario.n_servers
    assert all(n > 3 * chunk and n % chunk for n in streams)


if __name__ == "__main__":
    write_pins(PINS_PATH, {case: result_digest(case) for case in sorted(CASES)})
