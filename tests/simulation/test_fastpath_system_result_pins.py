"""Exact pins of whole ``fastpath-system`` results.

``fastpath_system_golden.json`` and ``fastpath_system_pins.json`` hold
the per-request samples, the timeline's windows and stage jobs, and the
attribution columns, but not the bytes of the summaries built from them:
the four ``StageStats`` (moments, confidence intervals, quantiles), the
measured miss ratio, the utilizations and the serialized timeline and
attribution set. ``fastpath_system_result_pins.json`` pins the sha256 of
``Scenario.run("fastpath-system", timeline=4, attribution=True).to_dict()``
(without the timeline's ``provenance``, which names the code version)
for the paper §5.1 scenario at r = 0.2%, with and without the rate-fault
schedule of ``test_fastpath_system_golden.py``. They were recorded on
the code before both whole-system backends returned one result type.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src:. python tests/simulation/test_fastpath_system_result_pins.py``.
"""

from pathlib import Path

import pytest

from tests.simulation.fingerprint import json_sha, pins_fixture, write_pins
from tests.simulation.test_fastpath_system_golden import (
    FAULT_MISS_RATIO,
    FAULTS,
    section_5_1,
)

PINS_PATH = Path(__file__).with_name("fastpath_system_result_pins.json")

#: The pinned runs: the §5.1 scenario, fault-free and under FAULTS.
CASES = {
    "plain": {},
    "faults": {"faults": FAULTS},
}


def result_digest(case: str) -> str:
    """sha256 of the run's ``to_dict()``, minus the timeline provenance."""
    scenario = section_5_1(FAULT_MISS_RATIO, seed=51, n_requests=300).replace(
        **CASES[case]
    )
    payload = scenario.run(
        "fastpath-system", timeline=4, attribution=True
    ).to_dict()
    del payload["timeline"]["provenance"]
    return json_sha(payload)


pins = pins_fixture(PINS_PATH)


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_matches_pin(pins, case):
    assert result_digest(case) == pins[case]


if __name__ == "__main__":
    write_pins(PINS_PATH, {case: result_digest(case) for case in sorted(CASES)})
