"""Exact pins of the engine's Bernoulli miss stream across uniform windows.

Without a cache backend a served key misses when its uniform from the
simulator's miss stream is below ``r``; the stream is drawn a window of
:data:`~repro.distributions.DEFAULT_RNG_WINDOW` values at a time. The
determinism goldens process at most 11 000 keys, under three windows,
and only at ``r = 0.02``. These runs each process more than three
windows' worth of keys, at ``r`` = 0.3 and 1 and at the edges 0 and
5e-324 (the smallest subnormal: only an exact 0.0 uniform misses), on
the shared-payload path, the traced per-key-context path and a hedging
policy. Each pin is the sha256 of the per-request record bytes and the
``per_key_server`` samples, with ``keys_processed`` and ``misses``.
They were recorded on the code that drew one uniform per served key.
``test_misses_are_the_uniforms_below_r`` checks the same rule against
the miss stream itself, redrawn outside the simulator.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src:. python tests/simulation/test_miss_stream_pins.py``.
"""

from pathlib import Path

import pytest

import numpy as np

from repro.distributions import DEFAULT_RNG_WINDOW, make_rng, split_rng
from repro.observability import Observability
from repro.policies import RequestPolicy
from repro.units import msec, usec

from tests.simulation.fingerprint import pins_fixture, sha, write_pins
from tests.simulation.test_determinism import run_case

PINS_PATH = Path(__file__).with_name("miss_stream_pins.json")

#: 680 requests of 20 keys: 13 600 served keys, past three windows.
_BASE = dict(
    n_keys_per_request=20,
    n_requests=650,
    warmup_requests=30,
    database_rate=1.0 / usec(100),
    seed=24,
)

CASES = {
    "r0.3": dict(miss_ratio=0.3),
    "r1": dict(miss_ratio=1.0),
    "r0": dict(miss_ratio=0.0),
    "r5e-324": dict(miss_ratio=5e-324),
    "r0.3-traced": dict(miss_ratio=0.3, traced=True),
    "r0.3-hedge": dict(
        miss_ratio=0.3,
        policy=RequestPolicy(hedge_delay=msec(2), cancel_on_winner=True),
    ),
}


def pin(case: str) -> dict:
    """Record digest and key/miss counts of one seeded case."""
    overrides = dict(_BASE, **CASES[case])
    if overrides.pop("traced", False):
        overrides["observability"] = Observability(trace=True, metrics=False)
    results = run_case(overrides)
    return {
        "digest": sha(results.record, results.per_key_server.samples()),
        "keys_processed": results.keys_processed,
        "misses": results.misses,
    }


pins = pins_fixture(PINS_PATH)


@pytest.mark.parametrize("case", sorted(CASES))
def test_miss_stream_matches_pins(pins, case):
    got = pin(case)
    assert got["keys_processed"] > 3 * DEFAULT_RNG_WINDOW
    assert got == pins[case]


@pytest.mark.parametrize("miss_ratio", [0.0, 5e-324, 0.01, 0.3, 1.0])
def test_misses_are_the_uniforms_below_r(miss_ratio):
    """The k-th served key misses exactly when the k-th uniform of the
    miss stream (the fourth split child of the seed) is below r."""
    results = run_case(dict(_BASE, n_requests=240, miss_ratio=miss_ratio))
    keys = results.keys_processed
    assert keys > DEFAULT_RNG_WINDOW
    rng_miss = split_rng(make_rng(_BASE["seed"]), 7)[3]
    uniforms = rng_miss.random(keys)
    assert results.misses == int(np.count_nonzero(uniforms < miss_ratio))


if __name__ == "__main__":
    write_pins(PINS_PATH, {case: pin(case) for case in sorted(CASES)})
