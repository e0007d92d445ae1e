"""Fingerprints of seeded engine runs, shared by the pin modules.

A pin holds exact values: sha256 digests of float64 bytes and of
sorted-key JSON, and floats as ``float.hex``. A module whose recorded
value is made another way keeps its own helper, so that no pin file is
re-recorded to fit this one.
"""

import hashlib
import json

import numpy as np
import pytest

#: Timeline windows of the observed pins.
WINDOWS = 8


def sha(*arrays) -> str:
    """sha256 of the arrays' float64 bytes, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()


def json_sha(payload) -> str:
    """sha256 of ``payload`` as sorted-key JSON."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def hex_or_none(value):
    return None if value is None else float(value).hex()


def spans_digest(spans) -> str:
    return json_sha([span.to_dict() for span in spans])


def stage_digests(timeline) -> dict:
    """One digest per timeline stage of its four series."""
    return {
        name: sha(series.arrivals, series.completions, series.busy_time,
                  series.wait_time)
        for name, series in sorted(timeline.stages.items())
    }


def result_fingerprint(results) -> dict:
    """The record, the ``per_key_server`` samples, the utilizations and
    the key and miss counts of one run."""
    return {
        "record": sha(results.record),
        "per_key_server": sha(results.per_key_server.samples()),
        "server_utilizations": [u.hex() for u in results.server_utilizations],
        "keys_processed": results.keys_processed,
        "misses": results.misses,
    }


def observed_fingerprint(results) -> dict:
    """:func:`result_fingerprint` with the stage series, the queue
    histograms and (with a tracer) the span trees."""
    observability = results.observability
    registry = observability.registry
    histograms = {
        name: json_sha(registry.get(name).to_dict())
        for name in sorted(registry.names())
        if name.startswith(("server-", "database.", "key."))
    }
    out = dict(
        result_fingerprint(results),
        stages=stage_digests(results.timeline),
        histograms=histograms,
    )
    tracer = observability.tracer
    if tracer is not None:
        out["recent_spans"] = spans_digest(tracer.recent())
        out["slowest_spans"] = spans_digest(tracer.slowest())
    return out


def pins_fixture(path):
    """A module-scoped fixture of the pins recorded at ``path``."""

    @pytest.fixture(scope="module")
    def pins() -> dict:
        return json.loads(path.read_text())

    return pins


def write_pins(path, record: dict) -> None:
    """Record ``record`` at ``path``, as every pin file is written."""
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
