"""The import graph: a flow loads only the scipy submodules it calls.

``scipy.stats`` alone costs about a second and 50 MB to import, and
``import repro`` needs none of it: the two quantiles every run reads come
from their ``scipy.special`` kernels, and ``stats``/``optimize``/
``integrate`` are imported inside the functions that call them. pytest
itself loads scipy, so the check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate")

_SCRIPT = """
import contextlib, io, json, sys
HEAVY = {heavy!r}

def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)

out = {{}}
import repro, repro.cli
out["import"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    repro.cli.main(["simulate", "--requests", "100"])
out["simulate"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    repro.cli.main(["estimate"])
out["estimate"] = loaded()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def loaded_after() -> dict:
    """The heavy scipy submodules loaded after each step of one fresh
    process: ``import repro, repro.cli``, then a 100-request
    ``simulate``, then ``estimate``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(heavy=HEAVY)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_heavy_scipy(loaded_after):
    assert loaded_after["import"] == []


def test_simulate_loads_no_heavy_scipy(loaded_after):
    assert loaded_after["simulate"] == []


def test_estimate_loads_optimize_not_stats(loaded_after):
    assert loaded_after["estimate"] == ["scipy.optimize"]
