"""The perfbench layer trace still applies to the code it traces.

``perfbench/layers.py`` wraps ``repro`` entry points by name, and
``LayerTrace.install()`` raises ``AttributeError`` for a name that no
longer exists. The benchmark's self test catches that only when it
runs; this test builds the same plan and applies it, so a deleted or
renamed entry point fails here too. It reads ``perfbench/`` and
changes nothing in it.
"""

import importlib.util
from pathlib import Path

from repro.simulation import server, system

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_plan_installs_and_uninstalls():
    trace, _stats = _load_layers().repro_trace()
    simulator = system.MemcachedSystemSimulator
    originals = {
        name: vars(simulator)[name]
        for name in ("_spawn_request", "_on_server_complete", "_finish_key")
    }
    finish = vars(server.ServerSim)["_finish"]
    try:
        trace.install()
        assert vars(server.ServerSim)["_finish"] is not finish
    finally:
        trace.uninstall()
    assert vars(server.ServerSim)["_finish"] is finish
    for name, original in originals.items():
        assert vars(simulator)[name] is original
