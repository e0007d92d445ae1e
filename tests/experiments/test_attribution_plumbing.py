"""Attribution plumbing through Scenario / SimulationResult / the runner.

The provenance layer is opt-in at every level with one spelling:
``attribution=True`` (default sink), an ``int`` (reservoir size), or an
:class:`AttributionSink`. These tests pin the option's dispatch rules,
the JSON round trips that carry an :class:`AttributionSet` inside a
:class:`SimulationResult` and an experiment checkpoint, and that the
suite runner harvests attribution per cell.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.experiments import Grid, Scenario, Suite, run_suite
from repro.experiments.runner import CellResult
from repro.observability import Observability
from repro.observability.attribution import STAGES, AttributionSink
from repro.simulation.results import SimulationResult
from repro.units import usec


def scenario(**overrides):
    kwargs = dict(
        key_rate=30_000.0,
        burst_xi=0.0,
        concurrency_q=0.0,
        n_servers=2,
        service_rate=80_000.0,
        n_keys=4,
        network_delay=usec(20),
        miss_ratio=0.05,
        database_rate=60_000.0,
        seed=3,
        n_requests=300,
        warmup_requests=30,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestScenarioOption:
    @pytest.mark.parametrize("backend", ["simulate", "fastpath-system"])
    def test_spellings_agree(self, backend):
        sc = scenario()
        by_bool = sc.run(backend, attribution=True).attribution
        by_int = sc.run(backend, attribution=50_000).attribution
        by_sink = sc.run(
            backend, attribution=AttributionSink()
        ).attribution
        for attr in (by_bool, by_int, by_sink):
            assert attr is not None
            assert attr.count == sc.n_requests
        np.testing.assert_array_equal(by_bool.total, by_sink.total)

    @pytest.mark.parametrize("backend", ["simulate", "fastpath-system"])
    def test_off_by_default(self, backend):
        assert scenario().run(backend).attribution is None

    def test_int_bounds_reservoir(self):
        attr = scenario().run("simulate", attribution=64).attribution
        assert attr.count == 300
        assert attr.n_retained == 64

    def test_sink_added_to_bundle_uses_bundle_slowest_k(self):
        bundle = Observability(trace=False, metrics=False, slowest_k=3)
        result = scenario().simulate(observability=bundle, attribution=True)
        assert len(result.attribution.slowest) == 3

    @pytest.mark.parametrize("bad", ["yes", 2.5])
    def test_bundle_path_rejects_what_the_bundle_rejects(self, bad):
        with pytest.raises(TypeError):
            Observability(trace=False, metrics=False, attribution=bad)
        bundle = Observability(trace=False, metrics=False)
        with pytest.raises(TypeError):
            scenario().simulate(observability=bundle, attribution=bad)

    def test_combines_with_timeline(self):
        result = scenario().run(
            "fastpath-system", timeline=8, attribution=True
        )
        assert result.timeline is not None
        assert result.timeline.n_windows == 8
        assert result.attribution is not None

    def test_fastpath_system_rejects_unknown_options(self):
        with pytest.raises(ValidationError) as excinfo:
            scenario().run("fastpath-system", bogus=1)
        assert "attribution" in str(excinfo.value)

    def test_estimate_backend_takes_no_options(self):
        with pytest.raises(ValidationError) as excinfo:
            scenario().run("estimate", attribution=True)
        assert "simulate" in str(excinfo.value)


class TestResultRoundTrip:
    def test_simulation_result_json(self):
        result = scenario().run("simulate", attribution=True)
        clone = SimulationResult.from_dict(result.to_dict())
        assert clone.attribution is not None
        assert clone.attribution.count == result.attribution.count
        assert clone.attribution.sums == result.attribution.sums
        for name in STAGES:
            np.testing.assert_array_equal(
                clone.attribution.stages[name],
                result.attribution.stages[name],
            )

    def test_none_stays_none(self):
        result = scenario().run("simulate")
        clone = SimulationResult.from_dict(result.to_dict())
        assert clone.attribution is None


class TestRunnerHarvest:
    def test_cells_carry_attribution(self):
        suite = Suite(
            name="attribution-harvest",
            grid=Grid(scenario(), {"n": [1, 4]}),
            backend="fastpath-system",
            options={"attribution": True},
        )
        result = run_suite(suite)
        assert result.n_cells == 2
        for cell in result.cells:
            assert cell.ok, cell.error
            assert cell.attribution is not None
            assert cell.attribution.count == 300
            clone = CellResult.from_dict(cell.to_dict())
            assert clone.attribution.count == cell.attribution.count
            assert clone.attribution.sums == cell.attribution.sums
