"""StageStats / SimulationResult: the typed simulation result shape."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import Scenario
from repro.faults import RequestRecord, trajectory
from repro.observability import RunReport
from repro.observability.attribution import RECORD_FIELDS
from repro.simulation import (
    LatencyRecorder,
    SimulationResult,
    StageStats,
    SystemResults,
)


def stats_from(values):
    return StageStats.from_samples(np.asarray(values, dtype=float))


class TestStageStats:
    def test_from_samples_basic(self):
        stats = stats_from([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.ci_low < stats.mean < stats.ci_high

    def test_quantiles_are_ordered(self):
        stats = stats_from(np.linspace(0.0, 1.0, 1000))
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum

    def test_empty(self):
        assert stats_from([]).count == 0
        assert StageStats.empty().mean == 0.0

    def test_single_sample_ci_collapses_to_mean(self):
        stats = stats_from([2.0])
        assert stats.ci == (2.0, 2.0)

    def test_matches_recorder(self):
        recorder = LatencyRecorder()
        recorder.record_many(np.array([1.0, 2.0, 3.0]))
        assert StageStats.from_recorder(recorder) == stats_from([1.0, 2.0, 3.0])

    def test_dict_round_trip(self):
        stats = stats_from([1.0, 5.0, 9.0])
        assert StageStats.from_dict(stats.to_dict()) == stats

    def test_from_dict_missing_key(self):
        with pytest.raises(ConfigError):
            StageStats.from_dict({"count": 1})

    @pytest.mark.parametrize("d", [20e-6, 1e-4 / 3, 0.1])
    @pytest.mark.parametrize("n", [3, 7, 300, 4000])
    def test_constant_column_is_exact(self, d, n):
        # Every request pays the round trip 2d: its summary is 2d itself,
        # with no spread, however the mean of n copies rounds.
        value = 2 * d
        stats = stats_from(np.full(n, value))
        assert (stats.mean, stats.std) == (value, 0.0)
        assert stats.ci == (value, value)
        assert (stats.p50, stats.p95, stats.p99) == (value, value, value)
        assert (stats.minimum, stats.maximum) == (value, value)


class TestSimulationResult:
    def make(self):
        return SimulationResult(
            n_keys=10,
            n_requests=3,
            total=stats_from([3.0, 4.0, 5.0]),
            server=stats_from([1.0, 2.0, 3.0]),
            database=stats_from([0.0, 0.0, 1.0]),
            network=stats_from([0.5, 0.5, 0.5]),
            measured_miss_ratio=0.02,
            server_utilizations=(0.5, 0.6),
        )

    def test_estimate_compatible_accessors(self):
        result = self.make()
        assert result.mean == result.total.mean
        assert result.p95 == result.total.p95
        assert result.p99 == result.total.p99

    def test_breakdown_matches_estimate_keys(self):
        assert set(self.make().breakdown()) == {"network", "servers", "database"}

    def test_stage_lookup(self):
        result = self.make()
        assert result.stage("server") is result.server
        with pytest.raises(ConfigError):
            result.stage("bogus")

    def test_json_round_trip(self):
        result = self.make()
        payload = json.loads(json.dumps(result.to_dict()))
        assert SimulationResult.from_dict(payload) == result

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ConfigError):
            SimulationResult.from_dict("nope")


class TestSystemResults:
    """Both whole-system backends return one SystemResults, built from
    the per-request record."""

    SCENARIO = Scenario(
        key_rate=40_000.0,
        n_servers=4,
        n_keys=20,
        network_delay=20e-6,
        miss_ratio=0.01,
        database_rate=5_000.0,
        n_requests=300,
        warmup_requests=30,
        seed=3,
    )

    @pytest.fixture(params=["simulate", "fastpath-system"], scope="class")
    def result(self, request):
        return self.SCENARIO.run(request.param, timeline=4, attribution=True)

    def test_raw_is_the_record(self, result):
        raw = result.raw
        assert isinstance(raw, SystemResults)
        assert raw.record.shape == (self.SCENARIO.n_requests, len(RECORD_FIELDS))
        assert raw.requests_completed == result.n_requests

    def test_completion_order(self, result):
        completed = result.raw.column("completed")
        assert np.all(completed[1:] >= completed[:-1])

    def test_network_is_constant(self, result):
        round_trip = 2 * self.SCENARIO.network_delay
        assert np.all(result.raw.column("network") == round_trip)
        assert (result.network.mean, result.network.std) == (round_trip, 0.0)

    def test_request_log(self, result):
        log = result.raw.request_log
        assert len(log) == self.SCENARIO.n_requests
        assert all(isinstance(r, RequestRecord) for r in log)
        assert [r.total for r in log] == result.raw.column("total").tolist()
        points = trajectory(log, n_buckets=4)
        assert sum(p.count for p in points) == len(log)

    def test_run_report(self, result):
        report = RunReport.from_simulation(result.raw)
        assert report.stages["total"]["count"] == self.SCENARIO.n_requests
        assert report.meta["requests_completed"] == self.SCENARIO.n_requests

    def test_from_system_is_the_run(self, result):
        again = SimulationResult.from_system(result.raw, n_keys=self.SCENARIO.n_keys)
        assert again == result
        assert again.to_dict() == result.to_dict()
