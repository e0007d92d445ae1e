"""Tests for run reports and the shared JSON serializer."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core import ClusterModel
from repro.errors import ConfigError
from repro.observability import (
    Observability,
    RunReport,
    json_dumps,
    recorder_summary,
    to_jsonable,
)
from repro.simulation import LatencyRecorder, MemcachedSystemSimulator
from repro.units import kps, msec, usec


def run_system(observability=None, n_requests=150):
    cluster = ClusterModel.balanced(2, kps(80))
    system = MemcachedSystemSimulator(
        cluster,
        n_keys_per_request=10,
        request_rate=200.0,
        network_delay=usec(20),
        miss_ratio=0.02,
        database_rate=1.0 / msec(1),
        seed=3,
        observability=observability,
    )
    return system.run(n_requests=n_requests, warmup_requests=20)


class TestToJsonable:
    def test_scalars_pass_through(self):
        assert to_jsonable(None) is None
        assert to_jsonable(True) is True
        assert to_jsonable(5) == 5
        assert to_jsonable(1.5) == 1.5
        assert to_jsonable("x") == "x"

    def test_nonfinite_floats_become_null(self):
        assert to_jsonable(math.inf) is None
        assert to_jsonable(math.nan) is None

    def test_numpy_scalars_and_arrays(self):
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_dataclasses_and_nested_containers(self):
        @dataclasses.dataclass
        class Point:
            x: float
            y: float

        payload = to_jsonable({"points": [Point(1.0, 2.0)], "tags": ("a",)})
        assert payload == {"points": [{"x": 1.0, "y": 2.0}], "tags": ["a"]}

    def test_to_dict_duck_typing(self):
        class Custom:
            def to_dict(self):
                return {"kind": "custom"}

        assert to_jsonable(Custom()) == {"kind": "custom"}

    def test_json_dumps_is_strict_json(self):
        text = json_dumps({"bad": math.inf, "ok": 1})
        assert json.loads(text) == {"bad": None, "ok": 1}


class TestRecorderSummary:
    def test_empty(self):
        assert recorder_summary(LatencyRecorder()) == {"count": 0}

    def test_keys_and_values(self):
        recorder = LatencyRecorder()
        recorder.record_many(np.arange(1, 101, dtype=float))
        summary = recorder_summary(recorder)
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] == pytest.approx(50.5, rel=0.02)
        for key in ("std", "p90", "p95", "p99"):
            assert key in summary


class TestRunReportRoundTrip:
    def test_serialize_load_identical_summary(self, tmp_path):
        obs = Observability(trace=True, metrics=True, profile=True)
        results = run_system(obs)
        report = RunReport.from_simulation(
            results, obs, config={"servers": 2, "seed": 3}
        )
        path = tmp_path / "run.json"
        report.save(path)
        loaded = RunReport.load(path)
        assert loaded.summary() == report.summary()
        assert loaded.to_dict() == report.to_dict()

    def test_report_contents(self):
        obs = Observability(trace=True, metrics=True, profile=True)
        results = run_system(obs)
        report = RunReport.from_simulation(results, obs)
        # Per-stage exact summaries.
        for stage in (
            "total", "server_stage", "database_stage",
            "network_stage", "per_key_server",
        ):
            assert stage in report.stages
        assert report.stages["total"]["count"] == results.total.count
        # Metrics snapshot includes the per-request stage histograms.
        assert "request.total" in report.metrics
        assert report.metrics["request.total"]["summary"]["count"] > 0
        # Profile and traces present.
        assert report.profile["events"] > 0
        assert 1 <= len(report.slowest) <= 10
        assert report.meta["traces_finished"] == results.requests_completed

    def test_slowest_spans_reconstruct(self):
        obs = Observability(trace=True, metrics=False, profile=False)
        results = run_system(obs)
        report = RunReport.from_simulation(results, obs)
        spans = report.slowest_spans()
        assert spans
        durations = [span.duration for span in spans]
        assert durations == sorted(durations, reverse=True)
        assert spans[0].name == "request"
        assert any(child.name == "key" for child in spans[0].children)

    def test_without_observability(self):
        results = run_system(None)
        report = RunReport.from_simulation(results)
        assert report.metrics == {}
        assert report.profile is None
        assert report.slowest == []
        assert report.stages["total"]["count"] == results.total.count

    def test_stage_rows_skip_empty_stages(self):
        report = RunReport(stages={"a": {"count": 0}, "b": {
            "count": 2, "mean": 1.0, "p50": 1.0, "p95": 1.5, "p99": 2.0,
        }})
        rows = report.stage_rows()
        assert len(rows) == 1
        assert rows[0][0] == "b"

    def test_from_json_rejects_wrong_kind(self):
        with pytest.raises(ConfigError):
            RunReport.from_json('{"kind": "other", "version": 1}')
        with pytest.raises(ConfigError):
            RunReport.from_json('{"kind": "repro-run-report", "version": 99}')
        with pytest.raises(ConfigError):
            RunReport.from_json("not json")

    def test_save_csv(self, tmp_path):
        obs = Observability(trace=False, metrics=True, profile=False)
        results = run_system(obs)
        report = RunReport.from_simulation(results, obs)
        path = tmp_path / "run.csv"
        report.save_csv(path)
        stamp = path.read_text().splitlines()[0]
        assert stamp.startswith("# provenance: ")
        assert "repro_version=" in stamp
        with open(path, newline="") as handle:
            handle.readline()  # skip the provenance comment
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        assert header == [
            "name", "kind", "count", "mean", "p50", "p95", "p99", "min", "max",
        ]
        names = [row[0] for row in body]
        assert "stage.total" in names
        assert any(row[1] == "histogram" for row in body)


class TestProvenance:
    def test_stamps_code_version(self):
        from repro.observability.report import provenance

        stamp = provenance()
        assert set(stamp) == {"repro_version", "git_sha"}
        assert stamp["repro_version"]
