"""Smoke tests for the profiling scripts under ``benchmarks/``.

CI runs ``benchmarks/profile_engine.py --quick`` and
``benchmarks/bench_speed_backends.py --quick``; these calls run the
same code paths at tiny sizes so a signature change in the benchmark
helpers they import fails tier-1 instead of the CI step.
"""

from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture
def profile_engine(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    import profile_engine

    return profile_engine


def test_profile_cprofile_tiny(profile_engine, capsys):
    profile_engine.profile_cprofile(n_requests=20, n_events=2_000)
    out = capsys.readouterr().out
    assert "cProfile: closed loop (20 requests)" in out
    assert "cProfile: raw dispatch (2000 events)" in out
    assert "per generated key (440 keys): " in out
    assert " Python calls, " in out and " heap operations (" in out


def test_profile_prints_engine_events_per_key(profile_engine, capsys):
    events = profile_engine.profile_categories(n_requests=20)
    profile_engine.profile_cprofile(n_requests=20, n_events=2_000, engine_events=events)
    out = capsys.readouterr().out
    assert f"per generated key (440 keys): {events / 440:.3f} engine events, " in out
    assert f"per generated request (22 requests): {events / 22:.2f} engine events" in out


def test_profile_categories_tiny(profile_engine, capsys):
    profile_engine.profile_categories(n_requests=20)
    out = capsys.readouterr().out
    assert "Engine profile by callback category" in out
    assert "events/s" in out


def test_capacity_row_tiny(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    import bench_speed_backends

    row = bench_speed_backends.measure_capacity(n_requests=100, repeats=1)
    assert row["probe_requests"] == 100
    assert row["n_probes"] >= 2
    assert row["wall_s_per_probe"] > 0.0
    assert row["minflt_per_probe"] >= 0.0
    assert row["max_rps"] > 0.0


def test_startup_row_tiny(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    import bench_speed_backends

    row = bench_speed_backends.measure_startup(n_requests=20, repeats=1)
    assert row["simulate_requests"] == 20 and row["repeats"] == 1
    for name in ("import", "simulate"):
        assert row[f"{name}_wall_s"] > 0.0
        assert row[f"{name}_peak_rss_mb"] > 0.0
