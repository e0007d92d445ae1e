"""Snapshot of the stable public API surface.

Two locks on ``repro.__all__``:

1. A frozen in-test snapshot. Adding or removing a top-level export
   fails here until the snapshot is updated — making every surface
   change an explicit, reviewable diff.
2. The README "Public API" table. The documented surface must equal the
   exported surface, so the docs cannot silently drift.

To change the public API: update ``src/repro/__init__.py``, the
``EXPECTED`` tuple below, and the README table in the same change.
"""

import re
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parent.parent / "README.md"

#: The stable surface. Keep sorted; keep in sync with the README table.
EXPECTED = (
    "AdvisorReport",
    "AlertWindow",
    "BurnRateRule",
    "CacheCapacityError",
    "CacheError",
    "CapacityCurve",
    "CapacityObjective",
    "CapacityProbe",
    "CapacityResult",
    "ClusterModel",
    "ConfigError",
    "ConvergenceError",
    "DatabaseOverload",
    "DatabaseStage",
    "Deterministic",
    "Distribution",
    "ExperimentRunner",
    "Exponential",
    "FaultSchedule",
    "FaultWindow",
    "GIM1Queue",
    "GIXM1Queue",
    "GeneralizedPareto",
    "Grid",
    "Histogram",
    "LatencyEstimate",
    "LatencyModel",
    "MG1Queue",
    "MM1Queue",
    "MemcachedSystemSimulator",
    "MetricsRegistry",
    "NetworkStage",
    "Observability",
    "ProtocolError",
    "Recommendation",
    "ReproError",
    "RequestPolicy",
    "RequestRecord",
    "RunReport",
    "SLOMonitor",
    "SLORule",
    "Scenario",
    "ServerPause",
    "ServerSlowdown",
    "ServerStage",
    "ServerStageEstimate",
    "Severity",
    "ShareShift",
    "SimulationError",
    "SimulationResult",
    "Simulator",
    "StabilityError",
    "StageStats",
    "Suite",
    "SuiteResult",
    "Timeline",
    "Tracer",
    "TrajectoryPoint",
    "ValidationError",
    "WorkloadPattern",
    "Zipf",
    "__version__",
    "advise",
    "backend_options",
    "capacity_curve",
    "cliff_utilization",
    "delta_for_utilization",
    "detection_scores",
    "find_capacity",
    "hedge_delay_from_quantile",
    "run_suite",
    "sweep_suite",
    "trajectory",
    "window_effect",
)


def readme_api_names():
    """Backticked names in the first column of the README API table."""
    text = README.read_text()
    match = re.search(r"^## Public API\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README has no '## Public API' section"
    names = re.findall(r"^\| `([^`]+)` \|", match.group(1), re.M)
    assert names, "README Public API section has no table rows"
    return names


class TestPublicSurface:
    def test_all_matches_frozen_snapshot(self):
        assert tuple(repro.__all__) == EXPECTED, (
            "repro.__all__ changed. If intentional, update EXPECTED in "
            "this test AND the README 'Public API' table."
        )

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    def test_every_export_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_star_import_exposes_exactly_all(self):
        namespace = {}
        exec("from repro import *", namespace)  # noqa: S102
        exported = {k for k in namespace if not k.startswith("__")}
        public = {n for n in repro.__all__ if not n.startswith("__")}
        assert exported == public


class TestReadmeTable:
    def test_readme_table_matches_all(self):
        documented = readme_api_names()
        assert sorted(documented) == sorted(repro.__all__), (
            "README 'Public API' table is out of sync with repro.__all__. "
            "Every surface change must update both."
        )

    def test_readme_table_sorted(self):
        documented = readme_api_names()
        assert documented == sorted(documented)

    def test_readme_rows_have_descriptions(self):
        text = README.read_text()
        match = re.search(r"^## Public API\n(.*?)(?=^## )", text, re.M | re.S)
        rows = re.findall(r"^\| `[^`]+` \| (.+) \|$", match.group(1), re.M)
        assert len(rows) == len(readme_api_names())
        assert all(desc.strip() for desc in rows)


class TestFacadeBehavior:
    def test_key_types_resolve_to_canonical_modules(self):
        assert repro.Scenario.__module__.startswith("repro.experiments")
        assert repro.FaultSchedule.__module__.startswith("repro.faults")
        assert repro.RequestPolicy.__module__.startswith("repro.policies")
        assert repro.SimulationResult.__module__.startswith("repro.simulation")

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.DoesNotExist
