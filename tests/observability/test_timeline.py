"""Tests for the windowed time-series telemetry layer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ValidationError
from repro.observability import Timeline
from repro.observability.timeline import (
    DEFAULT_WINDOWS,
    StageSeries,
    TimelineBuilder,
    TimelineSpec,
    _counts,
    time_in_windows,
)


class TestTimelineSpec:
    def test_coerce_off(self):
        assert TimelineSpec.coerce(None) is None
        assert TimelineSpec.coerce(False) is None

    def test_coerce_defaults(self):
        spec = TimelineSpec.coerce(True)
        assert spec == TimelineSpec()
        assert spec.window is None and spec.n_windows is None

    def test_coerce_int_is_count_float_is_width(self):
        assert TimelineSpec.coerce(12).n_windows == 12
        assert TimelineSpec.coerce(0.5).window == 0.5

    def test_coerce_passthrough_and_rejects(self):
        spec = TimelineSpec(n_windows=7)
        assert TimelineSpec.coerce(spec) is spec
        with pytest.raises(ValidationError):
            TimelineSpec.coerce("60")

    def test_rejects_both_and_invalid(self):
        with pytest.raises(ValidationError):
            TimelineSpec(window=1.0, n_windows=5)
        with pytest.raises(ValidationError):
            TimelineSpec(window=0.0)
        with pytest.raises(ValidationError):
            TimelineSpec(n_windows=0)


class TestTimeInWindows:
    def test_exact_overlap_accounting(self):
        # One interval [1, 3) over windows [0,2), [2,4): one second each.
        edges = np.array([0.0, 2.0, 4.0])
        overlap = time_in_windows(np.array([1.0]), np.array([3.0]), edges)
        assert overlap == pytest.approx([1.0, 1.0])

    def test_matches_bruteforce_on_random_intervals(self):
        rng = np.random.default_rng(5)
        starts = rng.uniform(0.0, 10.0, 200)
        ends = starts + rng.exponential(1.0, 200)
        edges = np.linspace(0.0, 12.0, 9)
        fast = time_in_windows(starts, ends, edges)
        brute = np.array(
            [
                np.sum(
                    np.maximum(
                        np.minimum(ends, edges[k + 1])
                        - np.maximum(starts, edges[k]),
                        0.0,
                    )
                )
                for k in range(edges.size - 1)
            ]
        )
        np.testing.assert_allclose(fast, brute, rtol=1e-10)

    def test_total_time_is_conserved_inside_span(self):
        rng = np.random.default_rng(6)
        starts = rng.uniform(2.0, 8.0, 100)
        ends = starts + rng.uniform(0.0, 1.0, 100)
        edges = np.linspace(0.0, 10.0, 21)
        total = time_in_windows(starts, ends, edges).sum()
        assert total == pytest.approx(float(np.sum(ends - starts)))


def toy_timeline(n=400, seed=3, spec=None):
    rng = np.random.default_rng(seed)
    born = np.sort(rng.uniform(0.0, 10.0, n))
    completed = born + rng.exponential(0.05, n)
    return Timeline.from_events(
        start=0.0,
        end=10.0,
        request_born=born,
        request_completed=completed,
        stages={"server.0": (born, born, completed)},
        spec=spec or TimelineSpec(n_windows=10),
        meta={"backend": "test"},
    )


class TestFromEvents:
    def test_counts_and_geometry(self):
        timeline = toy_timeline()
        assert timeline.n_windows == 10
        assert timeline.window == pytest.approx(1.0)
        assert float(timeline.arrivals.sum()) == 400
        assert len(timeline.latency) == 10
        assert timeline.stage_names == ["server.0"]
        assert timeline.meta["backend"] == "test"

    def test_default_window_count(self):
        timeline = toy_timeline(spec=TimelineSpec())
        assert timeline.n_windows == DEFAULT_WINDOWS

    def test_width_spec_covers_span(self):
        timeline = toy_timeline(spec=TimelineSpec(window=3.0))
        assert timeline.n_windows == 4  # ceil(10 / 3)
        assert timeline.edges[-1] >= 10.0

    def test_latency_histograms_match_windowed_data(self):
        rng = np.random.default_rng(9)
        born = np.sort(rng.uniform(0.0, 10.0, 600))
        totals = rng.exponential(0.01, 600)
        timeline = Timeline.from_events(
            start=0.0,
            end=10.0,
            request_born=born,
            request_completed=born + totals,
            spec=TimelineSpec(n_windows=5),
        )
        completed = born + totals
        for k in range(5):
            in_window = (completed > k * 2.0) & (completed <= (k + 1) * 2.0)
            if k == 0:
                in_window |= completed == 0.0
            expected = int(in_window.sum())
            assert timeline.latency[k].count == expected
            if expected:
                assert timeline.latency[k].mean == pytest.approx(
                    float(totals[in_window].mean()), rel=1e-9
                )

    def test_completions_outside_span_dropped(self):
        timeline = Timeline.from_events(
            start=0.0,
            end=1.0,
            request_born=np.array([0.5, 0.6]),
            request_completed=np.array([0.9, 5.0]),
            spec=TimelineSpec(n_windows=2),
        )
        assert float(timeline.completions.sum()) == 1.0
        assert sum(h.count for h in timeline.latency) == 1

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValidationError):
            Timeline.from_events(
                start=0.0,
                end=1.0,
                request_born=np.zeros(3),
                request_completed=np.zeros(2),
            )


class TestDerivedSeries:
    def test_rates_and_occupancy(self):
        timeline = toy_timeline()
        np.testing.assert_allclose(
            timeline.arrival_rate(), timeline.arrivals / timeline.window
        )
        # Total inflight time equals the sum of in-span latencies.
        assert float(timeline.inflight_time.sum()) > 0.0

    def test_quantiles_and_bad_fraction_nan_on_empty_window(self):
        timeline = Timeline.from_events(
            start=0.0,
            end=2.0,
            request_born=np.array([0.1]),
            request_completed=np.array([0.2]),
            spec=TimelineSpec(n_windows=2),
        )
        p99 = timeline.quantile_series(0.99)
        assert math.isfinite(p99[0]) and math.isnan(p99[1])
        bad = timeline.bad_fraction(1e-9)
        assert bad[0] == pytest.approx(1.0) and math.isnan(bad[1])

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError):
            toy_timeline().utilization("database")

    def test_utilization_is_busy_fraction(self):
        # One job busy for the whole first of two 1s windows.
        timeline = Timeline.from_events(
            start=0.0,
            end=2.0,
            request_born=np.array([0.0]),
            request_completed=np.array([1.0]),
            stages={"s": (np.array([0.0]), np.array([0.0]), np.array([1.0]))},
            spec=TimelineSpec(n_windows=2),
        )
        np.testing.assert_allclose(
            timeline.utilization("s"), [1.0, 0.0], atol=1e-9
        )


class TestLittlesLaw:
    def test_stationary_poisson_consistency(self):
        rng = np.random.default_rng(12)
        born = np.sort(rng.uniform(0.0, 50.0, 20_000))
        completed = born + rng.exponential(0.02, 20_000)
        timeline = Timeline.from_events(
            start=0.0,
            end=50.0,
            request_born=born,
            request_completed=completed,
            spec=TimelineSpec(n_windows=10),
        )
        law = timeline.littles_law()
        assert law["n_valid"] == 10
        assert law["max_relative_error"] < 0.05

    def test_small_windows_excluded(self):
        timeline = Timeline.from_events(
            start=0.0,
            end=1.0,
            request_born=np.array([0.1, 0.6]),
            request_completed=np.array([0.2, 0.7]),
            spec=TimelineSpec(n_windows=2),
        )
        law = timeline.littles_law(min_count=10)
        assert law["n_valid"] == 0
        assert math.isnan(law["max_relative_error"])


class TestMerge:
    def test_merge_is_exact_aggregation(self):
        rng = np.random.default_rng(21)
        born = np.sort(rng.uniform(0.0, 10.0, 800))
        completed = born + rng.exponential(0.03, 800)
        spec = TimelineSpec(n_windows=8)

        def build(lo, hi):
            return Timeline.from_events(
                start=0.0,
                end=10.0,
                request_born=born[lo:hi],
                request_completed=completed[lo:hi],
                stages={
                    "server.0": (born[lo:hi], born[lo:hi], completed[lo:hi])
                },
                spec=spec,
            )

        whole = build(0, 800)
        half_a, half_b = build(0, 400), build(400, 800)
        half_a.merge(half_b)
        np.testing.assert_allclose(half_a.arrivals, whole.arrivals)
        np.testing.assert_allclose(half_a.completions, whole.completions)
        np.testing.assert_allclose(
            half_a.inflight_time, whole.inflight_time, rtol=1e-10
        )
        for merged, direct in zip(half_a.latency, whole.latency):
            assert merged.count == direct.count
            if direct.count:
                assert merged.mean == pytest.approx(direct.mean, rel=1e-12)
        np.testing.assert_allclose(
            half_a.stages["server.0"].busy_time,
            whole.stages["server.0"].busy_time,
            rtol=1e-10,
        )
        assert half_a.shards == 2

    def test_shard_normalized_utilization(self):
        jobs = (np.array([0.0]), np.array([0.0]), np.array([1.0]))
        spec = TimelineSpec(n_windows=1)

        def one():
            return Timeline.from_events(
                start=0.0,
                end=1.0,
                request_born=np.array([0.0]),
                request_completed=np.array([1.0]),
                stages={"s": jobs},
                spec=spec,
            )

        merged = one()
        merged.merge(one())
        # Two fully-busy replicas: per-replica utilization stays 1.0.
        assert merged.utilization("s")[0] == pytest.approx(1.0)
        # But occupancy (requests in flight) adds up.
        assert merged.occupancy()[0] == pytest.approx(2.0)

    def test_merge_rejects_mismatched_geometry(self):
        with pytest.raises(ValidationError):
            toy_timeline().merge(toy_timeline(spec=TimelineSpec(n_windows=5)))


class TestPersistence:
    def test_dict_round_trip(self):
        timeline = toy_timeline()
        clone = Timeline.from_dict(timeline.to_dict())
        np.testing.assert_allclose(clone.arrivals, timeline.arrivals)
        np.testing.assert_allclose(clone.completions, timeline.completions)
        np.testing.assert_allclose(clone.inflight_time, timeline.inflight_time)
        assert clone.stage_names == timeline.stage_names
        assert clone.meta == timeline.meta
        for a, b in zip(clone.latency, timeline.latency):
            assert a.to_dict() == b.to_dict()

    def test_payload_is_provenance_stamped(self):
        payload = toy_timeline().to_dict()
        assert payload["kind"] == "repro-timeline"
        assert "repro_version" in payload["provenance"]
        assert "git_sha" in payload["provenance"]

    def test_save_load(self, tmp_path):
        path = tmp_path / "timeline.json"
        timeline = toy_timeline()
        timeline.save(path)
        clone = Timeline.load(path)
        assert clone.summary() == timeline.summary()

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ConfigError):
            Timeline.from_dict({"kind": "something-else"})

    def test_csv_export(self, tmp_path):
        path = tmp_path / "timeline.csv"
        toy_timeline().to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 12  # provenance stamp + header + 10 windows
        assert lines[0].startswith("# provenance: ")
        assert "repro_version=" in lines[0]
        assert lines[1].startswith("window,t_start,t_end,arrivals")
        assert "util:server.0" in lines[1]


class TestBuilder:
    def test_builds_from_sinks(self):
        builder = TimelineBuilder(TimelineSpec(n_windows=4))
        server = builder.stage_sink("server.0")
        born = np.arange(40) * 0.1
        for t in born.tolist():
            server.append((t, t + 0.01, t + 0.05))
        timeline = builder.build(
            born=born,
            completed=born + 0.05,
            end=4.0,
            meta={"backend": "simulate"},
        )
        assert timeline.n_windows == 4
        assert float(timeline.completions.sum()) == 40.0
        assert timeline.stage_names == ["server.0"]
        assert float(timeline.stages["server.0"].completions.sum()) == 40.0
        assert timeline.meta["backend"] == "simulate"

    def test_reset_keeps_sink_references(self):
        builder = TimelineBuilder(TimelineSpec(n_windows=2))
        server = builder.stage_sink("server.0")
        server.append((0.0, 0.1, 0.5))
        builder.origin = 3.0
        builder.reset()
        assert builder.origin == 0.0
        server.append((0.2, 0.3, 0.4))  # old reference still records
        timeline = builder.build(
            born=np.array([0.2]), completed=np.array([0.4]), end=1.0
        )
        assert float(timeline.stages["server.0"].completions.sum()) == 1.0
        assert float(timeline.completions.sum()) == 1.0

    def test_origin_shifts_window_start(self):
        builder = TimelineBuilder(TimelineSpec(n_windows=2))
        builder.origin = 5.0
        timeline = builder.build(
            born=np.array([5.5]), completed=np.array([6.0]), end=7.0
        )
        assert timeline.start == 5.0
        assert timeline.edges[-1] == pytest.approx(7.0)

    def test_empty_run_builds_empty_timeline(self):
        builder = TimelineBuilder(TimelineSpec(n_windows=3))
        builder.stage_sink("server.0")
        timeline = builder.build(born=np.empty(0), completed=np.empty(0), end=1.0)
        assert float(timeline.arrivals.sum()) == 0.0
        assert timeline.stage_names == ["server.0"]


class TestStageSeries:
    def test_zeros_and_merge(self):
        series = StageSeries.zeros(3)
        other = StageSeries(
            arrivals=np.ones(3),
            completions=np.ones(3),
            busy_time=np.full(3, 0.5),
            wait_time=np.full(3, 0.25),
        )
        series.merge(other)
        np.testing.assert_allclose(series.busy_time, 0.5)
        clone = StageSeries.from_dict(series.to_dict())
        np.testing.assert_allclose(clone.wait_time, series.wait_time)

    def test_from_dict_missing_key(self):
        with pytest.raises(ConfigError):
            StageSeries.from_dict({"arrivals": [1.0]})


# ----------------------------------------------------------------------
# Window accounting properties. The accounting skips its sort when the
# input is already ordered, so inputs are drawn sorted, unsorted and
# nearly sorted (adjacent swaps, 1-ulp inversions), with points on the
# window edges, one ulp off them and outside the span.
# ----------------------------------------------------------------------

ARRANGEMENTS = ("sorted", "unsorted", "swapped", "ulp-inversion")


@st.composite
def window_edges(draw):
    """Edges built the way :attr:`Timeline.edges` builds them."""
    start = draw(st.floats(-100.0, 100.0))
    width = draw(st.floats(1e-3, 10.0))
    count = draw(st.integers(1, 8))
    return start + width * np.arange(count + 1)


@st.composite
def arranged_points(draw, edges, size):
    lo, hi = float(edges[0]), float(edges[-1])
    span = hi - lo
    on_edge = st.sampled_from(edges.tolist())
    value = st.one_of(
        st.floats(lo - span / 2, hi + span / 2),
        on_edge,
        on_edge.map(lambda e: float(np.nextafter(e, np.inf))),
        on_edge.map(lambda e: float(np.nextafter(e, -np.inf))),
    )
    points = np.array(
        draw(st.lists(value, min_size=size, max_size=size)), dtype=float
    )
    arrangement = draw(st.sampled_from(ARRANGEMENTS))
    if arrangement != "unsorted":
        points = np.sort(points)
    if points.size > 1 and arrangement == "swapped":
        for i in draw(st.lists(st.integers(0, points.size - 2), max_size=4)):
            points[[i, i + 1]] = points[[i + 1, i]]
    if points.size > 1 and arrangement == "ulp-inversion":
        i = draw(st.integers(0, points.size - 2))
        points[i + 1] = np.nextafter(points[i], -np.inf)
    return points


@st.composite
def windowed_points(draw, n_arrays=1):
    """``(edges, array, ...)``: equal-size arrays, empty and single
    element included."""
    edges = draw(window_edges())
    size = draw(st.integers(0, 24))
    arrays = [draw(arranged_points(edges, size)) for _ in range(n_arrays)]
    return (edges, *arrays)


def fsum_overlap(starts, ends, edges):
    """Brute-force per-window overlap, each window summed exactly."""
    ends = np.maximum(ends, starts)
    return np.array(
        [
            math.fsum(
                np.maximum(np.minimum(ends, b) - np.maximum(starts, a), 0.0)
            )
            for a, b in zip(edges[:-1], edges[1:])
        ]
    )


def assert_overlap_close(got, starts, ends, edges):
    exact = fsum_overlap(starts, ends, edges)
    # Absolute floor: a few roundings of n points at the data's scale.
    scale = max(np.abs(edges).max(), np.abs(starts).max(initial=0.0),
                np.abs(ends).max(initial=0.0))
    floor = 4.0 * np.finfo(float).eps * max(starts.size, 1) * scale
    assert np.all(np.abs(got - exact) <= 1e-9 * np.abs(exact) + floor), (
        got,
        exact,
    )


class TestWindowAccountingProperties:
    @settings(max_examples=100, deadline=None)
    @given(windowed_points())
    def test_counts_equal_numpy_histogram(self, drawn):
        edges, times = drawn
        expected, _ = np.histogram(times, bins=edges)
        np.testing.assert_array_equal(_counts(times, edges), expected)

    @settings(max_examples=50, deadline=None)
    @given(windowed_points(n_arrays=3))
    def test_stage_series_counts_equal_numpy_histogram(self, drawn):
        edges, arrival, start, finish = drawn
        series = StageSeries.from_jobs(arrival, start, finish, edges)
        np.testing.assert_array_equal(
            series.arrivals, np.histogram(arrival, bins=edges)[0]
        )
        np.testing.assert_array_equal(
            series.completions, np.histogram(finish, bins=edges)[0]
        )

    @settings(max_examples=100, deadline=None)
    @given(windowed_points(n_arrays=2))
    def test_time_in_windows_matches_fsum(self, drawn):
        edges, starts, ends = drawn
        got = time_in_windows(starts, ends, edges)
        assert_overlap_close(got, starts, ends, edges)

    @settings(max_examples=60, deadline=None)
    @given(
        windowed_points(),
        st.lists(st.floats(0.0, 5.0), min_size=24, max_size=24),
        st.lists(st.floats(0.0, 5.0), min_size=24, max_size=24),
    )
    def test_fifo_jobs_match_fsum(self, drawn, waits, services):
        """Ordered FIFO-shaped jobs, the fastpath-system input: busy and
        wait time both match the exact per-window integrals."""
        edges, arrival = drawn
        arrival = np.sort(arrival)
        start = arrival + np.asarray(waits[: arrival.size])
        finish = start + np.asarray(services[: arrival.size])
        series = StageSeries.from_jobs(arrival, start, finish, edges)
        assert_overlap_close(series.busy_time, start, finish, edges)
        assert_overlap_close(series.wait_time, arrival, start, edges)

    @settings(max_examples=40, deadline=None)
    @given(windowed_points(n_arrays=2))
    def test_latency_histograms_follow_completion_windows(self, drawn):
        edges, born, completed = drawn
        timeline = Timeline.from_events(
            start=edges[0],
            end=edges[-1],
            request_born=born,
            request_completed=completed,
            request_total=np.abs(completed - born),
            spec=TimelineSpec(n_windows=edges.size - 1),
        )
        expected, _ = np.histogram(completed, bins=timeline.edges)
        np.testing.assert_array_equal(
            [hist.count for hist in timeline.latency], expected
        )


@pytest.fixture
def from_jobs_calls(monkeypatch):
    """Counts :meth:`StageSeries.from_jobs` calls (one per stage built)."""
    calls = []
    original = StageSeries.from_jobs.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(StageSeries, "from_jobs", classmethod(counting))
    return calls


def system_timeline(**overrides):
    from repro.experiments import Scenario

    params = dict(
        key_rate=40_000.0,
        n_servers=2,
        service_rate=80_000.0,
        n_keys=20,
        network_delay=20e-6,
        miss_ratio=0.01,
        database_rate=2_000.0,
        n_requests=600,
        warmup_requests=60,
        seed=5,
    )
    params.update(overrides)
    return Scenario(**params).timeline("fastpath-system", n_windows=8)


def two_pass_series(arrival, start, finish, edges):
    """The stage series as two independent ``time_in_windows`` passes."""
    return StageSeries(
        arrivals=_counts(arrival, edges),
        completions=_counts(finish, edges),
        busy_time=time_in_windows(start, finish, edges),
        wait_time=time_in_windows(arrival, start, edges),
    )


def assert_series_identical(got, want):
    for field in ("arrivals", "completions", "busy_time", "wait_time"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


class TestDeferredStageSeries:
    """Stage series are built on first read, and only then."""

    def test_probe_with_latency_objective_builds_none(self, from_jobs_calls):
        from repro.capacity import CapacityObjective, find_capacity
        from repro.experiments import Scenario

        scenario = Scenario(
            key_rate=10_000.0, service_rate=80_000.0, n_keys=10,
            miss_ratio=0.01, database_rate=1_000.0, seed=7, n_requests=300,
        )
        result = find_capacity(
            scenario, CapacityObjective(2e-3, metric="p99"), rel_tol=0.1,
            windows=10,
        )
        assert result.n_probes >= 2
        assert from_jobs_calls == []

    def test_probe_with_stage_objective_builds_them(self, from_jobs_calls):
        from repro.capacity import CapacityObjective, find_capacity
        from repro.experiments import Scenario

        scenario = Scenario(
            key_rate=10_000.0, service_rate=80_000.0, n_keys=10,
            miss_ratio=0.0, seed=7, n_requests=300,
        )
        result = find_capacity(
            scenario,
            CapacityObjective(0.6, metric="utilization:server.0"),
            rel_tol=0.1,
            windows=10,
        )
        assert result.n_probes >= 2
        assert len(from_jobs_calls) >= result.n_probes

    def test_read_after_run_equals_from_jobs(self, monkeypatch, from_jobs_calls):
        captured = {}
        original = Timeline.from_events.__func__

        def capture(cls, **kwargs):
            # Materialize copies of every stage's jobs at run time.
            for name, jobs in kwargs["stages"].items():
                captured[name] = tuple(np.array(a) for a in jobs())
            return original(cls, **kwargs)

        monkeypatch.setattr(Timeline, "from_events", classmethod(capture))
        timeline = system_timeline()
        assert sorted(captured) == ["database", "server.0", "server.1"]
        assert from_jobs_calls == []
        stages = timeline.stages
        assert len(from_jobs_calls) == 3
        assert sorted(stages) == sorted(captured)
        for name, jobs in captured.items():
            assert_series_identical(
                stages[name], StageSeries.from_jobs(*jobs, timeline.edges)
            )
            assert_series_identical(
                stages[name], two_pass_series(*jobs, timeline.edges)
            )
        checked = len(from_jobs_calls)
        timeline.utilization("server.0")
        assert len(from_jobs_calls) == checked  # built once only

    def test_from_jobs_clamps_like_two_passes(self):
        rng = np.random.default_rng(8)
        arrival = np.sort(rng.uniform(0.0, 10.0, 300))
        start = arrival + rng.exponential(0.2, 300)
        finish = start + rng.exponential(0.1, 300)
        start[::7] = arrival[::7] - 0.05  # starts before arriving
        finish[3::11] = start[3::11] - 0.01  # finishes before starting
        edges = np.linspace(0.0, 11.0, 12)
        assert_series_identical(
            StageSeries.from_jobs(arrival, start, finish, edges),
            two_pass_series(arrival, start, finish, edges),
        )

    def test_pickle_round_trip_carries_built_series(self, from_jobs_calls):
        import pickle

        timeline = system_timeline()
        payload = pickle.dumps(timeline)
        assert len(from_jobs_calls) == 3
        restored = pickle.loads(payload)
        assert restored.stage_names == ["database", "server.0", "server.1"]
        for name in restored.stage_names:
            assert_series_identical(restored.stages[name], timeline.stages[name])
        assert len(from_jobs_calls) == 3

    def test_to_dict_carries_built_series(self, from_jobs_calls):
        payload = system_timeline().to_dict()
        assert len(from_jobs_calls) == 3
        built = system_timeline()
        assert payload["stages"] == {
            name: built.stages[name].to_dict() for name in built.stage_names
        }

    def test_merge_builds_both_sides(self, from_jobs_calls):
        merged = system_timeline()
        merged.merge(system_timeline())
        assert len(from_jobs_calls) == 6
        eager, other = system_timeline(), system_timeline()
        eager.stages, other.stages  # build before merging
        eager.merge(other)
        assert merged.to_dict()["stages"] == eager.to_dict()["stages"]

    def test_equality_builds_series(self, from_jobs_calls):
        timeline = system_timeline()
        assert timeline == timeline
        assert len(from_jobs_calls) == 3

    def test_stages_assignment_replaces_deferred_jobs(self, from_jobs_calls):
        timeline = system_timeline()
        timeline.stages = {}
        assert timeline.stage_names == []
        assert from_jobs_calls == []

    def test_runner_cells_store_built_series(self, from_jobs_calls):
        from repro.experiments import ExperimentRunner, Grid, Scenario, Suite

        base = Scenario(
            key_rate=40_000.0, service_rate=80_000.0, n_keys=10, seed=42,
            n_requests=200,
        )
        suite = Suite(
            "timeline", Grid(base, {"q": [0.0, 0.2]}),
            backend="fastpath-system", options={"timeline": 6},
        )
        result = ExperimentRunner(workers=1).run(suite)
        built = len(from_jobs_calls)
        n_stages = sum(len(cell.timeline.stage_names) for cell in result.cells)
        assert n_stages > 0
        assert built == n_stages
