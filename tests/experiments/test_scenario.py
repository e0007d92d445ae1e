"""Scenario: the unified parameter object and its backend dispatch."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LatencyEstimate
from repro.errors import ConfigError, ValidationError
from repro.experiments import BACKENDS, Scenario, cell_metrics
from repro.experiments import scenario as scenario_module
from repro.faults import (
    DatabaseOverload,
    FaultSchedule,
    ServerPause,
    ServerSlowdown,
    ShareShift,
)
from repro.observability import TimelineSpec
from repro.policies import RequestPolicy
from repro.simulation import SimulationResult, StageStats, fastpath_system
from repro.units import kps, msec, usec

#: Hypothesis strategies for the optional fault/policy fields, covering
#: the absent (None) default alongside every window/policy shape that is
#: valid independent of the cluster size.
_fault_windows = st.one_of(
    st.builds(
        ServerSlowdown,
        start=st.floats(0.0, 1.0),
        duration=st.floats(1e-3, 1.0),
        factor=st.floats(0.05, 1.0),
    ),
    st.builds(
        ServerPause,
        start=st.floats(0.0, 1.0),
        duration=st.floats(1e-3, 1.0),
    ),
    st.builds(
        DatabaseOverload,
        start=st.floats(0.0, 1.0),
        duration=st.floats(1e-3, 1.0),
        factor=st.floats(0.05, 1.0),
    ),
)
_fault_schedules = st.one_of(
    st.none(),
    st.builds(
        FaultSchedule,
        st.lists(_fault_windows, min_size=1, max_size=3).map(tuple),
    ),
)
_policies = st.one_of(
    st.none(),
    st.builds(RequestPolicy.hedged, st.floats(1e-6, 1e-2)),
    st.builds(
        lambda timeout, retries: RequestPolicy.timeout_retry(
            timeout, max_retries=retries
        ),
        st.floats(1e-6, 1e-2),
        st.integers(1, 3),
    ),
)


def small_scenario(**overrides):
    base = dict(
        key_rate=kps(62.5),
        burst_xi=0.15,
        concurrency_q=0.1,
        service_rate=kps(80),
        n_keys=20,
        network_delay=usec(20),
        miss_ratio=0.01,
        database_rate=1 / msec(1),
        seed=7,
        n_requests=300,
        warmup_requests=30,
    )
    base.update(overrides)
    return Scenario(**base)


class TestRoundTrips:
    def test_config_round_trip_paper_point(self):
        scenario = Scenario.paper_section_5_1()
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_dict_round_trip(self):
        scenario = small_scenario(shares=(0.7, 0.3), n_servers=2)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict({"key_rate": 1.0, "bogus": 2})

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            Scenario.from_json('{"key_rate": 1.0, "bogus": 2}')

    def test_json_text_round_trip(self):
        text = Scenario.paper_section_5_1().to_json()
        assert Scenario.from_json(text).to_json() == text

    def test_file_round_trip_with_shares(self, tmp_path):
        scenario = small_scenario(shares=(0.7, 0.3), n_servers=2)
        path = tmp_path / "exp.json"
        scenario.save(path)
        assert Scenario.load(path) == scenario

    def test_shares_coerced_to_tuple(self):
        scenario = small_scenario(shares=[0.5, 0.5], n_servers=2)
        assert scenario.shares == (0.5, 0.5)
        assert isinstance(scenario.to_dict()["shares"], list)

    @settings(max_examples=50, deadline=None)
    @given(
        key_rate=st.floats(1.0, 1e6, allow_nan=False),
        burst_xi=st.floats(0.0, 0.9),
        concurrency_q=st.floats(0.0, 0.9),
        n_servers=st.integers(1, 8),
        service_rate=st.floats(1.0, 1e6),
        n_keys=st.integers(1, 500),
        network_delay=st.floats(0.0, 1e-3),
        miss_ratio=st.floats(0.0, 1.0),
        database_rate=st.one_of(st.none(), st.floats(1.0, 1e5)),
        seed=st.integers(0, 2**63 - 1),
        faults=_fault_schedules,
        policy=_policies,
    )
    def test_config_round_trip_property(self, **fields):
        scenario = Scenario(**fields)
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_load_accepts_saved_json(self, tmp_path):
        path = tmp_path / "config.json"
        Scenario.paper_section_5_1().save(path)
        assert Scenario.load(path) == Scenario.paper_section_5_1()

    def test_loads_legacy_config_file(self):
        # Byte layout of files the standalone config type used to write:
        # list shares, kind-tagged fault windows, the policy payload.
        text = """{
  "burst_xi": 0.0,
  "concurrency_q": 0.0,
  "database_rate": 1000.0,
  "faults": {
    "windows": [
      {
        "duration": 0.05,
        "factor": 0.5,
        "kind": "server-slowdown",
        "server": 1,
        "start": 0.01
      }
    ]
  },
  "key_rate": 1000.0,
  "miss_ratio": 0.01,
  "n_keys": 150,
  "n_requests": 2000,
  "n_servers": 2,
  "network_delay": 0.0,
  "policy": {
    "backoff": 2.0,
    "cancel_on_winner": true,
    "hedge_delay": 0.0003,
    "max_retries": 0,
    "timeout": null
  },
  "seed": 0,
  "service_rate": 80000.0,
  "shares": [
    0.7,
    0.3
  ],
  "warmup_requests": 200
}"""
        expected = Scenario(
            key_rate=1000.0,
            n_servers=2,
            shares=(0.7, 0.3),
            miss_ratio=0.01,
            database_rate=1000.0,
            faults=FaultSchedule(
                (ServerSlowdown(start=0.01, duration=0.05, factor=0.5, server=1),)
            ),
            policy=RequestPolicy.hedged(3e-4),
        )
        assert Scenario.from_json(text) == expected
        assert expected.to_json() == text

    def test_rejects_missing_required(self):
        with pytest.raises(ConfigError, match="incomplete scenario"):
            Scenario.from_json('{"burst_xi": 0.15}')

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError, match="must be an object"):
            Scenario.from_json("[1, 2, 3]")

    def test_rejects_bad_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            Scenario.from_json("{nope}")

    def test_load_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            Scenario.load(tmp_path / "missing.json")

    def test_fault_policy_json_round_trip(self, tmp_path):
        scenario = small_scenario(
            n_servers=2,
            faults=FaultSchedule(
                (
                    ServerSlowdown(
                        start=0.01, duration=0.05, factor=0.5, server=1
                    ),
                    ShareShift(start=0.02, duration=0.03, shares=(0.8, 0.2)),
                )
            ),
            policy=RequestPolicy.hedged(usec(300)),
        )
        path = tmp_path / "config.json"
        scenario.save(path)
        loaded = Scenario.load(path)
        assert loaded == scenario
        assert loaded.faults.windows[1].shares == (0.8, 0.2)
        assert loaded.policy.hedge_delay == pytest.approx(usec(300))

    def test_payload_dicts_coerced_to_typed_fields(self):
        scenario = small_scenario(
            faults={"windows": [{"kind": "server-pause", "start": 0.0,
                                 "duration": 0.01}]},
            policy={"timeout": 0.001, "max_retries": 2},
        )
        assert isinstance(scenario.faults, FaultSchedule)
        assert isinstance(scenario.faults.windows[0], ServerPause)
        assert isinstance(scenario.policy, RequestPolicy)

    def test_empty_schedule_normalizes_to_none(self):
        assert small_scenario(faults=FaultSchedule(())).faults is None
        assert small_scenario(faults=FaultSchedule(())) == small_scenario()


class TestBuilders:
    def test_paper_config_reproduces_table3(self):
        model = Scenario.paper_section_5_1().latency_model()
        estimate = model.estimate(150)
        assert estimate.server.upper == pytest.approx(366e-6, rel=0.02)
        assert estimate.database == pytest.approx(836e-6, rel=0.02)

    def test_workload_fields(self):
        workload = Scenario.paper_section_5_1().workload()
        assert workload.rate == 62_500.0
        assert workload.xi == 0.15

    def test_balanced_cluster_default(self):
        cluster = Scenario(key_rate=1000.0, n_servers=3).cluster()
        assert cluster.is_balanced
        assert cluster.n_servers == 3

    def test_explicit_shares(self):
        scenario = Scenario(key_rate=1000.0, n_servers=2, shares=[0.7, 0.3])
        assert scenario.cluster().heaviest_share == pytest.approx(0.7)

    def test_share_length_mismatch(self):
        with pytest.raises(ConfigError, match="shares has 2 entries for 3 servers"):
            Scenario(key_rate=1000.0, n_servers=3, shares=[0.5, 0.5])

    def test_tail_model(self):
        bounds = Scenario.paper_section_5_1().tail_model().p99(150)
        assert bounds.lower < bounds.upper

    def test_tail_model_requires_db_rate(self):
        with pytest.raises(ConfigError):
            Scenario(key_rate=1000.0, miss_ratio=0.01).tail_model()

    def test_simulator_runs(self):
        scenario = Scenario(
            key_rate=500.0,
            n_servers=2,
            service_rate=80_000.0,
            n_keys=5,
            n_requests=50,
            seed=3,
        )
        results = scenario.simulator().run(n_requests=50)
        assert results.total.count == 50

    def test_simulator_induces_configured_rate(self):
        scenario = Scenario(
            key_rate=2000.0, n_servers=4, n_keys=10, service_rate=80_000.0
        )
        induced = scenario.simulator().induced_server_workload(0)
        assert induced.rate == pytest.approx(2000.0)


#: Out-of-range and non-finite values of every checked numeric field.
_BAD_FIELD_VALUES = [
    ("key_rate", float("inf")),
    ("key_rate", float("nan")),
    ("key_rate", -1000.0),
    ("key_rate", 0.0),
    ("service_rate", float("inf")),
    ("service_rate", 0.0),
    ("network_delay", float("nan")),
    ("network_delay", float("inf")),
    ("network_delay", -1e-6),
    ("database_rate", float("inf")),
    ("database_rate", 0.0),
    ("miss_ratio", float("nan")),
    ("miss_ratio", -0.01),
    ("miss_ratio", 1.5),
    ("burst_xi", 1.0),
    ("burst_xi", -0.1),
    ("concurrency_q", 1.0),
    ("concurrency_q", float("nan")),
    ("n_requests", 0),
    ("warmup_requests", -3),
    # Integer fields reject fractions (n_requests=50.5 once completed 51
    # requests on simulate and raised inside numpy on fastpath-system).
    ("n_keys", 2.5),
    ("n_servers", 1.5),
    ("n_requests", 50.5),
    ("warmup_requests", 5.5),
    ("seed", 1.5),
]


class TestValidation:
    def test_rejects_bad_n_keys(self):
        with pytest.raises(ValidationError):
            small_scenario(n_keys=0)

    def test_rejects_bad_n_servers(self):
        with pytest.raises(ValidationError):
            small_scenario(n_servers=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            small_scenario(seed=-1)
        assert small_scenario(seed=0).seed == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("field, value", _BAD_FIELD_VALUES)
    def test_bad_number_fails_alike_on_every_backend(self, field, value, backend):
        # One ValidationError naming the field, raised before any backend
        # runs: no backend completes, hangs on, or re-words a bad value.
        with pytest.raises(ValidationError, match=f"^{field} must be "):
            small_scenario(**{field: value}).run(backend)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_scenario().n_keys = 10

    def test_replace(self):
        scenario = small_scenario()
        assert scenario.replace(seed=9).seed == 9
        assert scenario.seed == 7  # original untouched


class TestDispatch:
    def test_estimate_backend(self):
        estimate = small_scenario().run("estimate")
        assert isinstance(estimate, LatencyEstimate)
        assert estimate.total_lower <= estimate.total_upper

    def test_estimate_rejects_options(self):
        with pytest.raises(ValidationError):
            small_scenario().run("estimate", pool_size=100)

    def test_unknown_backend(self):
        with pytest.raises(ConfigError):
            small_scenario().run("warp-drive")

    def test_simulate_backend_returns_typed_result(self):
        result = small_scenario().run("simulate")
        assert isinstance(result, SimulationResult)
        assert result.total.count > 0
        assert result.p50 <= result.p95 <= result.p99
        assert set(result.breakdown()) == {"network", "servers", "database"}

    def test_fastpath_backend_returns_typed_result(self):
        result = small_scenario().run("fastpath", pool_size=20_000)
        assert isinstance(result, SimulationResult)
        assert result.total.count == 300
        assert result.network.mean == pytest.approx(usec(20))

    def test_fastpath_unbalanced_shares(self):
        # key_rate low enough that the hot server (0.7 of 2x rate)
        # stays below the 80 Kps service rate.
        scenario = small_scenario(
            key_rate=kps(40), n_servers=2, shares=(0.7, 0.3)
        )
        result = scenario.run("fastpath", pool_size=20_000)
        assert result.total.count == 300

    def test_simulate_deterministic_in_seed(self):
        a = small_scenario().run("simulate")
        b = small_scenario().run("simulate")
        assert a == b

    def test_fastpath_deterministic_in_seed(self):
        a = small_scenario().run("fastpath", pool_size=10_000)
        b = small_scenario().run("fastpath", pool_size=10_000)
        assert a == b

    def test_backends_constant_lists_all(self):
        assert BACKENDS == ("estimate", "simulate", "fastpath", "fastpath-system")

    def test_fastpath_system_backend_returns_typed_result(self):
        result = small_scenario().run("fastpath-system")
        assert isinstance(result, SimulationResult)
        assert result.total.count == 300
        assert result.network.mean == pytest.approx(2 * usec(20))
        assert len(result.server_utilizations) == small_scenario().n_servers

    def test_fastpath_system_rejects_options(self):
        with pytest.raises(ValidationError) as err:
            small_scenario().run("fastpath-system", pool_size=100)
        # Uniform shape: names the option, the backend, and who accepts it.
        assert "pool_size" in str(err.value)
        assert "fastpath-system" in str(err.value)
        assert "fastpath" in str(err.value)

    def test_fastpath_system_deterministic_in_seed(self):
        a = small_scenario().run("fastpath-system")
        b = small_scenario().run("fastpath-system")
        assert a == b

    @pytest.mark.parametrize(
        "option, value", [("scheduler", "heap"), ("rng_window", 7)]
    )
    def test_removed_engine_knobs_fail_loudly(self, option, value):
        # The engine has one scheduler and a fixed RNG window; the old
        # knobs must be rejected by the registry, not silently dropped.
        with pytest.raises(ValidationError) as err:
            small_scenario().run("simulate", **{option: value})
        message = str(err.value)
        assert f"does not accept option {option!r}" in message
        assert "valid options: ['attribution', 'observability', 'timeline']" in message


class TestFaultPolicyDispatch:
    def test_estimate_rejects_faults(self):
        scenario = small_scenario(
            faults=FaultSchedule.single(ServerSlowdown(start=0.0, duration=0.1))
        )
        with pytest.raises(ConfigError):
            scenario.run("estimate")

    def test_estimate_rejects_policy(self):
        with pytest.raises(ConfigError):
            small_scenario(policy=RequestPolicy.hedged(usec(200))).run(
                "estimate"
            )

    def test_fastpath_rejects_faults(self):
        scenario = small_scenario(
            faults=FaultSchedule.single(ServerPause(start=0.0, duration=0.1))
        )
        with pytest.raises(ConfigError):
            scenario.run("fastpath", pool_size=1_000)

    def test_fastpath_system_rejects_policy(self):
        with pytest.raises(ConfigError):
            small_scenario(policy=RequestPolicy.hedged(usec(200))).run(
                "fastpath-system"
            )

    def test_fastpath_system_rejects_non_vectorizable_faults(self):
        scenario = small_scenario(
            faults=FaultSchedule.single(ServerPause(start=0.0, duration=0.1))
        )
        with pytest.raises(ValidationError):
            scenario.run("fastpath-system")

    def test_simulate_accepts_faults_and_policy(self):
        scenario = small_scenario(
            faults=FaultSchedule.single(
                DatabaseOverload(start=0.0, duration=0.05, factor=0.5)
            ),
            policy=RequestPolicy.hedged(usec(500)),
        )
        result = scenario.run("simulate")
        assert isinstance(result, SimulationResult)
        assert result.total.count > 0


class TestCellMetrics:
    def test_estimate_metrics(self):
        metrics = cell_metrics(small_scenario().estimate())
        assert {
            "mean",
            "ci_low",
            "ci_high",
            "server_mean",
            "server_ci_low",
            "server_ci_high",
            "database_mean",
            "network_mean",
        } <= set(metrics)
        assert metrics["ci_low"] <= metrics["mean"] <= metrics["ci_high"]
        assert "total_lower" not in metrics  # estimate-only aliases are gone

    def test_simulation_metrics(self):
        metrics = cell_metrics(small_scenario().run("fastpath", pool_size=5_000))
        assert {"mean", "p95", "p99", "server_mean"} <= set(metrics)
        assert all(isinstance(v, float) for v in metrics.values())

    def test_shared_vocabulary_across_backends(self):
        """Both result kinds expose one StageStats-shaped summary."""
        shared = {
            "mean",
            "ci_low",
            "ci_high",
            "server_mean",
            "server_ci_low",
            "server_ci_high",
            "database_mean",
            "network_mean",
        }
        estimate = cell_metrics(small_scenario().estimate())
        simulated = cell_metrics(
            small_scenario().run("fastpath", pool_size=5_000)
        )
        assert shared <= set(estimate)
        assert shared <= set(simulated)


class TestTimelineAcrossBackends:
    """``Scenario.timeline`` emits one schema from all four backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_schema_every_backend(self, backend):
        scenario = small_scenario(burst_xi=0.0, concurrency_q=0.0)
        timeline = scenario.timeline(backend, n_windows=8)
        assert timeline.n_windows == 8
        payload = timeline.to_dict()
        assert payload["kind"] == "repro-timeline"
        assert len(payload["arrivals"]) == 8
        assert payload["meta"]["backend"] == backend
        # Simulation backends model the same stages; the pool sampler
        # has no system-level stage trace, the analytic backend has no
        # latency samples (its histograms are empty).
        if backend == "fastpath":
            assert timeline.stage_names == []
        else:
            assert "database" in timeline.stage_names
            assert "server.0" in timeline.stage_names
        if backend == "estimate":
            assert sum(h.count for h in timeline.latency) == 0
        else:
            assert float(timeline.completions.sum()) == scenario.n_requests

    def test_window_width_spec(self):
        scenario = small_scenario()
        timeline = scenario.timeline("fastpath-system", window=0.01)
        assert timeline.window == pytest.approx(0.01)
        assert timeline.n_windows >= 1

    def test_run_with_timeline_option_attaches_result_timeline(self):
        scenario = small_scenario()
        result = scenario.run("simulate", timeline=4)
        assert result.timeline is not None
        assert result.timeline.n_windows == 4
        assert scenario.run("simulate").timeline is None

    def test_estimate_timeline_rejects_backend_options(self):
        with pytest.raises(ValidationError):
            small_scenario().timeline("estimate", pool_size=10)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            small_scenario().timeline("warp-drive")


class TestFastpathSystemTimelineRoute:
    """``Scenario.timeline("fastpath-system")`` skips the result summary
    ``run`` builds, and is otherwise the same call."""

    def test_timeline_equals_run_timeline(self):
        scenario = small_scenario(burst_xi=0.0, concurrency_q=0.0)
        spec = TimelineSpec(n_windows=6)
        via_timeline = scenario.timeline("fastpath-system", n_windows=6)
        via_run = scenario.run("fastpath-system", timeline=spec).timeline
        assert via_timeline.to_dict() == via_run.to_dict()

    def test_policy_raises_the_same_config_error(self):
        scenario = small_scenario(policy=RequestPolicy.hedged(usec(200)))
        with pytest.raises(ConfigError) as from_run:
            scenario.run("fastpath-system", timeline=True)
        with pytest.raises(ConfigError) as from_timeline:
            scenario.timeline("fastpath-system")
        assert str(from_timeline.value) == str(from_run.value)
        assert "\n" not in str(from_timeline.value)

    def test_unknown_option_raises_the_same_validation_error(self):
        scenario = small_scenario()
        with pytest.raises(ValidationError) as from_run:
            scenario.run("fastpath-system", timeline=True, pool_size=100)
        with pytest.raises(ValidationError) as from_timeline:
            scenario.timeline("fastpath-system", pool_size=100)
        assert str(from_timeline.value) == str(from_run.value)
        assert "pool_size" in str(from_timeline.value)


class TestSystemTimelineRoute:
    """On both whole-system backends ``Scenario.timeline`` returns the
    backend's own timeline and builds none of the summary ``run`` adds."""

    @pytest.mark.parametrize("backend", ["simulate", "fastpath-system"])
    def test_equals_run_timeline_without_stage_stats(
        self, backend, monkeypatch
    ):
        scenario = small_scenario(burst_xi=0.0, concurrency_q=0.0)
        via_run = scenario.run(backend, timeline=TimelineSpec(n_windows=6))
        built = []
        init = StageStats.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StageStats, "__init__", counting_init)
        via_timeline = scenario.timeline(backend, n_windows=6)
        assert built == []
        assert via_timeline.to_dict() == via_run.timeline.to_dict()

    def test_fastpath_system_reads_utilizations_only_when_asked(
        self, monkeypatch
    ):
        scenario = small_scenario(burst_xi=0.0, concurrency_q=0.0, n_servers=2)
        eager = scenario.run("fastpath-system").server_utilizations
        calls = []
        done_by = fastpath_system._ServerPass.service_done_by

        def counting_done_by(self, cutoff):
            calls.append(cutoff)
            return done_by(self, cutoff)

        runs = []
        simulate = scenario_module.simulate_system_requests

        def capturing_simulate(*args, **kwargs):
            runs.append(simulate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(
            fastpath_system._ServerPass, "service_done_by", counting_done_by
        )
        monkeypatch.setattr(
            scenario_module, "simulate_system_requests", capturing_simulate
        )
        scenario.timeline("fastpath-system", n_windows=6)
        assert calls == []
        (results,) = runs
        assert tuple(results.server_utilizations) == eager
        assert len(calls) == scenario.n_servers
