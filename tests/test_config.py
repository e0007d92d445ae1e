"""Tests for the experiment-config module."""

import pytest

from repro.config import ExperimentConfig
from repro.errors import ConfigError


class TestRoundTrip:
    def test_json_roundtrip(self):
        config = ExperimentConfig.paper_section_5_1()
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config

    def test_file_roundtrip(self, tmp_path):
        config = ExperimentConfig.paper_section_5_1()
        path = tmp_path / "exp.json"
        config.save(path)
        assert ExperimentConfig.load(path) == config

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"key_rate": 1.0, "bogus": 2}')

    def test_rejects_missing_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"burst_xi": 0.15}')

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("[1, 2, 3]")

    def test_rejects_bad_json(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{nope}")


class TestBuilders:
    def test_paper_config_reproduces_table3(self):
        model = ExperimentConfig.paper_section_5_1().latency_model()
        estimate = model.estimate(150)
        assert estimate.server.upper == pytest.approx(366e-6, rel=0.02)
        assert estimate.database == pytest.approx(836e-6, rel=0.02)

    def test_workload_fields(self):
        config = ExperimentConfig.paper_section_5_1()
        workload = config.workload()
        assert workload.rate == 62_500.0
        assert workload.xi == 0.15

    def test_balanced_cluster_default(self):
        config = ExperimentConfig(key_rate=1000.0, n_servers=3)
        cluster = config.cluster()
        assert cluster.is_balanced
        assert cluster.n_servers == 3

    def test_explicit_shares(self):
        config = ExperimentConfig(
            key_rate=1000.0, n_servers=2, shares=[0.7, 0.3]
        )
        assert config.cluster().heaviest_share == pytest.approx(0.7)

    def test_share_length_mismatch(self):
        with pytest.raises(ConfigError, match="shares has 2 entries for 3 servers"):
            ExperimentConfig(key_rate=1000.0, n_servers=3, shares=[0.5, 0.5])

    def test_tail_model(self):
        tail = ExperimentConfig.paper_section_5_1().tail_model()
        bounds = tail.p99(150)
        assert bounds.lower < bounds.upper

    def test_tail_model_requires_db_rate(self):
        config = ExperimentConfig(key_rate=1000.0, miss_ratio=0.01)
        with pytest.raises(ConfigError):
            config.tail_model()

    def test_simulator_runs(self):
        config = ExperimentConfig(
            key_rate=500.0,
            n_servers=2,
            service_rate=80_000.0,
            n_keys=5,
            n_requests=50,
            seed=3,
        )
        results = config.simulator().run(n_requests=50)
        assert results.total.count == 50

    def test_simulator_induces_configured_rate(self):
        config = ExperimentConfig(
            key_rate=2000.0, n_servers=4, n_keys=10, service_rate=80_000.0
        )
        sim = config.simulator()
        induced = sim.induced_server_workload(0)
        assert induced.rate == pytest.approx(2000.0)
