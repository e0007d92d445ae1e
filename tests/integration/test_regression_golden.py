"""Golden regression values: seeded runs must stay bit-stable.

The analytic values pin the math (any change to the solvers shows up
here first); the seeded simulation values pin the RNG plumbing (stream
splitting, sampling order). Update a golden value only when a deliberate
behaviour change explains it. The fastpath, ``GeneralBatchQueue`` and
``Scenario.run`` pins (``fastpath`` and ``simulate``) are exact: a
float's ``hex()`` or a sha256 of the array or JSON bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import LatencyModel, ServerStage, WorkloadPattern
from repro.experiments import Scenario
from repro.policies import RequestPolicy
from repro.queueing import GeneralBatchQueue, delta_for_utilization
from repro.simulation import MemcachedSystemSimulator, simulate_key_latencies
from repro.core import ClusterModel
from repro.units import kps, msec, usec


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


class TestAnalyticGoldens:
    def test_facebook_delta(self):
        stage = ServerStage(WorkloadPattern.facebook(), kps(80))
        assert stage.delta == pytest.approx(0.8104, abs=2e-4)

    def test_table3_bounds_exact(self):
        model = LatencyModel.build(
            workload=WorkloadPattern.facebook(),
            service_rate=kps(80),
            network_delay=usec(20),
            database_rate=1.0 / msec(1),
            miss_ratio=0.01,
        )
        estimate = model.estimate(150)
        assert estimate.server.lower == pytest.approx(352.06e-6, abs=0.2e-6)
        assert estimate.server.upper == pytest.approx(367.46e-6, abs=0.2e-6)
        assert estimate.database == pytest.approx(836.05e-6, abs=0.2e-6)

    def test_delta_grid(self):
        # A small grid of the normalized fixed point.
        goldens = {
            (0.15, 0.5): 0.5422,
            (0.15, 0.78125): 0.8104,
            (0.5, 0.5): 0.6950,
            (0.0, 0.75): 0.75,
        }
        for (xi, rho), expected in goldens.items():
            assert delta_for_utilization(xi, rho) == pytest.approx(
                expected, abs=2e-3
            ), (xi, rho)

    def test_cliff_facebook(self):
        from repro.queueing import cliff_utilization

        assert cliff_utilization(0.15) == pytest.approx(0.759, abs=0.004)


class TestSeededSimulationGoldens:
    def test_fastpath_seeded_mean(self):
        rng = np.random.default_rng(20170327)
        latencies = simulate_key_latencies(
            WorkloadPattern.facebook(), kps(80), n_keys=100_000, rng=rng
        )
        # Exact pins: any change to the sampling order or the batch-FIFO
        # arithmetic moves at least the last bits of the mean.
        assert float(latencies.mean()).hex() == "0x1.313ab3fc353c5p-14"
        assert _digest(latencies) == (
            "115f17ef766b1287307cc2ee7b65479017a5a13e2c1bae6693f41008dcf190c1"
        )

    def test_general_batch_seeded_digest(self):
        workload = WorkloadPattern.facebook()
        queue = GeneralBatchQueue(
            workload.batch_gap_distribution(),
            workload.batch_size_distribution(),
            kps(80),
        )
        latencies = queue.simulate_key_latencies(np.random.default_rng(5), 20_000)
        assert latencies.size == 20_000
        assert _digest(latencies) == (
            "d8bbd4e222d3ea2d061a725d81e882da1176dcabca13f3651f1e2ca00490172b"
        )

    @pytest.mark.parametrize(
        "scenario, expected",
        [
            (
                Scenario(
                    key_rate=kps(50), burst_xi=0.15, concurrency_q=0.1,
                    n_servers=4, n_keys=24, n_requests=2000, seed=11,
                    miss_ratio=0.01, database_rate=kps(50), network_delay=2e-5,
                ),
                "a061034360b80103dfde24358ef5e090fdf17fc23203e140e99ed2d258deb15c",
            ),
            (
                Scenario(
                    key_rate=kps(50), burst_xi=0.15, concurrency_q=0.1,
                    n_servers=3, shares=(0.5, 0.3, 0.2), n_keys=24,
                    n_requests=2000, seed=12,
                ),
                "db6cba09e56a8698fb2f7176dc33ab27c6f0776d14f2c957b88f35bc659e0eb0",
            ),
        ],
        ids=["balanced", "unbalanced"],
    )
    def test_fastpath_scenario_bytes(self, scenario, expected):
        result = scenario.run("fastpath", pool_size=50_000).to_dict()
        payload = json.dumps(result, sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest() == expected

    @pytest.mark.parametrize(
        "scenario, result_digest, per_key_digest",
        [
            (
                Scenario(
                    key_rate=40_000.0, n_servers=4, n_keys=150,
                    network_delay=20e-6, miss_ratio=0.002,
                    database_rate=1_000.0, n_requests=200,
                    warmup_requests=20, seed=5,
                ),
                "c0e3ee05dfc4e9ae006a60f5d9e3ab81d9f95ee3d214202d69014f2c45c6ef3b",
                "08888fd84aac1cae9395fb1985ed2bec5bd0837148bb8eec617d18438e6d7a1a",
            ),
            (
                Scenario(
                    key_rate=40_000.0, n_servers=4, n_keys=20,
                    network_delay=20e-6, miss_ratio=0.01,
                    database_rate=5_000.0, n_requests=300,
                    warmup_requests=30, seed=17,
                    policy=RequestPolicy(hedge_delay=0.2e-3, cancel_on_winner=True),
                ),
                "1f432c38480f5206a68bd975030869705bc4ac34e4ba5bbc1466627fe838ac25",
                "e294dd98a8df7dac250f293db022258d7df0a283e2be654815b9332268b6d2d6",
            ),
        ],
        ids=["cluster-misses-warmup", "hedge-cancel-on-winner"],
    )
    def test_simulate_scenario_bytes(self, scenario, result_digest, per_key_digest):
        # The whole result (stage summaries, utilizations, timeline and
        # attribution) and the per-key server sojourns, byte for byte.
        # The timeline's provenance stamp (git SHA) is not a result.
        result = scenario.run("simulate", timeline=4, attribution=True)
        data = result.to_dict()
        del data["timeline"]["provenance"]
        payload = json.dumps(data, sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest() == result_digest
        assert _digest(result.raw.per_key_server.samples()) == per_key_digest

    def test_system_sim_seeded_determinism(self):
        def run():
            system = MemcachedSystemSimulator(
                ClusterModel.balanced(2, kps(80)),
                n_keys_per_request=10,
                request_rate=200.0,
                network_delay=usec(20),
                miss_ratio=0.02,
                database_rate=1.0 / msec(1),
                seed=99,
            )
            return system.run(n_requests=200).total.mean

        assert run() == run()
