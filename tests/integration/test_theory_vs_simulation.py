"""Integration: the analytic model vs the simulators.

These are the library's load-bearing checks: the GI^X/M/1 theory
(Theorem 1) must describe what the simulated Memcached system actually
does, across workload shapes.
"""

import numpy as np
import pytest

from repro.core import (
    ClusterModel,
    DatabaseStage,
    LatencyModel,
    ServerStage,
    WorkloadPattern,
)
from repro.simulation import (
    MemcachedSystemSimulator,
    sample_request_latencies,
    simulate_batch_times,
    simulate_key_latencies,
)
from repro.units import kps, msec, usec


class TestBatchLawAgainstEventSim:
    def test_gixm1_distributions_hold_in_event_simulator(self, rng):
        """Run the event-driven server under the paper's arrival process
        and compare per-key sojourns with the analytic per-key law."""
        from repro.simulation import BatchArrivalProcess, ServerSim, Simulator

        workload = WorkloadPattern.facebook().with_rate(kps(40))
        stage = ServerStage(workload, kps(80))
        sim = Simulator()
        sojourns = []
        server = ServerSim.exponential(
            sim, kps(80), rng,
            on_complete=lambda context, arrival, start, finish: sojourns.append(
                finish - arrival
            ),
        )
        arrivals = BatchArrivalProcess.from_workload(workload, rng)
        arrivals.start(sim, lambda t, size: server.offer_batch(t, size))
        sim.run_until(8.0)
        assert len(sojourns) > 100_000
        assert np.mean(sojourns) == pytest.approx(
            stage.queue.mean_key_latency, rel=0.05
        )

    def test_fastpath_matches_event_sim(self, rng):
        workload = WorkloadPattern.facebook().with_rate(kps(40))
        fast = simulate_key_latencies(workload, kps(80), n_keys=400_000, rng=rng)

        from repro.simulation import BatchArrivalProcess, ServerSim, Simulator

        sim = Simulator()
        sojourns = []
        server = ServerSim.exponential(
            sim, kps(80), rng,
            on_complete=lambda context, arrival, start, finish: sojourns.append(
                finish - arrival
            ),
        )
        arrivals = BatchArrivalProcess.from_workload(workload, rng)
        arrivals.start(sim, lambda t, size: server.offer_batch(t, size))
        sim.run_until(5.0)
        assert np.mean(sojourns) == pytest.approx(float(fast.mean()), rel=0.05)


class TestTheorem1AgainstFastPath:
    @pytest.mark.parametrize("xi", [0.0, 0.15, 0.4])
    def test_server_bounds_bracket_simulation_shape(self, rng, xi):
        workload = WorkloadPattern(rate=kps(50), xi=xi, q=0.1)
        stage = ServerStage(workload, kps(80))
        pool = simulate_key_latencies(workload, kps(80), n_keys=600_000, rng=rng)
        sample = sample_request_latencies(
            [pool], [1.0], n_keys=150, n_requests=4000, rng=rng
        )
        measured = float(sample.server_max.mean())
        bounds = stage.mean_latency_bounds(150)
        # The quantile rule underestimates E[max] by up to H_N - ln(N+1)
        # (~12% at N=150); allow that documented slack.
        assert bounds.lower * 0.85 < measured < bounds.upper * 1.3

    def test_database_estimate_close_to_simulation(self, rng):
        database = DatabaseStage(1.0 / msec(1), 0.01)
        pool = np.zeros(10)  # isolate the database component
        sample = sample_request_latencies(
            [pool], [1.0], n_keys=150, n_requests=30_000, rng=rng,
            miss_ratio=0.01, database_rate=1.0 / msec(1),
        )
        measured = float(sample.database_max.mean())
        estimate = database.mean_latency(150)
        # The paper's eq. (23) underestimates the exact maximal statistic
        # by ~20% at these parameters (documented in EXPERIMENTS.md).
        assert estimate * 0.75 < measured < estimate * 1.45

    def test_miss_count_distribution(self, rng):
        sample = sample_request_latencies(
            [np.zeros(5)], [1.0], n_keys=150, n_requests=20_000, rng=rng,
            miss_ratio=0.01, database_rate=1000.0,
        )
        any_miss = float(np.mean(sample.database_max > 0))
        assert any_miss == pytest.approx(1 - 0.99**150, abs=0.02)


class TestEndToEndSystem:
    def test_single_key_requests_are_exactly_mm1(self):
        """With N = 1 the closed loop induces thinned-Poisson per-server
        arrivals, so the matched model (q = 0) is exactly M/M/1."""
        cluster = ClusterModel.balanced(2, kps(20))
        system = MemcachedSystemSimulator(
            cluster,
            n_keys_per_request=1,
            request_rate=20_000.0,  # 10k keys/s per server, rho = 0.5
            network_delay=0.0,
            seed=11,
        )
        results = system.run(n_requests=30_000, warmup_requests=3000)
        workload = system.induced_server_workload(0)
        assert workload.q == 0.0
        stage = ServerStage(workload, kps(20))
        measured = results.per_key_server.mean
        assert measured == pytest.approx(stage.queue.mean_key_latency, rel=0.08)

    def test_multi_key_requests_exact_with_truncated_binomial(self):
        """The closed loop induces Exp gaps + TruncatedBinomial batches;
        the GeneralBatchQueue with that exact law should beat the
        matched-geometric approximation substantially."""
        from repro.distributions import Exponential, TruncatedBinomial
        from repro.queueing import GeneralBatchQueue

        n_keys, share = 4, 0.5
        request_rate = 2500.0
        cluster = ClusterModel.balanced(2, kps(20))
        system = MemcachedSystemSimulator(
            cluster,
            n_keys_per_request=n_keys,
            request_rate=request_rate,
            network_delay=0.0,
            seed=11,
        )
        results = system.run(n_requests=12_000, warmup_requests=1200)
        measured = results.per_key_server.mean

        batch_prob = 1.0 - (1.0 - share) ** n_keys
        exact_queue = GeneralBatchQueue(
            Exponential(request_rate * batch_prob),
            TruncatedBinomial(n_keys, share),
            kps(20),
        )
        exact = exact_queue.mean_key_latency()
        geometric = ServerStage(
            system.induced_server_workload(0), kps(20)
        ).queue.mean_key_latency
        # The exact batch law lands much closer than the geometric match.
        assert measured == pytest.approx(exact, rel=0.1)
        assert abs(exact - measured) < abs(geometric - measured)

    def test_multi_key_requests_approximated_by_matched_batches(self):
        """With N > 1 the per-request fan-out produces binomial batches;
        the matched geometric-batch model is an approximation the paper
        relies on — verify it lands within ~30%."""
        cluster = ClusterModel.balanced(2, kps(20))
        system = MemcachedSystemSimulator(
            cluster,
            n_keys_per_request=4,
            request_rate=2500.0,  # 10k keys/s total, 5k per server
            network_delay=0.0,
            seed=11,
        )
        results = system.run(n_requests=8000, warmup_requests=800)
        workload = system.induced_server_workload(0)
        stage = ServerStage(workload, kps(20))
        measured = results.per_key_server.mean
        assert measured == pytest.approx(stage.queue.mean_key_latency, rel=0.3)

    def test_request_latency_bounded_by_eq1(self):
        cluster = ClusterModel.balanced(4, kps(80))
        system = MemcachedSystemSimulator(
            cluster,
            n_keys_per_request=30,
            request_rate=200.0,
            network_delay=usec(20),
            miss_ratio=0.02,
            database_rate=1.0 / msec(1),
            seed=3,
        )
        results = system.run(n_requests=1500, warmup_requests=200)
        total = results.total.mean
        stage_sum = (
            results.network_stage.mean
            + results.server_stage.mean
            + results.database_stage.mean
        )
        stage_max = max(
            results.network_stage.mean,
            results.server_stage.mean,
            results.database_stage.mean,
        )
        assert stage_max <= total <= stage_sum * 1.01

    def test_real_cache_backend_integration(self, rng):
        """The executable memcached provides the miss process: r emerges
        from capacity + popularity, and the DB stage reacts to it."""
        from repro.memcached import MemcachedCluster, SimulatedCacheBackend

        mc = MemcachedCluster(4, 1 << 20)
        backend = SimulatedCacheBackend(
            mc, n_items=20_000, value_size=2048, rng=rng
        )
        backend.warm(0.05)
        cluster = ClusterModel.balanced(4, kps(80))
        # Keep the *miss stream* well below the database service rate
        # (rho_D ~ 0.1) and the per-request fan-out small: the tiny cache
        # misses ~40% of lookups, and with a large N all of a request's
        # misses would hit the database as one clump, violating the
        # paper's Poisson-miss assumption (its r is 1%, not 40%).
        database_rate = 5000.0
        system = MemcachedSystemSimulator(
            cluster,
            n_keys_per_request=2,
            request_rate=500.0,
            database_rate=database_rate,
            cache_backend=backend,
            seed=5,
        )
        results = system.run(n_requests=4000)
        assert 0.0 < results.measured_miss_ratio < 1.0
        assert results.database_stage.mean > 0.0
        # The model fed with the measured r should land in the right range.
        database = DatabaseStage(
            database_rate,
            results.measured_miss_ratio,
            utilization=0.1,
        )
        estimate = database.mean_latency(2)
        assert estimate == pytest.approx(results.database_stage.mean, rel=0.4)
