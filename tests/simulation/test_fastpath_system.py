"""Whole-system vectorized backend: structure, law, and edge cases."""

import pickle

import numpy as np
import pytest

from repro.errors import StabilityError, ValidationError
from repro.observability.attribution import RECORD_FIELDS
from repro.simulation import SystemResults, simulate_system_requests
from repro.simulation.fastpath import BatchFifo, batch_fifo, lindley_waits
from repro.simulation.fastpath_system import (
    _UNIFORM_CHUNK,
    _finished_between,
    _miss_keys,
    _ServerPass,
    _simulate_pass,
)


def run_small(**overrides):
    params = dict(
        shares=[0.5, 0.5],
        service_rate=80_000.0,
        n_keys=10,
        request_rate=2_000.0,
        n_requests=400,
        warmup_requests=40,
        rng=np.random.default_rng(11),
        network_delay=20e-6,
        miss_ratio=0.02,
        database_rate=50_000.0,
    )
    params.update(overrides)
    return simulate_system_requests(
        params.pop("shares"), params.pop("service_rate"), **params
    )


class TestValidation:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            run_small(shares=[0.5, 0.2])

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            run_small(n_keys=0)
        with pytest.raises(ValidationError):
            run_small(n_requests=0)
        with pytest.raises(ValidationError):
            run_small(warmup_requests=-1)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            run_small(request_rate=0.0)
        with pytest.raises(ValidationError):
            run_small(service_rate=0.0)
        with pytest.raises(ValidationError):
            run_small(network_delay=-1e-6)

    def test_miss_needs_database_rate(self):
        with pytest.raises(ValidationError):
            run_small(miss_ratio=0.1, database_rate=None)

    def test_unstable_server_raises(self):
        # Hot share pushes that server's key rate past muS.
        with pytest.raises(StabilityError):
            run_small(shares=[0.9, 0.1], request_rate=10_000.0)


class TestStructure:
    def test_shapes_and_network_constant(self):
        sample = run_small()
        assert isinstance(sample, SystemResults)
        assert sample.requests_completed == 400
        assert sample.record.shape == (400, len(RECORD_FIELDS))
        assert np.all(sample.column("network") == pytest.approx(40e-6))
        assert len(sample.server_utilizations) == 2

    def test_total_decomposition_bounds(self):
        # T = 2d + max_i(s_i + d_i) >= 2d + max(TS, TD) and
        # T <= 2d + TS + TD for every request.
        sample = run_small()
        network, total = sample.column("network"), sample.column("total")
        server_max, database_max = sample.column("server_max"), sample.column("db_max")
        lower = network + np.maximum(server_max, database_max)
        upper = network + server_max + database_max
        assert np.all(total >= lower - 1e-12)
        assert np.all(total <= upper + 1e-12)

    def test_no_misses_means_zero_database_stage(self):
        sample = run_small(miss_ratio=0.0, database_rate=None)
        assert np.all(sample.column("db_max") == 0.0)
        assert sample.measured_miss_ratio == 0.0

    def test_deterministic_given_seed(self):
        a = run_small(rng=np.random.default_rng(5))
        b = run_small(rng=np.random.default_rng(5))
        assert np.array_equal(a.column("total"), b.column("total"))
        assert np.array_equal(a.column("db_max"), b.column("db_max"))

    def test_utilization_tracks_load(self):
        light = run_small(request_rate=500.0, rng=np.random.default_rng(2))
        heavy = run_small(request_rate=7_000.0, rng=np.random.default_rng(2))
        assert max(heavy.server_utilizations) > max(light.server_utilizations)
        assert all(0.0 <= u <= 1.0 for u in heavy.server_utilizations)

    def test_single_server_share_vector(self):
        sample = run_small(shares=[1.0])
        assert len(sample.server_utilizations) == 1
        assert sample.requests_completed == 400


class TestLaw:
    def test_mm1_sojourn_matches_theory(self):
        # N=1 key on one server with no misses is a plain M/M/1:
        # E[T] = 1/(mu - lambda).
        mu, lam = 50_000.0, 35_000.0
        sample = simulate_system_requests(
            [1.0],
            mu,
            n_keys=1,
            request_rate=lam,
            n_requests=120_000,
            warmup_requests=12_000,
            rng=np.random.default_rng(3),
        )
        assert sample.column("server_max").mean() == pytest.approx(
            1.0 / (mu - lam), rel=0.05
        )

    def test_batch_queue_matches_pollaczek_khinchine(self):
        # Fixed batches of k keys at one server: batch waits follow
        # M/G/1 with Erlang(k) service, and TS = W + full batch service,
        # so E[TS] = lam_b k(k+1)/mu^2 / (2(1-rho)) + k/mu.
        mu, k, lam_b = 80_000.0, 25, 2_000.0
        rho = lam_b * k / mu
        expected_wait = lam_b * k * (k + 1) / mu**2 / (2.0 * (1.0 - rho))
        sample = simulate_system_requests(
            [1.0],
            mu,
            n_keys=k,
            request_rate=lam_b,
            n_requests=150_000,
            warmup_requests=15_000,
            rng=np.random.default_rng(4),
        )
        assert sample.column("server_max").mean() == pytest.approx(
            expected_wait + k / mu, rel=0.05
        )

    def test_overloaded_database_transient_grows_with_run_length(self):
        # rho_D > 1: the database queue (and TD with it) grows with the
        # simulated horizon instead of reaching stationarity — the
        # regime the event engine exhibits on the paper's 5.1 point.
        kwargs = dict(
            shares=[1.0],
            service_rate=80_000.0,
            n_keys=10,
            request_rate=2_000.0,
            miss_ratio=0.2,
            database_rate=2_000.0,  # 4000 misses/s offered
            network_delay=0.0,
        )
        short = simulate_system_requests(
            n_requests=300,
            warmup_requests=0,
            rng=np.random.default_rng(6),
            **kwargs,
        )
        long = simulate_system_requests(
            n_requests=3_000,
            warmup_requests=0,
            rng=np.random.default_rng(6),
            **kwargs,
        )
        assert long.column("db_max").mean() > 2.0 * short.column("db_max").mean()

    def test_fork_join_grows_with_n_keys(self):
        means = []
        for n_keys in (1, 8, 32):
            sample = run_small(
                n_keys=n_keys,
                request_rate=20_000.0 / n_keys,
                rng=np.random.default_rng(8),
            )
            means.append(sample.column("server_max").mean())
        assert means[0] < means[1] < means[2]


class TestLindleyHelper:
    def test_matches_sequential_recursion(self):
        rng = np.random.default_rng(9)
        service = rng.exponential(1.0, 500)
        gaps = rng.exponential(1.2, 499)
        waits = lindley_waits(service, gaps)
        w, expected = 0.0, []
        for i in range(500):
            expected.append(w)
            if i < 499:
                w = max(0.0, w + service[i] - gaps[i])
        assert np.allclose(waits, expected)

    def test_batch_fifo_matches_per_key_loop(self):
        rng = np.random.default_rng(21)
        sizes = rng.integers(1, 4, size=60)
        sizes[[3, 4, 5]] = 1
        sizes[17] = 40  # one long batch
        gaps = rng.exponential(1.5, size=59)
        gaps[[10, 30]] = 500.0  # idle periods: the queue empties
        services = rng.exponential(1.0, size=int(sizes.sum()))
        fifo = batch_fifo(gaps, sizes, services)
        sojourn, starts = fifo.sojourn(), fifo.starts

        batch_arrival = np.concatenate(([0.0], np.cumsum(gaps)))
        expected, finish, key = [], 0.0, 0
        for arrival, size in zip(batch_arrival, sizes):
            for _ in range(size):
                finish = max(arrival, finish) + services[key]
                expected.append(finish - arrival)
                key += 1
        assert np.allclose(sojourn, expected)
        batch_of_key = np.repeat(np.arange(sizes.size), sizes)
        assert (batch_of_key[starts] == np.arange(sizes.size)).all()
        assert (batch_of_key[starts[1:] - 1] == np.arange(sizes.size - 1)).all()

    def test_single_arrival_waits_zero(self):
        assert lindley_waits(np.array([1.0]), np.array([])) == pytest.approx(
            [0.0]
        )


def random_stream(seed: int, n_batches: int):
    """A random batch stream (sizes 1..200) through the FIFO kernel."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 201, size=n_batches)
    gaps = rng.exponential(100.0, size=n_batches - 1)
    services = rng.exponential(1.0, size=int(sizes.sum()))
    batch_arrival = np.concatenate(([5.0], 5.0 + np.cumsum(gaps)))
    return services, batch_arrival, batch_fifo(gaps, sizes, services)


def bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


class TestBatchLevelReads:
    """The batch-level reads equal the full per-key array, bit for bit."""

    @pytest.mark.parametrize("seed,n_batches", [(1, 1), (2, 2), (3, 80), (4, 300)])
    def test_last_and_at_equal_sojourn_gathered(self, seed, n_batches):
        _, _, fifo = random_stream(seed, n_batches)
        sojourn = fifo.sojourn()
        ends = fifo.starts + fifo.sizes - 1
        assert bits(fifo.last()) == bits(sojourn[ends])
        batch_of_key = np.repeat(np.arange(fifo.sizes.size), fifo.sizes)
        keys = np.sort(
            np.random.default_rng(seed).choice(
                sojourn.size, size=min(sojourn.size, 50), replace=False
            )
        )
        assert bits(fifo.at(keys, batch_of_key[keys])) == bits(sojourn[keys])
        assert bits(fifo.at(ends, np.arange(ends.size))) == bits(sojourn[ends])

    @pytest.mark.parametrize("seed,n_batches", [(5, 1), (6, 60), (7, 250)])
    def test_service_done_by_equals_mask_sum(self, seed, n_batches):
        services, batch_arrival, fifo = random_stream(seed, n_batches)
        server = _ServerPass(services, batch_arrival, fifo)
        completion = server.completions()
        assert (completion[1:] >= completion[:-1]).all()
        # An interior key of the largest batch, and its successor.
        big = int(np.argmax(fifo.sizes))
        key = int(fifo.starts[big]) + int(fifo.sizes[big]) // 2 - 1
        cutoffs = [
            completion[0] - 1.0,  # before the first completion
            float(np.nextafter(completion[key + 1], -np.inf)),  # inside
            completion[key],  # exactly at a completion
            completion[fifo.starts[-1]],  # at the last batch's first key
            completion[-1],  # exactly at the last completion
            completion[-1] + 1.0,  # after the last
        ]
        for cutoff in cutoffs:
            done = _finished_between(completion, -np.inf, cutoff)
            expected = float(services[done].sum())
            assert server.service_done_by(cutoff) == expected, cutoff

    def test_idle_server_did_no_work(self):
        server = _ServerPass.idle()
        assert server.service_done_by(1.0) == 0.0
        arrival, start, finish = server.jobs(0.0, 1.0)
        assert arrival.size == start.size == finish.size == 0

    def test_backwards_batch_boundary_takes_the_mask_path(self):
        # Batch 1's first key finishes one ulp before batch 0's last, so
        # the keys done by that instant are not a prefix.
        behind = float(np.nextafter(2.0, 0.0))
        services = np.array([1.0, 1.0, 0.5, 1.0])
        fifo = BatchFifo(
            sizes=np.array([2, 2]),
            starts=np.array([0, 2]),
            prefix=np.cumsum(services),
            before=np.array([0.0, 2.0]),
            waits=np.array([0.0, behind - 0.5]),
        )
        server = _ServerPass(services, np.zeros(2), fifo)
        completion = server.completions()
        assert completion[2] == behind < completion[1] == 2.0
        for cutoff in (0.5, 1.0, behind, 2.0, 2.5, 4.0):
            mask = (completion > -np.inf) & (completion <= cutoff)
            assert server.service_done_by(cutoff) == float(
                services[mask].sum()
            ), cutoff
        assert server.service_done_by(behind) == 1.5


class TestPassBuffers:
    """The pass draws into pass-wide buffers the values that fresh
    per-server draws would give."""

    @pytest.mark.parametrize(
        "n",
        [
            1,
            _UNIFORM_CHUNK - 1,
            _UNIFORM_CHUNK,
            _UNIFORM_CHUNK + 1,
            3 * _UNIFORM_CHUNK + 5,
        ],
    )
    def test_chunked_miss_keys_equal_one_draw(self, n):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        missed = _miss_keys(rng, n, 0.3, np.empty(_UNIFORM_CHUNK))
        expected = np.flatnonzero(twin.random(n) < 0.3)
        assert missed.dtype == expected.dtype
        np.testing.assert_array_equal(missed, expected)
        # Both generators consumed the same stream.
        assert rng.random() == twin.random()

    def test_no_miss_gives_an_empty_index(self):
        missed = _miss_keys(
            np.random.default_rng(5), 100, 5e-324, np.empty(_UNIFORM_CHUNK)
        )
        assert missed.size == 0 and missed.dtype == np.intp

    def test_services_equal_exponential_draws(self):
        """numpy draws ``exponential(scale)`` as ``scale *
        standard_exponential``; the pass relies on it."""
        shares, service_rate = np.array([0.3, 0.7]), 80e3
        n_keys, n_spawn = 10, 500
        result = _simulate_pass(
            n_spawn,
            shares_arr=shares,
            service_rate=service_rate,
            n_keys=n_keys,
            request_rate=2_000.0,
            network_delay=20e-6,
            miss_ratio=0.0,
            database_rate=None,
            rng=np.random.default_rng(9),
        )
        twin = np.random.default_rng(9)
        twin.exponential(1.0 / 2_000.0, size=n_spawn)
        counts = twin.multinomial(n_keys, shares, size=n_spawn)
        for j, server in enumerate(result.servers):
            expected = twin.exponential(
                1.0 / service_rate, size=int(counts[:, j].sum())
            )
            assert bits(server.services) == bits(expected)

    def test_utilizations_read_as_a_tuple(self):
        results = run_small()
        utilizations = results.server_utilizations
        values = tuple(utilizations)
        assert len(utilizations) == 2 and utilizations[1] == values[1]
        assert utilizations == values and hash(utilizations) == hash(values)
        assert repr(utilizations) == repr(values)
        restored = pickle.loads(pickle.dumps(utilizations))
        assert type(restored) is tuple and restored == values
