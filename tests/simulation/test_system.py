"""Tests for the closed-loop system simulator."""

import gc
import re
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core import ClusterModel
from repro.distributions import make_rng, split_rng
from repro.errors import ValidationError
from repro.faults import DatabaseOverload, FaultSchedule, ServerPause, ServerSlowdown
from repro.memcached import MemcachedCluster, SimulatedCacheBackend
from repro.observability import Histogram, Observability, tracing
from repro.policies import RequestPolicy
from repro.simulation import (
    LatencyRecorder,
    MemcachedSystemSimulator,
    simulate_system_requests,
)
from repro.simulation import server as server_module
from repro.simulation import system as system_module
from repro.simulation.engine import Simulator
from repro.simulation.scheduler import HeapScheduler
from repro.simulation.server import QueueLog, ServerSim
from repro.units import kps, msec, usec


def build_system(**overrides):
    defaults = dict(
        n_keys_per_request=20,
        request_rate=100.0,
        network_delay=usec(20),
        miss_ratio=0.01,
        database_rate=1.0 / msec(1),
        seed=7,
    )
    defaults.update(overrides)
    cluster = defaults.pop("cluster", ClusterModel.balanced(4, kps(80)))
    return MemcachedSystemSimulator(cluster, **defaults)


class TestBasicRun:
    def test_completes_requests(self):
        system = build_system()
        results = system.run(n_requests=300)
        assert results.total.count == 300
        assert results.keys_processed >= 300 * 20

    def test_component_decomposition(self):
        results = build_system().run(n_requests=300)
        # T(N) >= each stage max (eq. (1) lower bound, per request means).
        assert results.total.mean >= results.server_stage.mean
        assert results.total.mean >= results.database_stage.mean
        assert results.total.mean >= results.network_stage.mean

    def test_network_at_least_two_traversals(self):
        results = build_system().run(n_requests=100)
        assert results.network_stage.mean >= 2 * usec(20) - 1e-12

    def test_measured_miss_ratio_near_r(self):
        results = build_system(n_keys_per_request=50).run(n_requests=600)
        assert results.measured_miss_ratio == pytest.approx(0.01, abs=0.005)

    def test_no_database_when_r_zero(self):
        system = build_system(miss_ratio=0.0, database_rate=None)
        results = system.run(n_requests=100)
        assert results.database_stage.mean == 0.0
        assert results.misses == 0

    def test_reproducible_with_seed(self):
        a = build_system(seed=42).run(n_requests=100)
        b = build_system(seed=42).run(n_requests=100)
        assert a.total.mean == b.total.mean

    def test_same_seed_bit_identical_samples(self):
        a = build_system(seed=42).run(n_requests=200)
        b = build_system(seed=42).run(n_requests=200)
        assert a.total.samples().tolist() == b.total.samples().tolist()
        assert a.server_stage.samples().tolist() == b.server_stage.samples().tolist()
        assert a.misses == b.misses

    def test_component_streams_independent_of_prior_rng_use(self):
        # Regression: component streams used to be drawn from the master
        # generator's stream, so any prior consumption of a shared
        # generator reassigned every component's randomness.
        from repro.distributions import make_rng

        fresh = make_rng(42)
        consumed = make_rng(42)
        consumed.random(777)
        a = build_system(seed=fresh).run(n_requests=150)
        b = build_system(seed=consumed).run(n_requests=150)
        assert a.total.samples().tolist() == b.total.samples().tolist()

    def test_different_seeds_differ(self):
        a = build_system(seed=1).run(n_requests=100)
        b = build_system(seed=2).run(n_requests=100)
        assert a.total.mean != b.total.mean

    def test_warmup_discards_early_samples(self):
        system = build_system()
        results = system.run(n_requests=200, warmup_requests=50)
        assert results.total.count == pytest.approx(200, abs=50)

    def test_utilizations_reported(self):
        results = build_system().run(n_requests=300)
        assert len(results.server_utilizations) == 4
        assert all(0 <= u <= 1 for u in results.server_utilizations)


class TestLoadBehaviour:
    def test_higher_load_higher_latency(self):
        light = build_system(request_rate=50.0).run(n_requests=400)
        heavy = build_system(request_rate=500.0).run(n_requests=400)
        assert heavy.server_stage.mean > light.server_stage.mean

    def test_mm1_utilization_matches_offered_load(self):
        # 20 keys/request * 100 req/s spread over 4 servers of 80 Kps
        # = 500 keys/s per server -> rho ~ 0.00625 (light).
        results = build_system().run(n_requests=500)
        for utilization in results.server_utilizations:
            assert utilization == pytest.approx(500.0 / kps(80), rel=0.5)

    def test_imbalanced_cluster_loads_hot_server(self):
        cluster = ClusterModel.hot_cold(4, kps(80), hottest_share=0.7)
        results = build_system(cluster=cluster, request_rate=300.0).run(
            n_requests=400
        )
        utils = results.server_utilizations
        assert utils[0] > max(utils[1:]) * 2

    def test_induced_workload_model(self):
        system = build_system()
        workload = system.induced_server_workload(0)
        # rate = request_rate * N * p_j = 100 * 20 * 0.25 = 500.
        assert workload.rate == pytest.approx(500.0)
        assert 0.0 <= workload.q < 1.0


class TestValidation:
    def test_rejects_bad_n_keys(self):
        with pytest.raises(ValidationError):
            build_system(n_keys_per_request=0)

    def test_rejects_bad_request_rate(self):
        with pytest.raises(ValidationError):
            build_system(request_rate=0.0)

    def test_requires_db_rate_with_misses(self):
        with pytest.raises(ValidationError):
            build_system(database_rate=None)

    def test_requires_db_rate_with_a_cache_backend(self):
        """A cache backend's misses need a database: without one a miss
        would be counted and cost nothing."""
        backend = SimulatedCacheBackend(MemcachedCluster(4, 1 << 20), n_items=100)
        with pytest.raises(ValidationError, match="database_rate is required"):
            build_system(miss_ratio=0.0, database_rate=None, cache_backend=backend)
        assert backend.lookups == 0

    def test_rejects_miss_ratio_with_a_cache_backend(self):
        """The cache decides every miss, so a Bernoulli r would be
        silently ignored."""
        backend = SimulatedCacheBackend(MemcachedCluster(4, 1 << 20), n_items=100)
        with pytest.raises(ValidationError, match="miss_ratio must be 0"):
            build_system(miss_ratio=0.01, cache_backend=backend)
        build_system(miss_ratio=0.0, cache_backend=backend)

    def test_rejects_zero_requests(self):
        with pytest.raises(ValidationError):
            build_system().run(n_requests=0)

    def test_rejects_negative_warmup_like_fastpath_system(self):
        message = "^warmup_requests must be >= 0, got -3$"
        with pytest.raises(ValidationError, match=message):
            build_system().run(n_requests=10, warmup_requests=-3)
        with pytest.raises(ValidationError, match=message):
            simulate_system_requests(
                [0.25] * 4,
                kps(80),
                n_keys=20,
                request_rate=100.0,
                n_requests=10,
                rng=np.random.default_rng(0),
                warmup_requests=-3,
            )


class TestOneRecord:
    """Every per-request view is derived from the engine's one record."""

    def test_every_view_agrees(self):
        obs = Observability(
            trace=True, metrics=True, profile=True, attribution=True, timeline=8
        )
        system = build_system(
            request_rate=400.0,
            seed=5,
            observability=obs,
            policy=RequestPolicy(hedge_delay=usec(150), cancel_on_winner=True),
        )
        results = system.run(n_requests=250, warmup_requests=40)
        totals = results.total.samples()
        assert totals.size == results.requests_completed == 250

        log = results.request_log
        assert [r.total for r in log] == totals.tolist()
        assert [r.server for r in log] == results.server_stage.samples().tolist()

        registry = obs.registry
        expected = Histogram()
        expected.record_many(totals)
        hist = registry.get("request.total")
        assert hist.buckets() == expected.buckets()
        assert hist.count == expected.count == 250
        assert registry.get("requests.completed").value == 250
        # Keys and misses after the warmup boundary, counted by the
        # per-key recorder and the database's arrival counter.
        assert registry.get("keys.processed").value == results.per_key_server.count
        misses = registry.get("keys.missed").value
        assert 0 < misses == registry.get("database.arrivals").value
        assert 0 < results.per_key_server.count < results.keys_processed

        assert float(results.timeline.completions.sum()) == 250.0

        attribution = results.attribution
        assert attribution.count == 250
        np.testing.assert_array_equal(attribution.total, totals)
        assert np.all(attribution.conservation_residuals() == 0.0)


class TestQueueCollectors:
    """The registry's per-queue collectors are derived at run end from
    the queue logs, split at the warmup boundary as recording each key
    as it went would split them."""

    def test_warmup_boundary_splits_queue_collectors(self):
        obs = Observability(trace=False, metrics=True, profile=False)
        system = build_system(
            request_rate=8000.0, miss_ratio=0.003, seed=11, observability=obs
        )
        queues = {f"server-{j}": s for j, s in enumerate(system._servers)}
        queues["database"] = system._database
        offers = {name: [] for name in queues}
        served = {name: [] for name in queues}
        boundary = []

        def run_keys(run, upto):
            """(arrival, start, finish) of a server run's first keys."""
            starts = [run.start] + run.times[:-1]
            return [(run.arrival, s, f) for s, f in zip(starts, run.times[:upto])]

        def watch(name, queue):
            offer_batch, on_complete = queue.offer_batch, queue._on_complete

            def offer(now, size, **kwargs):
                # Keys ahead: those the queue entries hold, the unstarted
                # keys of a server's run in service, and the key in
                # service.
                held = sum(entry[4] - entry[3] for entry in queue._queue)
                if queue._run is not None:
                    held += queue._run.last - queue._run.done
                offers[name].append((now, held + queue.busy, size))
                offer_batch(now, size, **kwargs)

            def complete(context, arrival, start, finish):
                served[name].append((arrival, start, finish))
                on_complete(context, arrival, start, finish)

            queue.offer_batch, queue._on_complete = offer, complete

        for name, queue in queues.items():
            watch(name, queue)
        # Server keys finish in runs, which the simulator accounts: a run
        # is complete when its last key finishes.
        def ended(name, run):
            served[name].extend(run_keys(run, run.last + 1))
            system._end_run(run)

        for j, queue in enumerate(system._servers):
            queue._on_run_end = partial(ended, f"server-{j}")
        reset = system._reset_recorders

        def mark_boundary():
            boundary.append((system.sim.now, system._misses))
            reset()

        system._reset_recorders = mark_boundary
        results = system.run(n_requests=200, warmup_requests=50)
        # Runs in service at the stop: the keys finished before it.
        for name, queue in queues.items():
            if queue._run is not None:
                served[name].extend(run_keys(queue._run, queue._run.done))
        (t0, misses_before), = boundary
        registry = obs.registry
        straddling = 0
        for name in queues:
            wait, service, depth = Histogram(), Histogram(), Histogram(min_value=1.0)
            for arrival, start, finish in sorted(served[name], key=lambda row: row[2]):
                if finish > t0:
                    wait.record(start - arrival)
                    service.record(finish - start)
                    straddling += arrival < t0
            arrivals = 0
            for now, ahead, size in offers[name]:
                if now > t0:
                    arrivals += size
                    for position in range(size):
                        depth.record(ahead + position)
            for metric, expected in (
                ("wait", wait), ("service", service), ("queue_depth", depth)
            ):
                got = registry.histogram(f"{name}.{metric}").to_dict()
                want = expected.to_dict()
                assert want["count"] > 0, (name, metric)
                # Exact but for the sums, which are summed in another order.
                for field in ("sum", "sumsq"):
                    assert got.pop(field) == pytest.approx(want.pop(field), rel=1e-12)
                assert got == want, (name, metric)
            assert registry.counter(f"{name}.arrivals").value == arrivals
        # Keys offered before the boundary and finished after it count in
        # wait/service only.
        assert straddling > 0
        misses = results.misses - misses_before
        assert registry.counter("keys.missed").value == misses
        assert registry.counter("database.arrivals").value == misses > 0


class TestEventsPerKey:
    """A server run is one event: the simulator accounts a run's keys in
    bulk before each later event, and only a run's last key and a key
    that misses take an event of their own. Neither network hop of a
    policy-free key is an event: a request's arrival is one event, when
    its keys reach their servers, and a constant network delay keeps
    FIFO order, so of the return hops only a request's completion is an
    event."""

    N_KEYS = 20
    N_SERVERS = 4

    def run(self, monkeypatch, **overrides):
        """The seeded run, with the number of server runs it started."""
        runs = 0
        original = server_module.ServerRun.__init__

        def counted(self, *args):
            nonlocal runs
            runs += 1
            original(self, *args)

        monkeypatch.setattr(server_module.ServerRun, "__init__", counted)
        system = build_system(request_rate=400.0, seed=3, **overrides)
        results = system.run(n_requests=300, warmup_requests=30)
        return system, results, runs

    def bound(self, system, results, runs):
        """Per run: its last finish. Per miss: the missed key's own event
        (a key inside a run) and its database completion. Per request:
        its arrival, which delivers all its batches, and its
        completion."""
        spawned = system._next_request_id
        return runs + 2 * spawned + 2 * results.misses

    def test_one_event_per_run(self, monkeypatch):
        system, results, runs = self.run(monkeypatch)
        keys_generated = system._next_request_id * self.N_KEYS
        assert results.misses > 0
        assert runs < keys_generated
        assert system.sim.events_processed <= self.bound(system, results, runs)

    def test_wide_requests_cost_a_fraction_of_an_event_per_key(self, monkeypatch):
        """Events grow with requests, servers and misses, not with keys:
        a 20-key request costs about six (its arrival, a run on each of
        four servers, its completion), a 150-key one not many more."""
        system, results, runs = self.run(monkeypatch, n_keys_per_request=150)
        keys_generated = system._next_request_id * 150
        assert system.sim.events_processed <= self.bound(system, results, runs)
        assert system.sim.events_processed < keys_generated / 4

    @pytest.mark.parametrize("delay", [0.0, usec(20), msec(10)])
    def test_no_network_event_without_a_policy(self, monkeypatch, delay):
        """A policy-free, cache-free run never sends on the network: the
        arrival event offers every batch itself."""
        sends = 0
        original = system_module.NetworkSim.send

        def send(self, deliver):
            nonlocal sends
            sends += 1
            return original(self, deliver)

        monkeypatch.setattr(system_module.NetworkSim, "send", send)
        system, results, runs = self.run(monkeypatch, network_delay=delay)
        assert sends == 0
        assert results.requests_completed == 300
        assert system.sim.events_processed <= self.bound(system, results, runs)

    def test_policy_attempts_keep_their_hop(self, monkeypatch):
        """A policy's attempts still cross the network as one event per
        batch: their timers may fire while they are on the wire."""
        sends = 0
        original = system_module.NetworkSim.send

        def send(self, deliver):
            nonlocal sends
            sends += 1
            return original(self, deliver)

        monkeypatch.setattr(system_module.NetworkSim, "send", send)
        system = build_system(
            request_rate=400.0,
            seed=3,
            policy=RequestPolicy(hedge_delay=msec(2), cancel_on_winner=True),
        )
        system.run(n_requests=100)
        assert sends >= system._next_request_id

    def test_fewer_scheduler_pushes_than_keys(self, monkeypatch):
        """A batch's keys finish as one scheduled run, so the whole system
        pushes fewer scheduler entries than it generates keys; scheduling
        each key's finish on its own needs one push per key."""
        pushes = 0
        original = HeapScheduler.push

        def push(self, time, seq, obj):
            nonlocal pushes
            pushes += 1
            original(self, time, seq, obj)

        monkeypatch.setattr(HeapScheduler, "push", push)
        system, results, runs = self.run(monkeypatch)
        keys_generated = system._next_request_id * self.N_KEYS
        assert 0 < pushes < keys_generated
        assert system.sim.events_processed <= self.bound(system, results, runs)

    def test_traced_run_builds_no_spans_or_contexts(self, monkeypatch):
        """A traced, policy-free run takes the shared-payload path: while
        it runs it builds no span and no key context, and its batches
        finish as server runs. Spans are built when the tracer is read."""
        counts = {"Span": 0, "_KeyContext": 0, "push": 0}
        running = False

        def counting(name, original):
            def wrapper(*args, **kwargs):
                if running:
                    counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            tracing.Span, "__init__", counting("Span", tracing.Span.__init__)
        )
        monkeypatch.setattr(
            system_module._KeyContext,
            "__init__",
            counting("_KeyContext", system_module._KeyContext.__init__),
        )
        monkeypatch.setattr(
            HeapScheduler, "push", counting("push", HeapScheduler.push)
        )
        obs = Observability(trace=True, metrics=False)
        system = build_system(request_rate=400.0, seed=3, observability=obs)
        run = system.sim.run

        def counted_run(*args, **kwargs):
            nonlocal running
            running = True
            try:
                return run(*args, **kwargs)
            finally:
                running = False

        system.sim.run = counted_run
        system.run(n_requests=300, warmup_requests=30)
        keys_generated = system._next_request_id * self.N_KEYS
        assert counts["Span"] == counts["_KeyContext"] == 0
        assert 0 < counts["push"] < keys_generated
        assert len(obs.tracer.slowest()[0].children) == self.N_KEYS
        source = Path(system_module.__file__).read_text()
        assert re.search(r"\bSpan\b", source) is None

    def test_key_spans_end_with_their_return_hop(self, monkeypatch):
        obs = Observability(trace=True)
        system, results, _ = self.run(monkeypatch, observability=obs)
        roots = obs.tracer.recent()
        assert len(roots) == results.requests_completed == 300
        total = dict(
            zip(
                results.column("request_id").astype(int).tolist(),
                results.column("total").tolist(),
            )
        )
        for root in roots:
            assert root.duration == total[root.attributes["request_id"]]
            keys = [span for span in root.children if span.name == "key"]
            assert len(keys) == self.N_KEYS
            for key in keys:
                network_in = [c for c in key.children if c.name == "network.in"]
                assert len(network_in) == 1
                assert key.end == network_in[0].end
                assert key.end <= root.end


class TestDrawsWhatItReads:
    """The routing rows, arrival gaps and miss uniforms are drawn in
    growing windows, so a 300-request run draws fewer than twice the
    ones it uses."""

    class Counting:
        """A generator stand-in counting the values drawn from it."""

        def __init__(self, rng):
            self.rng = rng
            self.drawn = 0

        def exponential(self, scale, size):
            self.drawn += size
            return self.rng.exponential(scale, size)

        def multinomial(self, n, pvals, size):
            self.drawn += size
            return self.rng.multinomial(n, pvals, size=size)

        def random(self, size):
            self.drawn += size
            return self.rng.random(size)

    def test_draws_under_twice_their_use(self, monkeypatch):
        streams = {}

        def split(rng, count):
            children = split_rng(rng, count)
            for index in (0, 1, 3):  # requests, routing, misses
                children[index] = streams[index] = self.Counting(children[index])
            return children

        monkeypatch.setattr(system_module, "split_rng", split)
        system = build_system(request_rate=400.0, seed=3)
        results = system.run(n_requests=300)
        arrivals, routing, misses = (streams[i].drawn for i in (0, 1, 3))
        requests = system._next_request_id
        keys = system._keys_processed
        assert results.requests_completed == 300
        assert requests <= arrivals < 2 * requests
        assert requests <= routing < 2 * requests
        assert keys <= misses < 2 * keys


class TestServerRunAccounting:
    """Without a request policy, the simulator accounts a server run's
    keys in bulk before each later event; only a run's last key and a
    key that misses take the per-key path, each at its own event with
    the clock at its finish. A cache backend's keys are run keys too."""

    def test_no_completion_callback_for_a_run_key(self, monkeypatch):
        calls = {"complete": 0, "per_key": 0, "inside": 0, "contexts": 0}
        on_complete = system_module.MemcachedSystemSimulator._on_server_complete
        serve = system_module.MemcachedSystemSimulator._serve_run_key
        key_context = system_module._KeyContext

        def counted_complete(self, *args):
            calls["complete"] += 1
            on_complete(self, *args)

        def counted_serve(self, run, index, missed=False):
            calls["per_key"] += 1
            calls["inside"] += index < run.last and not missed
            serve(self, run, index, missed)

        def counted_context(*args, **kwargs):
            calls["contexts"] += 1
            return key_context(*args, **kwargs)

        monkeypatch.setattr(
            system_module.MemcachedSystemSimulator, "_on_server_complete",
            counted_complete,
        )
        monkeypatch.setattr(
            system_module.MemcachedSystemSimulator, "_serve_run_key", counted_serve
        )
        monkeypatch.setattr(system_module, "_KeyContext", counted_context)
        system = build_system(request_rate=2000.0, miss_ratio=0.05, seed=4)
        results = system.run(n_requests=300, warmup_requests=30)
        assert calls["complete"] == 0
        assert calls["contexts"] == 0
        assert calls["inside"] == 0
        assert results.misses > 0
        assert 0 < calls["per_key"] < results.keys_processed / 2

        # A cache backend decides every hit; its hits inside a run are
        # accounted in bulk all the same.
        calls.update(dict.fromkeys(calls, 0))
        backend = SimulatedCacheBackend(
            MemcachedCluster(4, 1 << 20), n_items=2_000, rng=np.random.default_rng(3)
        )
        backend.warm(0.5)
        system = build_system(
            request_rate=2000.0, miss_ratio=0.0, cache_backend=backend, seed=4
        )
        results = system.run(n_requests=300, warmup_requests=30)
        assert calls["complete"] == 0
        assert calls["contexts"] == 0
        assert calls["inside"] == 0
        assert backend.lookups == system._keys_processed
        assert 0 < results.misses < calls["per_key"] < results.keys_processed / 2

    def test_missed_key_inside_a_run_fires_at_its_finish(self, monkeypatch):
        seen = []
        miss_key = system_module.MemcachedSystemSimulator._miss_key

        def watched(self, run):
            seen.append((self.sim.now, run.times[run.done], run.done, run.last))
            miss_key(self, run)

        monkeypatch.setattr(system_module.MemcachedSystemSimulator, "_miss_key", watched)
        system = build_system(
            request_rate=3000.0, miss_ratio=0.3, database_rate=1.0 / usec(40), seed=32
        )
        offered = []
        offer_key = system._database.offer_key

        def offer(now, **kwargs):
            offered.append((system.sim.now, now))
            offer_key(now, **kwargs)

        system._database.offer_key = offer
        results = system.run(n_requests=200)
        assert any(0 < index < last for _, _, index, last in seen)
        assert all(now == finish for now, finish, _, _ in seen)
        # Every database arrival, from a run's middle or its end, comes
        # with the clock at the key's server finish.
        assert len(offered) == results.misses > len(seen)
        assert all(now == at for now, at in offered)

    def test_run_rows_expand_to_the_per_key_log(self):
        """Each server's run rows, cut at the warmup mark and the stop,
        expand to the rows a per-key queue logs for the same batches."""
        n_servers, seed = 2, 50
        obs = Observability(trace=False, metrics=True, timeline=4)
        system = build_system(
            cluster=ClusterModel.balanced(n_servers, kps(80)),
            request_rate=3000.0,
            seed=seed,
            observability=obs,
        )
        offers = {j: [] for j in range(n_servers)}
        for j, server in enumerate(system._servers):
            def offer(now, size, offer_batch=server.offer_batch, j=j, **kwargs):
                offers[j].append((now, size))
                offer_batch(now, size, **kwargs)

            server.offer_batch = offer
        results = system.run(n_requests=300, warmup_requests=60)
        boundary = results.timeline.start
        straddled = 0
        for j in range(n_servers):
            log = system._queue_logs[f"server-{j}"]
            # The owned server logs multi-key runs, the unowned replay
            # runs of one.
            assert any(len(finishes) > 1 for _, _, finishes in log.runs)
            sim = Simulator()
            replay_log = QueueLog()
            replay = ServerSim.exponential(
                sim, kps(80), split_rng(make_rng(seed), 5 + n_servers)[5 + j],
                log=replay_log,
            )
            for now, size in offers[j]:
                sim.schedule_at(now, partial(replay.offer_batch, now, size))
            sim.run()
            rows = log.key_rows()
            assert all(len(finishes) == 1 for _, _, finishes in replay_log.runs)
            assert rows == replay_log.key_rows()[: len(rows)]
            arrival, start, finish = log.job_columns()
            cut = len(rows) - finish.size
            assert list(zip(arrival.tolist(), start.tolist(), finish.tolist())) == rows[cut:]
            assert all(row[2] <= boundary for row in rows[:cut])
            assert all(row[2] > boundary for row in rows[cut:])
            # One batch's keys served back to back across the boundary.
            before, after = rows[cut - 1], rows[cut]
            straddled += before[0] == after[0] and before[2] == after[1]
        assert straddled


class TestFinishedRunIsFreed:
    """A finished run breaks its reference cycles (pending events hold
    the simulator's bound methods, queues hold its completion
    callbacks), so dropping the last reference frees it at once."""

    CASES = {
        "plain": {},
        "policy": dict(
            policy=RequestPolicy(hedge_delay=msec(0.2), timeout=msec(1), max_retries=1)
        ),
        "tracer": dict(observability=Observability(trace=True, metrics=True)),
        "faults": dict(
            faults=FaultSchedule(
                (
                    ServerSlowdown(start=1.0, duration=2.0, factor=0.5, server=0),
                    ServerPause(start=2.5, duration=0.05, server=1),
                    DatabaseOverload(start=1.5, duration=1.0),
                )
            )
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_freed_by_reference_counting(self, case):
        expected = build_system(seed=11, **self.CASES[case]).run(n_requests=500)
        gc.collect()
        gc.disable()
        try:
            system = build_system(seed=11, **self.CASES[case])
            results = system.run(n_requests=500)
            # What callers read after the run stays readable.
            sim = system.sim
            assert sim.pending_events == 0
            assert sim.events_processed > 0
            assert [
                server.utilization_meter.utilization(sim.now)
                for server in system._servers
            ] == results.server_utilizations
            alive = weakref.ref(system)
            del system, sim
            assert alive() is None
        finally:
            gc.enable()
        assert results.record.tobytes() == expected.record.tobytes()
        assert results.server_utilizations == expected.server_utilizations
        assert (
            results.per_key_server.samples().tobytes()
            == expected.per_key_server.samples().tobytes()
        )
        assert (results.keys_processed, results.misses) == (
            expected.keys_processed,
            expected.misses,
        )


class TestPerKeySojourns:
    def test_chunked_flushes_match_scalar_recording(self, monkeypatch):
        # A small cap, so flushes land before, across and past it.
        monkeypatch.setattr(system_module, "_PER_KEY_SAMPLES", 100)
        values = np.random.default_rng(1).exponential(size=350).tolist()
        expected = LatencyRecorder(max_samples=100)
        for value in values:
            expected.record(value)
        recorder = LatencyRecorder(max_samples=100)
        for start in range(0, len(values), 64):
            system_module._flush_sojourns(recorder, np.array(values[start : start + 64]))
        assert recorder.samples().tobytes() == expected.samples().tobytes()
        assert recorder.count == expected.count == 350
        assert recorder.mean == pytest.approx(expected.mean, rel=1e-12)
        assert recorder.std == pytest.approx(expected.std, rel=1e-9)
