"""Tests for arrival processes and the simulated server."""

from functools import partial

import numpy as np
import pytest

from repro.core import WorkloadPattern
from repro.distributions import (
    Deterministic,
    Exponential,
    FixedCount,
    Geometric,
    RandomWindow,
    Uniform,
)
from repro.errors import SimulationError, ValidationError
from repro.observability import MetricsRegistry
from repro.queueing import MG1Queue
from repro.simulation import BatchArrivalProcess, ServerSim, Simulator
from repro.simulation.server import QueueLog
from repro.simulation.system import _fill_queue_metrics


class TestBatchArrivalProcess:
    def test_delivers_batches(self, rng):
        sim = Simulator()
        received = []
        process = BatchArrivalProcess(Exponential(100.0), Geometric(0.2), rng)
        process.start(sim, lambda t, size: received.append((t, size)))
        sim.run_until(1.0)
        assert len(received) > 50
        assert all(size >= 1 for _, size in received)
        times = [t for t, _ in received]
        assert times == sorted(times)

    def test_rate_approximately_correct(self, rng):
        sim = Simulator()
        received = []
        process = BatchArrivalProcess(Exponential(1000.0), FixedCount(1), rng)
        process.start(sim, lambda t, size: received.append(t))
        sim.run_until(5.0)
        assert len(received) == pytest.approx(5000, rel=0.1)

    def test_stop_halts_generation(self, rng):
        sim = Simulator()
        received = []
        process = BatchArrivalProcess(Exponential(100.0), FixedCount(1), rng)
        process.start(sim, lambda t, size: received.append(t))
        sim.run_until(0.5)
        count = len(received)
        process.stop()
        sim.run_until(1.0)
        assert len(received) <= count + 1

    def test_double_start_rejected(self, rng):
        sim = Simulator()
        process = BatchArrivalProcess(Exponential(100.0), FixedCount(1), rng)
        process.start(sim, lambda t, s: None)
        with pytest.raises(ValidationError):
            process.start(sim, lambda t, s: None)

    def test_from_workload_matches_pattern(self, rng):
        workload = WorkloadPattern.facebook()
        process = BatchArrivalProcess.from_workload(workload, rng)
        assert process._gap.rate == pytest.approx(workload.batch_rate)


class TestWindowedBatchArrivals:
    """Opt-in windowed mode: pre-drawn gaps/sizes riding one event batch."""

    def make_process(self, seed, window):
        return BatchArrivalProcess(
            Exponential(100.0),
            Geometric(0.2),
            np.random.default_rng(seed),
            window=window,
        )

    def run_windowed(self, seed, window, until=1.0):
        sim = Simulator()
        received = []
        process = self.make_process(seed, window)
        process.start(sim, lambda t, size: received.append((t, size)))
        sim.run_until(until)
        return received

    def test_delivers_batches(self):
        received = self.run_windowed(42, window=16)
        assert len(received) > 50
        assert all(size >= 1 for _, size in received)
        times = [t for t, _ in received]
        assert times == sorted(times)

    def test_invariant_to_window_size(self):
        # The whole point of split gap/size streams: the seeded output
        # must not depend on how many values are pre-drawn per refill.
        a = self.run_windowed(7, window=1)
        b = self.run_windowed(7, window=13)
        c = self.run_windowed(7, window=4096)
        assert a == b == c

    def test_uses_one_scheduler_entry_per_window(self):
        sim = Simulator()
        process = self.make_process(3, window=64)
        process.start(sim, lambda t, size: None)
        assert sim.scheduler_entries == 1
        assert sim.pending_events == 64

    def test_stop_cancels_pending_window(self):
        sim = Simulator()
        received = []
        process = self.make_process(5, window=32)
        process.start(sim, lambda t, size: received.append(t))
        sim.run_until(0.05)
        process.stop()
        count = len(received)
        sim.run()
        assert len(received) == count
        assert sim.pending_events == 0

    def test_window_must_be_positive(self):
        with pytest.raises(ValidationError):
            self.make_process(1, window=0)


def recording_server(sim, rate, seed, **kwargs):
    """A ``ServerSim`` whose completions land in the returned list as
    ``(context, arrival, start, finish)``."""
    done = []
    server = ServerSim.exponential(
        sim,
        rate,
        np.random.default_rng(seed),
        on_complete=lambda *values: done.append(values),
        **kwargs,
    )
    return server, done


def service_stream(rate, seed):
    """The service times a server seeded with ``seed`` draws, in order."""
    return RandomWindow.from_distribution(
        Exponential(rate), np.random.default_rng(seed)
    )


class _Attempt:
    """A context with the ``abandoned`` flag a queue reads at its head."""

    def __init__(self, name):
        self.name = name
        self.abandoned = False


class TestServerSim:
    def test_fifo_single_key(self, rng):
        sim = Simulator()
        done = []
        server = ServerSim.exponential(
            sim, 100.0, rng, on_complete=lambda *values: done.append(values)
        )
        server.offer_key(0.0)
        sim.run()
        assert len(done) == 1
        context, arrival, start, finish = done[0]
        assert context is None
        assert start - arrival == 0.0
        assert finish - arrival > 0.0

    def test_batch_positions_tracked(self, rng):
        sim = Simulator()
        done = []
        server = ServerSim.exponential(
            sim, 100.0, rng, on_complete=lambda *values: done.append(values)
        )
        server.offer_batch(0.0, 3, contexts=[1, 2, 3])
        sim.run()
        # FIFO within the batch: keys finish in position order, each
        # starting when the one ahead of it finishes.
        assert [context for context, *_ in done] == [1, 2, 3]
        assert {arrival for _, arrival, _, _ in done} == {0.0}
        starts = [start for _, _, start, _ in done]
        finishes = [finish for *_, finish in done]
        assert finishes == sorted(finishes)
        assert starts[1:] == finishes[:-1]

    def test_busy_server_chains_batch_keys(self):
        """A batch reaching a busy server starts each key at the finish
        of the key ahead of it; a shared context reaches every key."""
        stream = service_stream(100.0, 7)
        sim = Simulator()
        server, done = recording_server(sim, 100.0, 7)
        server.offer_batch(0.0, 2, contexts=["a0", "a1"])
        sim.schedule_at(1e-4, lambda: server.offer_batch(sim.now, 3, context="b"))
        sim.run()
        clock, expected = 0.0, []
        for context, arrival in [("a0", 0.0), ("a1", 0.0)] + [("b", 1e-4)] * 3:
            start = clock
            clock = start + stream.get()
            expected.append((context, arrival, start, clock))
        assert expected[0][3] > 1e-4  # the batch found the server busy
        assert done == expected
        assert server.completed == 5

    def test_paused_server_starts_nothing_until_resume(self):
        """No key starts (and no service is drawn) inside a pause; the
        key in service when the pause begins runs out."""
        first = service_stream(100.0, 11).get()
        begin, end = first / 2.0, first + 0.5

        def pause_until(t):
            return end if begin <= t < end else t

        sim = Simulator()
        server, done = recording_server(sim, 100.0, 11, pause_until=pause_until)
        # Key 0 starts at once; the pause catches it in service, and key
        # 1 waits for the resume event at now + (end - now).
        server.offer_batch(0.0, 2)
        sim.run()
        stream = service_stream(100.0, 11)
        clock, expected = 0.0, []
        for _ in range(2):
            resume = pause_until(clock)
            if resume > clock:
                clock = clock + (resume - clock)
            start = clock
            clock = start + stream.get()
            expected.append((None, 0.0, start, clock))
        assert done == expected
        assert done[0][3] == first and done[1][2] >= end

    def test_pause_at_arrival_defers_first_start(self):
        stream = service_stream(100.0, 3)
        sim = Simulator()
        server, done = recording_server(
            sim, 100.0, 3, pause_until=lambda t: 0.9 if t < 0.9 else t
        )
        sim.schedule_at(0.3, lambda: server.offer_batch(sim.now, 3))
        sim.run()
        # The resume event fires at now + (resume - now), one ulp past
        # 0.9 here, and the first key starts at that instant.
        clock = 0.3 + (0.9 - 0.3)
        assert clock > 0.9
        expected = []
        for _ in range(3):
            start = clock
            clock = start + stream.get()
            expected.append((None, 0.3, start, clock))
        assert done == expected

    def test_rate_factor_read_at_service_start(self):
        stream = service_stream(100.0, 5)
        draws = [stream.get() for _ in range(4)]
        # Faster service for keys starting at or after the midpoint of
        # key 1's service: keys 0 and 1 run at rate 1, keys 2 and 3 at 2.
        switch = draws[0] + draws[1] / 2.0
        seen = []

        def rate_factor(t):
            seen.append(t)
            return 2.0 if t >= switch else 1.0

        sim = Simulator()
        server, done = recording_server(sim, 100.0, 5, rate_factor=rate_factor)
        server.offer_batch(0.0, 4)
        sim.run()
        clock, expected = 0.0, []
        for draw in draws:
            start = clock
            factor = 2.0 if start >= switch else 1.0
            clock = start + (draw / factor if factor != 1.0 else draw)
            expected.append((None, 0.0, start, clock))
        assert done == expected
        assert seen == [start for _, _, start, _ in done]

    def test_abandoned_queued_key_takes_no_service_draw(self):
        stream = service_stream(100.0, 9)
        attempts = [_Attempt(name) for name in "abcd"]
        sim = Simulator()
        server, done = recording_server(sim, 100.0, 9)
        server.offer_batch(0.0, 3, contexts=attempts[:3])
        server.offer_batch(0.0, 1, contexts=attempts[3:])
        # Key a is in service: it runs out even when abandoned. Keys b
        # and c are queued: they are dropped at the head, b mid-batch
        # and c at the end of its batch, and d takes the next draw.
        attempts[0].abandoned = True
        attempts[1].abandoned = True
        attempts[2].abandoned = True
        sim.run()
        first = stream.get()
        second = stream.get()
        assert done == [
            (attempts[0], 0.0, 0.0, first),
            (attempts[3], 0.0, first, first + second),
        ]
        assert server.completed == 2
        assert server.queue_length == 0

    def test_mm1_sojourn_matches_theory(self, rng):
        sim = Simulator()
        sojourns = []
        server = ServerSim.exponential(
            sim,
            1000.0,
            rng,
            on_complete=lambda context, arrival, start, finish: sojourns.append(
                finish - arrival
            ),
        )
        arrivals = BatchArrivalProcess(Exponential(600.0), FixedCount(1), rng)
        arrivals.start(sim, lambda t, size: server.offer_batch(t, size))
        sim.run_until(200.0)
        # M/M/1: E[T] = 1/(mu - lam) = 2.5 ms.
        assert np.mean(sojourns) == pytest.approx(1.0 / 400.0, rel=0.06)

    def test_mg1_sojourn_matches_theory(self, rng):
        # A non-exponential service law: Uniform with mean 0.5 ms.
        service = Uniform(2.5e-4, 7.5e-4)
        sim = Simulator()
        sojourns = []
        server = ServerSim(
            sim, service, rng,
            on_complete=lambda context, arrival, start, finish: sojourns.append(
                finish - arrival
            ),
        )
        BatchArrivalProcess(Exponential(800.0), FixedCount(1), rng).start(
            sim, lambda t, size: server.offer_batch(t, size)
        )
        sim.run_until(100.0)
        expected = MG1Queue(800.0, service).mean_sojourn
        assert np.mean(sojourns) == pytest.approx(expected, rel=0.1)

    def test_utilization_measured(self, rng):
        sim = Simulator()
        server = ServerSim.exponential(sim, 1000.0, rng)
        arrivals = BatchArrivalProcess(Exponential(500.0), FixedCount(1), rng)
        arrivals.start(sim, lambda t, size: server.offer_batch(t, size))
        sim.run_until(100.0)
        assert server.utilization_meter.utilization(sim.now) == pytest.approx(
            0.5, abs=0.05
        )

    def test_contexts_attached(self, rng):
        sim = Simulator()
        done = []
        server = ServerSim.exponential(
            sim, 100.0, rng, on_complete=lambda context, *times: done.append(context)
        )
        server.offer_batch(0.0, 2, contexts=["a", "b"])
        sim.run()
        assert done == ["a", "b"]

    def test_context_length_mismatch(self, rng):
        sim = Simulator()
        server = ServerSim.exponential(sim, 100.0, rng)
        with pytest.raises(ValidationError):
            server.offer_batch(0.0, 2, contexts=["only-one"])

    def test_rejects_empty_batch(self, rng):
        sim = Simulator()
        server = ServerSim.exponential(sim, 100.0, rng)
        with pytest.raises(ValidationError):
            server.offer_batch(0.0, 0)

    def test_completed_counter(self, rng):
        sim = Simulator()
        server = ServerSim.exponential(sim, 100.0, rng)
        server.offer_batch(0.0, 5)
        assert server.busy
        assert server.queue_length == 4
        sim.run()
        assert server.completed == 5
        assert server.queue_length == 0
        assert not server.busy


def waiting(server):
    """``server.queue_length``, checked against the keys its queue holds."""
    held = sum(entry[4] - entry[3] for entry in server._queue)
    assert server.queue_length == held
    assert server.depth == held + server.busy
    return held


def _served_both_ways(rate_factor=None):
    """The same batches, seed and probes on a shared-payload server and
    on a per-key-context server, neither owned by a simulator. Returns per side: each completion with the queue
    state the callback sees, each probe's reading, utilization, the
    queue log's rows and the registry collectors derived from them."""
    batches = [(0.0, 5), (1e-5, 3), (2e-5, 1), (0.5, 4), (0.5 + 1e-5, 2)]
    probes = [1.5e-5, 3e-5, 4e-5, 5e-5, 0.5 + 2e-5, 0.5 + 4e-5]
    sides = []
    for per_key in (False, True):
        sim = Simulator()
        log = QueueLog()
        done, readings = [], []
        server = ServerSim.exponential(
            sim,
            100_000.0,
            np.random.default_rng(17),
            log=log,
            rate_factor=rate_factor,
            on_complete=lambda context, arrival, start, finish: done.append(
                (arrival, start, finish, waiting(server), server.busy)
            ),
        )
        for number, (at, size) in enumerate(batches):
            if per_key:
                contexts = [f"b{number}k{i}" for i in range(size)]
                offer = partial(server.offer_batch, size=size, contexts=contexts)
            else:
                offer = partial(server.offer_batch, size=size, context=f"b{number}")
            sim.schedule_at(at, lambda offer=offer: offer(sim.now))
        for at in probes:
            sim.schedule_at(
                at, lambda: readings.append((waiting(server), server.busy))
            )
        sim.run()
        registry = MetricsRegistry()
        _fill_queue_metrics(registry, "server", log)
        sides.append(
            dict(
                done=done,
                readings=readings,
                utilization=server.utilization_meter.utilization(sim.now),
                now=sim.now,
                jobs=log.key_rows(),
                batches=list(log.batches),
                metrics=registry.snapshot(),
            )
        )
    return sides


class TestServerRuns:
    """Both sides serve runs: only a simulator that accounts runs makes
    a batch into one, and a server no simulator owns serves every key
    as a run of one, whether its batch shares a payload or carries
    per-key contexts. Every per-key value must be the same either way,
    bit for bit."""

    @pytest.mark.parametrize(
        "switching", [False, True], ids=["no-hooks", "rate-switch"]
    )
    def test_run_matches_key_at_a_time_path(self, switching):
        rate_factor = None
        if switching:
            # Faster service for keys starting past the middle of the
            # first batch, so the factor changes inside a run.
            stream = service_stream(100_000.0, 17)
            switch = sum(stream.get() for _ in range(3))

            def rate_factor(t):
                return 2.5 if t >= switch else 1.0

        run, per_key = _served_both_ways(rate_factor)
        assert len(run["done"]) == 15
        assert run == per_key
        # The log has a row per key served and per batch offered, and
        # the derived collectors count every key.
        assert run["jobs"] == [done[:3] for done in run["done"]]
        assert [size for _, size in run["batches"]] == [5, 3, 1, 4, 2]
        assert run["metrics"]["server.arrivals"]["value"] == 15
        assert run["metrics"]["server.queue_depth"]["count"] == 15
        assert run["metrics"]["server.wait"]["count"] == 15
        # The probes caught keys waiting behind the one in service.
        assert any(length > 0 for length, _ in run["readings"])

    def test_standalone_batch_ranks_like_per_key_contexts(self):
        """Tie order: a server no simulator owns schedules each key's
        finish when the key starts, whether its batch shares a payload
        or not. With deterministic service, a delivery scheduled before
        the second key started and landing exactly on its finish fires
        first either way, and finds the second key in service and the
        third queued."""
        seen = {}
        for per_key in (False, True):
            sim = Simulator()
            done = []
            server = ServerSim(
                sim,
                Deterministic(1.0),
                np.random.default_rng(0),
                on_complete=lambda context, *times: done.append((context, *times)),
            )
            if per_key:
                server.offer_batch(0.0, 3, contexts=["a", "a", "a"])
            else:
                server.offer_batch(0.0, 3, context="a")

            def deliver():
                seen[per_key] = (len(done), server.queue_length, server.busy)
                server.offer_batch(sim.now, 1, context="x")

            sim.schedule_at(2.0, deliver)
            sim.run()
            assert done == [
                ("a", 0.0, 0.0, 1.0),
                ("a", 0.0, 1.0, 2.0),
                ("a", 0.0, 2.0, 3.0),
                ("x", 2.0, 3.0, 4.0),
            ]
        assert seen[False] == seen[True] == (1, 1, True)

    def test_reentrant_offer_from_completion_is_refused(self):
        """A completion callback cannot start this server's next key:
        the server reads idle inside the callback, so a key offered
        there starts at once, and the start that follows the callback
        refuses to find a key in service."""
        sim = Simulator()
        server = ServerSim.exponential(
            sim,
            100.0,
            np.random.default_rng(2),
            on_complete=lambda *values: server.offer_batch(sim.now, 1),
        )
        server.offer_batch(0.0, 3)
        with pytest.raises(SimulationError, match="already busy"):
            sim.run()
