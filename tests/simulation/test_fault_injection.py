"""Fault injection through the event engine and the vectorized backend.

Covers the wiring of :class:`repro.faults.FaultSchedule` into
``MemcachedSystemSimulator`` (service-rate scaling, GC-style pauses,
database overload, share shifts) and the §5.1-style transient: the
database stage climbing inside an overload window and recovering after
it closes.
"""

import numpy as np
import pytest

from repro.core import ClusterModel
from repro.faults import (
    DatabaseOverload,
    FaultSchedule,
    ServerPause,
    ServerSlowdown,
    ShareShift,
    trajectory,
    window_effect,
)
from repro.errors import ValidationError
from repro.simulation import MemcachedSystemSimulator
from repro.units import kps, msec, usec


def build_system(**overrides):
    defaults = dict(
        n_keys_per_request=20,
        request_rate=3000.0,
        network_delay=usec(20),
        miss_ratio=0.01,
        database_rate=2000.0,
        seed=7,
    )
    defaults.update(overrides)
    cluster = defaults.pop("cluster", ClusterModel.balanced(2, kps(80)))
    return MemcachedSystemSimulator(cluster, **defaults)


def whole_run_window(cls, **kwargs):
    """A window that outlasts any run in this module."""
    return FaultSchedule.single(cls(start=0.0, duration=1e6, **kwargs))


class TestWiring:
    def test_empty_schedule_bit_identical_to_none(self):
        a = build_system(faults=None).run(n_requests=200)
        b = build_system(faults=FaultSchedule()).run(n_requests=200)
        assert a.total.samples().tolist() == b.total.samples().tolist()

    def test_schedule_validated_against_cluster(self):
        with pytest.raises(ValidationError):
            build_system(
                faults=FaultSchedule.single(
                    ServerSlowdown(start=0.0, duration=1.0, server=5)
                )
            )

    def test_faults_deterministic_in_seed(self):
        schedule = whole_run_window(ServerSlowdown, factor=0.5)
        a = build_system(faults=schedule).run(n_requests=200)
        b = build_system(faults=schedule).run(n_requests=200)
        assert a.total.samples().tolist() == b.total.samples().tolist()


class TestServerSlowdown:
    def test_slowdown_inflates_server_stage(self):
        base = build_system().run(n_requests=400)
        slowed = build_system(
            faults=whole_run_window(ServerSlowdown, factor=0.5)
        ).run(n_requests=400)
        # Half the service rate at ~37% base utilization more than
        # doubles the mean server stage (queueing is convex in rho).
        assert slowed.server_stage.mean > 1.5 * base.server_stage.mean

    def test_single_server_slowdown_is_local(self):
        slowed = build_system(
            faults=whole_run_window(ServerSlowdown, factor=0.4, server=0)
        ).run(n_requests=400)
        utils = slowed.server_utilizations
        # Server 0 serves the same keys at 0.4x the rate: its busy
        # fraction is ~2.5x its healthy peer's.
        assert utils[0] > 2.0 * utils[1]

    def test_window_only_affects_its_span(self):
        # A slowdown confined to the first 20% of the run leaves the
        # post-window tail of the trajectory near the no-fault level.
        base = build_system().run(n_requests=1000)
        run_seconds = 1000 / 3000.0
        faulted = build_system(
            faults=FaultSchedule.single(
                ServerSlowdown(start=0.0, duration=0.2 * run_seconds, factor=0.3)
            ),
        ).run(n_requests=1000)
        tail = [
            r.server
            for r in faulted.request_log
            if r.completed > 0.5 * run_seconds
        ]
        assert np.mean(tail) < 2.0 * base.server_stage.mean


class TestServerPause:
    def test_pause_stalls_service(self):
        base = build_system().run(n_requests=400)
        run_seconds = 400 / 3000.0
        pause = FaultSchedule.single(
            ServerPause(start=0.02, duration=0.5 * run_seconds)
        )
        paused = build_system(faults=pause).run(n_requests=400)
        assert paused.server_stage.mean > 2.0 * base.server_stage.mean
        # No key completes server work inside a whole-tier pause unless
        # its service was already in flight when the pause began: every
        # request born in the window resolves at/after the pause lifts.
        window = pause.windows[0]
        born_inside = [
            r
            for r in paused.request_log
            if window.start <= r.born < window.end
        ]
        assert born_inside  # the window covers live traffic
        assert all(r.completed >= window.end for r in born_inside)

    def test_in_flight_service_finishes(self):
        # A pause on an otherwise idle system delays only queued keys;
        # the simulator must not deadlock or drop jobs.
        results = build_system(
            request_rate=500.0,
            faults=FaultSchedule.single(ServerPause(start=0.05, duration=0.1)),
        ).run(n_requests=200)
        assert results.total.count == 200


class TestShareShift:
    def test_shift_reroutes_load(self):
        run_seconds = 600 / 3000.0
        shifted = build_system(
            faults=FaultSchedule.single(
                ShareShift(start=0.0, duration=run_seconds, shares=(0.9, 0.1))
            )
        ).run(n_requests=600)
        balanced = build_system().run(n_requests=600)
        utils_shift = shifted.server_utilizations
        utils_base = balanced.server_utilizations
        assert utils_shift[0] > 2.0 * utils_shift[1]
        assert abs(utils_base[0] - utils_base[1]) < 0.1


class TestDatabaseOverloadTransient:
    """The §5.1 story: an overloaded database dominates T(N) during the
    episode, and the system *recovers* once the window closes."""

    def test_transient_climbs_and_recovers(self):
        run_seconds = 4000 / 3000.0
        window = DatabaseOverload(start=0.3, duration=0.15, factor=0.25)
        results = build_system(faults=FaultSchedule.single(window)).run(
            n_requests=4000
        )
        effect = window_effect(
            results.request_log,
            window_start=window.start,
            window_end=window.end,
            stage="database",
            settle=0.1,
        )
        assert effect["during"] > 3.0 * effect["before"]
        assert effect["after"] < 1.5 * effect["before"]
        # The completion-time trajectory resolves the same story: the
        # worst database bucket lies inside (or drains just after) the
        # window, not at the edges of the run.
        points = trajectory(results.request_log, n_buckets=16)
        worst = max(points, key=lambda p: p.mean_database)
        assert window.start <= worst.midpoint < window.end + 0.1
        assert worst.mean_database > 3.0 * points[0].mean_database
        assert run_seconds > window.end + 0.2  # the run outlives the fault

    def test_total_latency_follows_database(self):
        window = DatabaseOverload(start=0.3, duration=0.15, factor=0.25)
        results = build_system(faults=FaultSchedule.single(window)).run(
            n_requests=4000
        )
        effect = window_effect(
            results.request_log,
            window_start=window.start,
            window_end=window.end,
            stage="total",
            settle=0.1,
        )
        assert effect["during"] > 1.5 * effect["before"]


class TestRequestLog:
    def test_log_always_present_warmup_excluded(self):
        results = build_system().run(n_requests=50, warmup_requests=20)
        log = results.request_log
        assert len(log) == 50
        assert [r.total for r in log] == results.total.samples().tolist()
        # The warmup is the first 20 completions of the same seeded
        # run; every logged request completes after them.
        warmup = build_system().run(n_requests=20).request_log
        assert len(warmup) == 20
        assert min(r.completed for r in log) >= max(r.completed for r in warmup)

    def test_log_records_every_request(self):
        results = build_system().run(n_requests=150)
        log = results.request_log
        assert len(log) == 150
        assert all(r.completed >= r.born for r in log)
        assert all(r.total >= r.server - 1e-15 for r in log)
        assert results.total.mean == pytest.approx(
            float(np.mean([r.total for r in log]))
        )


class TestFastpathSystemFaults:
    @staticmethod
    def _fast(faults=None, **overrides):
        from repro.simulation import simulate_system_requests

        params = dict(
            n_keys=20,
            request_rate=3000.0,
            n_requests=2000,
            warmup_requests=100,
            rng=np.random.default_rng(3),
            network_delay=usec(20),
            miss_ratio=0.01,
            database_rate=2000.0,
            faults=faults,
        )
        params.update(overrides)
        return simulate_system_requests((0.5, 0.5), kps(80), **params)

    def test_matches_engine_under_slowdown(self):
        schedule = whole_run_window(ServerSlowdown, factor=0.6)
        engine = build_system(faults=schedule, seed=3).run(
            n_requests=2000, warmup_requests=100
        )
        fast = self._fast(faults=schedule)
        assert float(np.mean(fast.column("server_max"))) == pytest.approx(
            engine.server_stage.mean, rel=0.15
        )
        assert float(np.mean(fast.column("total"))) == pytest.approx(
            engine.total.mean, rel=0.15
        )

    def test_rejects_non_vectorizable_schedule(self):
        with pytest.raises(ValidationError):
            self._fast(
                faults=FaultSchedule.single(
                    ServerPause(start=0.0, duration=0.1)
                ),
                n_requests=100,
            )

    def test_database_overload_window_raises_db_stage(self):
        base = self._fast(n_requests=3000)
        faulted = self._fast(
            n_requests=3000,
            faults=FaultSchedule.single(
                DatabaseOverload(start=0.0, duration=1e6, factor=0.25)
            ),
        )
        assert float(np.mean(faulted.column("db_max"))) > 2.0 * float(
            np.mean(base.column("db_max"))
        )
