"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError, ValidationError
from repro.simulation import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [1.0, 2.0]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        handle = sim.schedule_at(5.0, lambda: None)
        assert handle.time == 5.0

    def test_rejects_past_scheduling(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValidationError):
            sim.schedule_at(1.0, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValidationError):
            Simulator().schedule(-1.0, lambda: None)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestRejectsNonFiniteTimes:
    """NaN fails every ordering comparison, so ``delay < 0``-style
    guards let it through; each entry point must reject it (and
    infinities) instead of moving the clock there."""

    @pytest.mark.parametrize("delay", NON_FINITE)
    def test_schedule(self, delay):
        sim = Simulator()
        with pytest.raises(ValidationError, match="finite"):
            sim.schedule(delay, lambda: None)
        assert sim.pending_events == 0 and sim.scheduler_entries == 0

    @pytest.mark.parametrize("time", NON_FINITE)
    def test_schedule_at(self, time):
        sim = Simulator()
        with pytest.raises(ValidationError, match="finite"):
            sim.schedule_at(time, lambda: None)
        assert sim.pending_events == 0 and sim.scheduler_entries == 0

    @pytest.mark.parametrize(
        "times",
        [
            [float("nan"), 2.0],
            [1.0, float("nan"), 3.0],
            [1.0, float("nan")],
            [1.0, float("inf")],
            [float("nan")],
        ],
    )
    def test_schedule_batch(self, times):
        sim = Simulator()
        with pytest.raises(ValidationError):
            sim.schedule_batch(times, lambda i: None)
        assert sim.pending_events == 0 and sim.scheduler_entries == 0

    def test_run_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValidationError):
            sim.run_until(float("nan"))
        assert sim.now == 0.0 and sim.pending_events == 1

    def test_clock_stays_finite(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValidationError):
            sim.schedule(float("nan"), lambda: None)
        sim.run()
        assert sim.now == 1.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # must not raise


class TestDiscardPending:
    def test_drops_events_and_their_callbacks(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        late = sim.schedule(5.0, lambda: fired.append("late"))
        batch = sim.schedule_batch([6.0, 7.0], fired.append)
        sim.run_until(2.0)
        sim.discard_pending()
        assert (sim.now, sim.events_processed, sim.pending_events) == (2.0, 1, 0)
        assert sim.scheduler_entries == 0
        assert late.cancelled and late.callback is None
        assert batch.cancelled and batch.remaining == 0
        late.cancel()  # handles stay safe to cancel
        batch.cancel()
        assert sim.pending_events == 0
        sim.run()
        assert fired == ["early"]
        # The simulator stays usable.
        sim.schedule(1.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["early", "after"] and sim.now == 3.0


class TestRunUntil:
    def test_stops_at_end_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_remaining_events_fire_later(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run_until(2.0)
        sim.run()
        assert fired == [3]

    def test_rejects_past_end_time(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(ValidationError):
            sim.run_until(1.0)

    def test_event_budget_enforced(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run_until(1e9, max_events=100)


class TestIntrospection:
    def test_counts(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.events_processed == 2
        assert sim.pending_events == 0

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        assert keep.time == 1.0

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_fire_keeps_count_consistent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run_until(1.5)
        handle.cancel()  # already fired: must not touch the live count
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_pending_tracks_nested_scheduling(self):
        sim = Simulator()
        observed = []

        def spawn():
            sim.schedule(1.0, lambda: None)
            observed.append(sim.pending_events)

        sim.schedule(1.0, spawn)
        sim.run()
        # Inside the callback the fired event is gone, the new one live.
        assert observed == [1]
        assert sim.pending_events == 0

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_run_with_budget(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=10)
