"""Tests for batched event dispatch (``Simulator.schedule_batch``).

A batch is one scheduler entry re-armed as it drains; the engine's one
event loop, which ``run``, ``run_until`` and ``step`` share, fires
consecutive batch elements inline with no scheduler traffic. These
tests pin the semantics that make that optimization invisible:
interleaving with single events in exact ``(time, seq)`` order under
every entry point, cancellation from outside and from inside the batch
callback, event budgets that keep the rest of the batch, and the
cooperative ``stop`` used by completion-driven runs.
``TestDrainHandoff`` covers the drain's exit: when another entry comes
first, one ``heappushpop`` re-arms the batch and hands that entry to
the outer loop.
"""

import pytest

from repro.errors import SimulationError, ValidationError
from repro.simulation import Simulator
from repro.simulation.scheduler import COMPACT_MIN_DEAD, HeapScheduler

from tests.simulation.test_engine import BUDGET_DRIVES


def interleaved_sim():
    """One batch racing single events, with ties on both sides."""
    sim = Simulator()
    order = []
    sim.schedule_batch(
        [0.1, 0.2, 0.2, 0.3], lambda i: order.append((f"b{i}", sim.now))
    )
    sim.schedule_at(0.15, lambda: order.append(("a", sim.now)))
    sim.schedule_at(0.2, lambda: order.append(("c", sim.now)))
    sim.schedule_at(0.25, lambda: order.append(("d", sim.now)))
    return sim, order

EXPECTED = [
    ("b0", 0.1),
    ("a", 0.15),
    ("b1", 0.2),
    ("b2", 0.2),
    ("c", 0.2),
    ("d", 0.25),
    ("b3", 0.3),
]


class TestInterleaving:
    def test_batch_and_singles_fire_in_order(self):
        sim, order = interleaved_sim()
        sim.run()
        assert order == EXPECTED
        assert sim.events_processed == 7
        assert sim.pending_events == 0

    def test_step_path_matches_run_path(self):
        sim, order = interleaved_sim()
        while sim.step():
            pass
        assert order == EXPECTED

    def test_run_until_splits_a_batch(self):
        sim, order = interleaved_sim()
        sim.run_until(0.2)
        assert [tag for tag, _ in order] == ["b0", "a", "b1", "b2", "c"]
        assert sim.now == 0.2
        sim.run()
        assert order == EXPECTED


class TestBatchSemantics:
    def test_now_equals_batch_time_during_callback(self):
        sim = Simulator()
        times = [0.5, 1.25, 4.0]
        seen = []
        sim.schedule_batch(times, lambda i: seen.append((i, sim.now)))
        sim.run()
        assert seen == [(0, 0.5), (1, 1.25), (2, 4.0)]

    def test_pending_counts_every_element(self):
        sim = Simulator()
        handle = sim.schedule_batch([1.0, 2.0, 3.0], lambda i: None)
        assert sim.pending_events == 3
        assert handle.remaining == 3

    def test_callback_may_schedule_more_work(self):
        sim = Simulator()
        order = []

        def on_batch(i):
            order.append(f"b{i}")
            sim.schedule(0.01, lambda: order.append(f"child-of-{i}"))

        sim.schedule_batch([1.0, 2.0], on_batch)
        sim.run()
        assert order == ["b0", "child-of-0", "b1", "child-of-1"]

    def test_empty_batch_rejected(self):
        sim = Simulator()
        with pytest.raises(ValidationError):
            sim.schedule_batch([], lambda i: None)

    def test_past_batch_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValidationError):
            sim.schedule_batch([0.5, 1.5], lambda i: None)

    def test_unsorted_batch_rejected(self):
        sim = Simulator()
        with pytest.raises(ValidationError):
            sim.schedule_batch([1.0, 0.5], lambda i: None)


class TestBatchCancellation:
    def test_external_cancel_stops_remaining(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_batch([1.0, 2.0, 3.0], fired.append)
        sim.schedule_at(1.5, handle.cancel)
        sim.run()
        assert fired == [0]
        assert handle.cancelled
        assert handle.remaining == 0
        assert sim.pending_events == 0

    def test_self_cancel_mid_drain(self):
        sim = Simulator()
        fired = []
        handle = None

        def on_batch(i):
            fired.append(i)
            if i == 1:
                handle.cancel()

        handle = sim.schedule_batch([1.0, 1.0, 1.0, 1.0], on_batch)
        sim.run()
        assert fired == [0, 1]
        assert sim.pending_events == 0

    def test_double_cancel_is_noop(self):
        sim = Simulator()
        handle = sim.schedule_batch([1.0, 2.0], lambda i: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0


class TestBudget:
    def test_exact_budget_is_enough(self):
        sim = Simulator()
        sim.schedule_batch([1.0, 2.0, 3.0], lambda i: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_budget_exhaustion_raises(self):
        sim = Simulator()
        sim.schedule_batch([1.0, 2.0, 3.0], lambda i: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=2)

    @pytest.mark.parametrize("drive", BUDGET_DRIVES.values(), ids=list(BUDGET_DRIVES))
    def test_exhausted_budget_keeps_the_rest_of_the_batch(self, drive):
        sim = Simulator()
        fired = []
        sim.schedule_batch([1.0, 2.0, 3.0], lambda i: fired.append((i, sim.now)))
        with pytest.raises(SimulationError):
            drive(sim)
        assert fired == [(0, 1.0)]
        assert sim.pending_events == 2
        sim.run()
        assert fired == [(0, 1.0), (1, 2.0), (2, 3.0)]
        assert sim.events_processed == 3
        assert sim.pending_events == 0


class TestStop:
    def test_stop_from_single_event(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: (order.append("a"), sim.stop()))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a"]
        assert sim.pending_events == 1
        sim.run()  # resumes where it left off
        assert order == ["a", "b"]

    def test_stop_mid_batch_parks_remainder(self):
        sim = Simulator()
        fired = []

        def on_batch(i):
            fired.append(i)
            if i == 1:
                sim.stop()

        sim.schedule_batch([1.0, 2.0, 3.0, 4.0], on_batch)
        sim.run()
        assert fired == [0, 1]
        assert sim.pending_events == 2
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.pending_events == 0

    def test_stop_inside_run_until_keeps_the_clock_there(self):
        sim = Simulator()
        order = []

        def on_batch(i):
            order.append(f"b{i}")
            if i == 0:
                sim.stop()

        sim.schedule_batch([1.0, 2.0, 3.0], on_batch)
        sim.schedule_at(4.0, lambda: order.append("a"))
        sim.run_until(10.0)
        assert order == ["b0"]
        assert sim.now == 1.0  # the stopping event, not the end time
        assert sim.pending_events == 3
        sim.run_until(10.0)  # resumes where it left off
        assert order == ["b0", "b1", "b2", "a"]
        assert sim.now == 10.0
        assert sim.pending_events == 0

    def test_stop_outside_run_is_discarded(self):
        sim = Simulator()
        sim.stop()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a"]


class TestCancelledEventCollection:
    """The cancelled-event leak regression (hedge-heavy workloads)."""

    def test_mass_cancel_keeps_scheduler_bounded(self):
        sim = Simulator()
        peak = 0
        for k in range(20_000):
            handle = sim.schedule(1.0 + k * 1e-6, lambda: None)
            handle.cancel()
            peak = max(peak, sim.scheduler_entries)
        # The heap keeps at most the compaction threshold's worth of
        # dead entries.
        assert sim.scheduler_entries <= 128
        assert peak <= 256
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0


class CountingScheduler(HeapScheduler):
    """A heap scheduler that counts its push and pop calls."""

    __slots__ = ("pushes", "pops")

    def __init__(self):
        super().__init__()
        self.pushes = 0
        self.pops = 0

    def push(self, time, seq, obj):
        self.pushes += 1
        super().push(time, seq, obj)

    def pop(self):
        self.pops += 1
        return super().pop()


def counting_sim():
    sim = Simulator()
    sim._scheduler = CountingScheduler()
    return sim, sim._scheduler


class TestDrainHandoff:
    def test_handoff_replaces_park_and_pop(self):
        """A single event due before the batch's next element is taken
        by the drain's heappushpop: no push, and no pop for it."""
        sim, scheduler = counting_sim()
        order = []
        sim.schedule_batch([1.0, 2.0, 3.0], lambda i: order.append(f"b{i}"))
        sim.schedule_at(1.5, lambda: order.append("a"))
        sim.schedule_at(2.5, lambda: order.append("c"))
        scheduler.pushes = 0
        sim.run()
        assert order == ["b0", "a", "b1", "c", "b2"]
        assert scheduler.pushes == 0
        # The batch at 1.0, the batch at 2.0 and 3.0 after each
        # handed-off event, and the empty queue.
        assert scheduler.pops == 4
        assert sim.pending_events == 0
        assert sim.scheduler_entries == 0

    def test_handoff_skips_cancelled_head(self):
        sim, scheduler = counting_sim()
        order = []
        sim.schedule_batch([1.0, 2.0, 3.0], lambda i: order.append(f"b{i}"))
        sim.schedule_at(1.2, lambda: order.append("dead")).cancel()
        sim.schedule_at(1.5, lambda: order.append("a"))
        sim.schedule_at(2.2, lambda: order.append("dead")).cancel()
        sim.schedule_at(2.4, lambda: order.append("dead")).cancel()
        sim.schedule_at(3.5, lambda: order.append("c"))
        sim.run()
        assert order == ["b0", "a", "b1", "b2", "c"]
        assert sim.events_processed == 5
        assert sim.pending_events == 0
        assert sim.scheduler_entries == 0

    def test_equal_time_ties_keep_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, lambda: order.append("before"))
        sim.schedule_batch([1.0, 2.0, 2.0, 3.0], lambda i: order.append(f"b{i}"))
        sim.schedule_at(2.0, lambda: order.append("after"))
        sim.schedule_batch([2.0, 2.0], lambda i: order.append(f"x{i}"))
        sim.run()
        assert order == ["b0", "before", "b1", "b2", "after", "x0", "x1", "b3"]

    def test_two_batches_hand_off_to_each_other(self):
        sim, scheduler = counting_sim()
        order = []
        sim.schedule_batch([1.0, 2.0, 3.0], lambda i: order.append(f"a{i}"))
        sim.schedule_batch([1.0, 2.0, 3.0], lambda i: order.append(f"b{i}"))
        scheduler.pushes = 0
        sim.run()
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]
        assert scheduler.pushes == 0
        assert sim.pending_events == 0

    def test_handoff_after_mid_drain_compaction(self):
        """A callback's cancels compact the heap, which replaces its
        list; the handoff must act on the new list."""
        sim = Simulator()
        order = []
        doomed = [
            sim.schedule_at(100.0 + k, lambda: order.append("dead"))
            for k in range(4 * COMPACT_MIN_DEAD)
        ]
        sim.schedule_at(1.5, lambda: order.append("a"))
        heaps = []

        def on_batch(i):
            order.append(f"b{i}")
            if i == 0:
                heaps.append(sim._scheduler.heap)
                for handle in doomed:
                    handle.cancel()
                heaps.append(sim._scheduler.heap)

        sim.schedule_batch([1.0, 2.0, 3.0], on_batch)
        sim.run()
        assert heaps[0] is not heaps[1]  # the cancels compacted the heap
        assert order == ["b0", "a", "b1", "b2"]
        assert sim.pending_events == 0
        assert sim.scheduler_entries == 0

    def test_stop_mid_drain_parks_instead_of_handing_off(self):
        sim = Simulator()
        order = []

        def on_batch(i):
            order.append(f"b{i}")
            if i == 0:
                sim.stop()

        sim.schedule_batch([1.0, 2.0, 3.0], on_batch)
        sim.schedule_at(1.5, lambda: order.append("a"))
        sim.run()
        assert order == ["b0"]
        assert sim.now == 1.0
        assert sim.pending_events == 3
        sim.run()
        assert order == ["b0", "a", "b1", "b2"]
        assert sim.pending_events == 0

    def test_stop_in_a_handed_off_event(self):
        sim = Simulator()
        order = []
        sim.schedule_batch([1.0, 2.0, 3.0], lambda i: order.append(f"b{i}"))
        sim.schedule_at(1.5, lambda: (order.append("a"), sim.stop()))
        sim.run()
        assert order == ["b0", "a"]
        assert sim.now == 1.5
        assert sim.pending_events == 2
        sim.run()
        assert order == ["b0", "a", "b1", "b2"]
