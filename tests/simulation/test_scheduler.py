"""Tests for the engine's event scheduler (a binary heap).

The contract: entries pop in ascending ``(time, seq)`` order,
``discard`` drops a cancelled entry, ``entries`` counts what the
structure holds. Payloads are opaque except for a ``cancelled`` flag
the heap uses for lazy deletion (the engine sets it before calling
``discard``). The randomized reference check at the bottom is the
load-bearing test: lazy cancellation plus threshold compaction must
pop exactly the live entries, in order.
"""

import bisect

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.simulation.scheduler import (
    COMPACT_MIN_DEAD,
    HeapScheduler,
    make_scheduler,
)


class Item:
    """Minimal event payload: the ``cancelled`` flag the engine keeps."""

    __slots__ = ("tag", "cancelled")

    def __init__(self, tag):
        self.tag = tag
        self.cancelled = False

    def __repr__(self):
        return f"Item({self.tag!r})"


def drain(queue):
    out = []
    while True:
        entry = queue.pop()
        if entry is None:
            return out
        out.append(entry)


class TestContract:
    def test_pops_in_time_then_seq_order(self):
        queue = HeapScheduler()
        a, b, c = Item("a"), Item("b"), Item("c")
        queue.push(2.0, 1, b)
        queue.push(1.0, 2, a)
        queue.push(2.0, 0, c)
        assert drain(queue) == [(1.0, 2, a), (2.0, 0, c), (2.0, 1, b)]

    def test_peek_matches_next_pop(self):
        queue = HeapScheduler()
        queue.push(3.0, 0, Item("x"))
        queue.push(1.5, 1, Item("y"))
        assert queue.peek() == (1.5, 1)
        assert queue.pop()[:2] == (1.5, 1)
        assert queue.peek() == (3.0, 0)

    def test_empty_peek_and_pop(self):
        queue = HeapScheduler()
        assert queue.peek() is None
        assert queue.pop() is None
        assert queue.entries == 0

    def test_discard_removes_entry(self):
        queue = HeapScheduler()
        a, b, c = Item("a"), Item("b"), Item("c")
        queue.push(1.0, 0, a)
        queue.push(2.0, 1, b)
        queue.push(3.0, 2, c)
        b.cancelled = True
        queue.discard(2.0, 1, b)
        assert [entry[2] for entry in drain(queue)] == [a, c]

    def test_discard_then_push_same_time(self):
        queue = HeapScheduler()
        a, b = Item("a"), Item("b")
        queue.push(1.0, 0, a)
        a.cancelled = True
        queue.discard(1.0, 0, a)
        queue.push(1.0, 1, b)
        assert drain(queue) == [(1.0, 1, b)]

    def test_interleaved_push_pop(self):
        queue = HeapScheduler()
        queue.push(5.0, 0, Item("late"))
        queue.push(1.0, 1, Item("early"))
        assert queue.pop()[2].tag == "early"
        queue.push(2.0, 2, Item("mid"))
        assert queue.pop()[2].tag == "mid"
        assert queue.pop()[2].tag == "late"

    def test_compact_preserves_content(self):
        queue = HeapScheduler()
        for seq in range(100):
            queue.push(float(seq % 10), seq, Item(seq))
        queue.compact()
        order = [entry[:2] for entry in drain(queue)]
        assert order == sorted(order)
        assert len(order) == 100

    def test_identical_times_pop_in_seq_order(self):
        queue = HeapScheduler()
        for seq in (5, 1, 9, 0, 3):
            queue.push(1.0, seq, Item(seq))
        assert [entry[1] for entry in drain(queue)] == [0, 1, 3, 5, 9]

    def test_growth_across_time_scales(self):
        # Times spanning ten orders of magnitude.
        queue = HeapScheduler()
        times = [10.0 ** k for k in range(-5, 5)]
        for seq, t in enumerate(times):
            queue.push(t, seq, Item(seq))
        assert [entry[0] for entry in drain(queue)] == sorted(times)


class TestHeapCompaction:
    def test_dead_entries_bounded(self):
        queue = HeapScheduler()
        items = [Item(seq) for seq in range(10_000)]
        for seq, item in enumerate(items):
            queue.push(float(seq), seq, item)
        for seq, item in enumerate(items):
            item.cancelled = True
            queue.discard(float(seq), seq, item)
        # Lazy deletion plus threshold compaction: once dead entries
        # outnumber live ones the heap is rebuilt without them.
        assert queue.entries <= COMPACT_MIN_DEAD
        assert queue.pop() is None


class TestFactory:
    def test_make_scheduler_returns_heap(self):
        assert isinstance(make_scheduler(None), HeapScheduler)

    def test_rejects_any_name(self):
        with pytest.raises(ValidationError):
            make_scheduler("heap")


class TestRandomizedReference:
    def test_heap_matches_sorted_reference(self):
        # A random push/pop/cancel mix checked against a sorted list of
        # the live (time, seq) keys. The heap may hold cancelled tuples,
        # but after each cancellation no more than the compaction
        # threshold allows: dead <= max(COMPACT_MIN_DEAD, live).
        rng = np.random.default_rng(20170327)
        compactions = 0
        for trial in range(20):
            queue = HeapScheduler()
            reference = []
            items = {}
            seq = 0
            scale = float(10.0 ** rng.integers(-6, 6))
            for _ in range(int(rng.integers(50, 1500))):
                op = rng.random()
                if op < 0.55 or not reference:
                    t = float(rng.random() * scale)
                    items[seq] = Item(seq)
                    queue.push(t, seq, items[seq])
                    bisect.insort(reference, (t, seq))
                    seq += 1
                elif op < 0.8:
                    assert queue.peek() == reference[0], f"trial {trial}"
                    t, s, item = queue.pop()
                    assert (t, s) == reference.pop(0), f"trial {trial}"
                    assert item is items.pop(s)
                else:
                    t, s = reference.pop(int(rng.integers(len(reference))))
                    item = items.pop(s)
                    item.cancelled = True
                    before = queue.entries
                    queue.discard(t, s, item)
                    live = len(reference)
                    if queue.entries < before:
                        assert queue.entries == live
                        compactions += 1
                    assert queue.entries - live <= max(COMPACT_MIN_DEAD, live)
                assert queue.entries >= len(reference)
            assert [entry[:2] for entry in drain(queue)] == reference
        assert compactions > 0
