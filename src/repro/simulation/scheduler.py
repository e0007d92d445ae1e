"""The event scheduler for the discrete-event engine.

The engine needs one data structure: a priority queue of
``(time, seq, obj)`` entries popped in ``(time, seq)`` order, where
``obj`` is an opaque event record carrying a ``cancelled`` flag.
:class:`HeapScheduler` implements it as a binary heap (C ``heapq``).
Cancellation is lazy (dead tuples stay until popped) with *threshold
compaction*: when dead entries outnumber live ones the heap is rebuilt,
so cancel-heavy workloads (hedging with cancel-on-winner) keep the
queue bounded by ``O(live)`` instead of ``O(scheduled)``.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..errors import ValidationError

#: Dead entries tolerated before a heap compaction is considered.
COMPACT_MIN_DEAD = 64


class HeapScheduler:
    """Binary-heap scheduler with threshold compaction of cancelled entries.

    ``heap`` is the heap list itself. The engine's batch drain reads
    its head and hands a batch over with one ``heapq.heappushpop`` on
    it; :meth:`compact` and :meth:`clear` replace the list, so a reader
    fetches ``heap`` afresh after any callback that may cancel.
    """

    __slots__ = ("heap", "_dead")

    def __init__(self) -> None:
        self.heap: List[tuple] = []
        self._dead = 0

    @property
    def entries(self) -> int:
        """Stored entries, including not-yet-collected cancelled ones."""
        return len(self.heap)

    def push(self, time: float, seq: int, obj: object) -> None:
        heapq.heappush(self.heap, (time, seq, obj))

    def pop(self) -> Optional[tuple]:
        heap = self.heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[2].cancelled:
                self._dead -= 1
                continue
            return entry
        return None

    def peek(self) -> Optional[Tuple[float, int]]:
        heap = self.heap
        while heap:
            head = heap[0]
            if head[2].cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            return (head[0], head[1])
        return None

    def discard(self, time: float, seq: int, obj: object) -> None:
        """Account a cancellation (``obj.cancelled`` is already set).

        The tuple stays in the heap (removal would be O(n)), but once
        dead tuples outnumber live ones the whole heap is rebuilt
        without them — one O(n) pass that keeps the structure bounded
        by twice the live count even under hedge-cancel storms.
        """
        self._dead += 1
        if self._dead > COMPACT_MIN_DEAD and self._dead * 2 > len(self.heap):
            self.compact()

    def clear(self) -> List[object]:
        """Remove every entry; returns their objects, dead ones included."""
        objs = [entry[2] for entry in self.heap]
        self.heap = []
        self._dead = 0
        return objs

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify."""
        self.heap = [entry for entry in self.heap if not entry[2].cancelled]
        heapq.heapify(self.heap)
        self._dead = 0


def make_scheduler(name: None = None) -> HeapScheduler:
    """The engine's scheduler: a fresh :class:`HeapScheduler`.

    There is one backend, so there is nothing to select; ``name`` must
    be ``None``.
    """
    if name is not None:
        raise ValidationError(
            f"there is one event scheduler (the binary heap); got {name!r}"
        )
    return HeapScheduler()
