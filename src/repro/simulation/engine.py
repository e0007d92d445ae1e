"""Discrete-event simulation engine.

A deliberately small, dependency-free core: a monotonic clock and a
binary-heap event scheduler (see :mod:`repro.simulation.scheduler`).
Components (arrival processes, servers, the database) schedule
callbacks; the engine guarantees deterministic ordering — events at
equal times fire in scheduling order, the ``(time, seq)`` total order —
so seeded runs are exactly reproducible.

Two scheduling shapes exist:

* :meth:`Simulator.schedule` — one callback at one time, returning its
  event record, an :class:`EventHandle`, for cancellation. Cancelled
  events are compacted in bulk once they outnumber live entries, so
  cancel-heavy policies (hedging with cancel-on-winner) keep the queue
  bounded. Times must be finite; NaN or infinite times are rejected.
* :meth:`Simulator.schedule_batch` — a *homogeneous batch*: one
  callback fired once per pre-computed time, in order. The batch holds
  a single scheduler entry that is re-armed as it drains, so a window
  of (say) pre-drawn arrival times costs one event record and — inside
  :meth:`run` — consecutive batch events whose times precede every
  other scheduled event fire back-to-back without touching the
  scheduler at all. The drain reads the heap head directly after each
  firing; when that head comes first, one ``heapq.heappushpop``
  re-arms the batch and hands the head to the loop, in place of a
  push of the batch and a pop of the head.

Tie order within a batch: every event of a batch carries the ``seq`` of
the :meth:`~Simulator.schedule_batch` call, so at an equal time it fires
before anything scheduled after that call and after anything scheduled
before it. A server that schedules the rest of a batch as one run (see
:mod:`repro.simulation.server`) therefore ranks each key's finish at the
instant the run's head key started, not at the key's own start, where a
key-at-a-time schedule would rank it. The two orders differ only when
another event falls on exactly the same instant as a finish: a
measure-zero event under continuous service laws, but not under
``Deterministic`` service. The drain's handoff keeps the order: no two
entries share a ``(time, seq)`` key, so the entry ``heappushpop``
returns is the one a push followed by a pop would return, and
cancelled heads are dropped first, as a pop drops them.

One internal hook lets an owner account work in bulk between events:
``Simulator._before_event(time, seq)``, when set, runs before the
event at ``(time, seq)`` fires. It may bring an event forward by
pushing one that precedes ``(time, seq)`` (with
:meth:`Simulator._schedule_ranked`, at a ``seq`` already taken) and
then returns True; the loop puts the event it held back and takes the
new head first. The hook is never called past a :meth:`Simulator.stop`.
:class:`~repro.simulation.system.MemcachedSystemSimulator` uses it to
account its servers' runs (see :mod:`repro.simulation.server`).

An optional :class:`~repro.observability.EngineProfiler` can be
attached to attribute wall-clock time to callback categories; when no
profiler is attached the event loop pays one ``is None`` check per
event (batch drains included — each drained event is individually
profiled when a profiler is present).
"""

from __future__ import annotations

import heapq
import itertools
import operator
from typing import Callable, Optional, Sequence

from ..errors import SimulationError, ValidationError
from .scheduler import make_scheduler

Callback = Callable[[], None]
BatchCallback = Callable[[int], None]

_INF = float("inf")


class _Batch:
    """A homogeneous event batch: one callback over a window of times.

    The batch keeps a single scheduler entry alive at a time —
    ``(times[index], seq)`` — re-armed after each firing, so ``seq``
    (assigned once, at scheduling) breaks time ties exactly like an
    ordinary event scheduled at the same moment would.
    """

    __slots__ = ("times", "index", "seq", "callback", "cancelled", "time", "queued")

    def __init__(self, times: list, seq: int, callback: BatchCallback) -> None:
        self.times = times
        self.index = 0
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.time = times[0]  # currently scheduled fire time
        self.queued = False


class EventHandle:
    """One scheduled callback, returned by :meth:`Simulator.schedule` as
    its own cancellation handle.

    The record is the handle: scheduling allocates one object, and the
    ordering lives in the scheduler entry, not here.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired", "_sim")

    def __init__(
        self, time: float, seq: int, callback: Callback, sim: "Simulator"
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        sim._live -= 1
        sim._scheduler.discard(self.time, self.seq, self)


class BatchHandle:
    """Handle returned by :meth:`Simulator.schedule_batch`."""

    __slots__ = ("_batch", "_sim")

    def __init__(self, batch: _Batch, sim: "Simulator") -> None:
        self._batch = batch
        self._sim = sim

    def cancel(self) -> None:
        """Prevent all not-yet-fired batch events from firing."""
        batch = self._batch
        if batch.cancelled:
            return
        remaining = len(batch.times) - batch.index
        if remaining <= 0:
            return
        batch.cancelled = True
        sim = self._sim
        sim._live -= remaining
        if batch.queued:
            batch.queued = False
            sim._scheduler.discard(batch.time, batch.seq, batch)

    @property
    def remaining(self) -> int:
        """Batch events still scheduled to fire."""
        if self._batch.cancelled:
            return 0
        return len(self._batch.times) - self._batch.index

    @property
    def cancelled(self) -> bool:
        return self._batch.cancelled


class Simulator:
    """Event loop: schedule callbacks on the simulated clock and run."""

    def __init__(self, *, profiler: Optional[object] = None) -> None:
        self._now = 0.0
        self._scheduler = make_scheduler()
        self._counter = itertools.count()
        self._processed = 0
        # Live (scheduled, not yet fired or cancelled) event count,
        # maintained on schedule/cancel/fire so introspection is O(1).
        self._live = 0
        self._profiler = profiler
        self._stop = False
        #: Internal pre-event hook (see the module docstring).
        self._before_event: Optional[Callable[[float, int], bool]] = None

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        """Live events awaiting their fire time (O(1))."""
        return self._live

    @property
    def scheduler_entries(self) -> int:
        """Entries held by the scheduler, *including* dead (cancelled)
        entries the heap has not collected yet — the quantity
        the compaction contract bounds."""
        return self._scheduler.entries

    @property
    def profiler(self) -> Optional[object]:
        return self._profiler

    def set_profiler(self, profiler: Optional[object]) -> None:
        """Attach (or detach with ``None``) an event-loop profiler."""
        self._profiler = profiler

    def stop(self) -> None:
        """Ask a running :meth:`run` loop to return after the current
        callback.

        This is how completion-driven simulations (stop after N
        requests) ride the batched hot loop instead of stepping one
        event at a time. The flag is cleared on :meth:`run` entry, so a
        stop requested outside a run is discarded.
        """
        self._stop = True

    def discard_pending(self) -> None:
        """Drop every pending event; the clock, the processed count and
        the profiler stay.

        A pending callback is usually a bound method of the component
        that scheduled it, and the scheduler keeps it, so a finished
        simulation and its components refer to each other until a
        cyclic GC pass. Discarded events are marked cancelled and let go
        of their callbacks; their handles stay safe to cancel. Call it
        between runs, not from a callback.
        """
        for obj in self._scheduler.clear():
            obj.cancelled = True
            obj.callback = None
            if type(obj) is _Batch:
                obj.queued = False
        self._live = 0

    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Run ``callback`` ``delay`` seconds from now."""
        # One chained comparison rejects negative, NaN and infinite
        # delays alike (every comparison with NaN is False).
        if not 0.0 <= delay < _INF:
            raise ValidationError(f"delay must be finite and >= 0, got {delay}")
        # schedule_at's body, inlined: this is the per-event hot path.
        event = EventHandle(
            float(self._now + delay), next(self._counter), callback, self
        )
        self._scheduler.push(event.time, event.seq, event)
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Run ``callback`` at absolute simulated ``time``."""
        if not self._now <= time < _INF:
            raise ValidationError(
                f"event time must be finite and not in the past: {time} "
                f"(now {self._now})"
            )
        event = EventHandle(float(time), next(self._counter), callback, self)
        self._scheduler.push(event.time, event.seq, event)
        self._live += 1
        return event

    def _schedule_ranked(self, time: float, seq: int, callback: Callback) -> EventHandle:
        """Run ``callback`` at ``time`` ranked at an existing ``seq``.

        For the pre-event hook only: the caller owns ``seq`` and keeps
        ``(time, seq)`` distinct from every other pending entry.
        """
        event = EventHandle(time, seq, callback, self)
        self._scheduler.push(time, seq, event)
        self._live += 1
        return event

    def schedule_batch(
        self, times: Sequence[float], callback: BatchCallback
    ) -> BatchHandle:
        """Fire ``callback(i)`` at each ``times[i]`` (ascending, absolute).

        The whole window shares one event record and one scheduler
        entry, so scheduling a thousand pre-drawn arrivals costs O(1)
        allocations — the batched-dispatch primitive components use to
        avoid per-event Python object churn. The callback receives the
        index into ``times``; ``sim.now`` equals ``times[i]`` during
        the call. Ties against other events resolve by scheduling
        order, exactly as for :meth:`schedule`.
        """
        times = list(map(float, times))
        if not times:
            raise ValidationError("schedule_batch needs at least one time")
        if not self._now <= times[0] < _INF or not times[-1] < _INF:
            raise ValidationError(
                f"batch times must be finite and not in the past: "
                f"{times[0]}..{times[-1]} (now {self._now})"
            )
        # ``a <= b`` is also false for a NaN anywhere in the window.
        if not all(map(operator.le, times, itertools.islice(times, 1, None))):
            raise ValidationError("batch times must be non-decreasing")
        batch = _Batch(times, next(self._counter), callback)
        self._scheduler.push(batch.time, batch.seq, batch)
        batch.queued = True
        self._live += len(times)
        return BatchHandle(batch, self)

    # ------------------------------------------------------------------

    def _fire(self, obj) -> None:
        """Dispatch one popped entry (clock already advanced)."""
        profiler = self._profiler
        if type(obj) is EventHandle:
            obj.fired = True
            self._live -= 1
            if profiler is None:
                obj.callback()
            else:
                started = profiler.clock()
                obj.callback()
                profiler.record(
                    obj.callback,
                    profiler.clock() - started,
                    started_at=started,
                    pending=self._live,
                )
        else:  # _Batch
            index = obj.index
            obj.index = index + 1
            obj.queued = False
            self._live -= 1
            if profiler is None:
                obj.callback(index)
            else:
                started = profiler.clock()
                obj.callback(index)
                profiler.record(
                    obj.callback,
                    profiler.clock() - started,
                    started_at=started,
                    pending=self._live,
                )
            if not obj.cancelled and obj.index < len(obj.times):
                obj.time = obj.times[obj.index]
                self._scheduler.push(obj.time, obj.seq, obj)
                obj.queued = True
        self._processed += 1

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        scheduler = self._scheduler
        while True:
            entry = scheduler.pop()
            if entry is None:
                return False
            time, seq, obj = entry
            if time < self._now:  # pragma: no cover - scheduler invariant
                raise SimulationError(f"time went backwards: {time} < {self._now}")
            hook = self._before_event
            if hook is None or not hook(time, seq):
                break
            scheduler.push(time, seq, obj)
        self._now = time
        self._fire(obj)
        return True

    def run_until(self, end_time: float, *, max_events: Optional[int] = None) -> None:
        """Process events with time <= ``end_time`` (clock stops there)."""
        if not end_time >= self._now:  # NaN fails too
            raise ValidationError(
                f"end_time must not be NaN or before now {self._now}, "
                f"got {end_time}"
            )
        budget = max_events
        scheduler = self._scheduler
        while True:
            head = scheduler.peek()
            if head is None or head[0] > end_time:
                break
            if budget is not None:
                if budget <= 0:
                    raise SimulationError(
                        f"event budget exhausted at t={self._now}"
                    )
                budget -= 1
            self.step()
        self._now = float(end_time)

    def run(self, *, max_events: Optional[int] = None) -> None:
        """Process all events until the queue drains.

        This is the engine's hot loop: a popped batch entry drains
        inline — while the batch's next event beats everything else in
        the scheduler in ``(time, seq)`` order it fires back-to-back
        with no scheduler traffic and no per-event allocations. The
        batch stays *out* of the scheduler while draining. After each
        firing the drain reads the heap head itself; only when that
        head comes first does it touch the heap, with one
        ``heapq.heappushpop`` that re-arms the batch at its next time
        and hands the head straight to the outer loop. The result is
        the entry a push followed by a pop would return, since every
        entry's ``(time, seq)`` key is distinct, so the firing order is
        unchanged. The pre-event hook runs once an event is known to be
        next, just before it fires.
        """
        budget = max_events
        scheduler = self._scheduler
        hook = self._before_event
        self._stop = False
        entry = None
        while True:
            if entry is None:
                if self._stop:
                    return
                entry = scheduler.pop()
                if entry is None:
                    return
            profiler = self._profiler
            time, seq, obj = entry
            entry = None
            if time < self._now:  # pragma: no cover - scheduler invariant
                raise SimulationError(
                    f"time went backwards: {time} < {self._now}"
                )
            if hook is not None and hook(time, seq):
                # The hook brought an event forward: hold this one back.
                scheduler.push(time, seq, obj)
                continue
            if budget is not None and budget <= 0:
                raise SimulationError(
                    f"event budget exhausted at t={self._now}"
                )
            if type(obj) is EventHandle:
                self._now = time
                obj.fired = True
                self._live -= 1
                if profiler is None:
                    obj.callback()
                else:
                    started = profiler.clock()
                    obj.callback()
                    profiler.record(
                        obj.callback,
                        profiler.clock() - started,
                        started_at=started,
                        pending=self._live,
                    )
                self._processed += 1
                if budget is not None:
                    budget -= 1
                continue
            # Batch entry: fire elements inline. The first one fires at
            # once (it is the queue minimum we just got); later ones
            # fire as long as they still beat the heap head.
            obj.queued = False
            times = obj.times
            n = len(times)
            callback = obj.callback
            index = obj.index
            while True:
                if budget is not None:
                    if budget <= 0:
                        raise SimulationError(
                            f"event budget exhausted at t={self._now}"
                        )
                    budget -= 1
                self._now = times[index]
                obj.index = index + 1
                self._live -= 1
                if profiler is None:
                    callback(index)
                else:
                    started = profiler.clock()
                    callback(index)
                    profiler.record(
                        callback,
                        profiler.clock() - started,
                        started_at=started,
                        pending=self._live,
                    )
                self._processed += 1
                index = obj.index
                if obj.cancelled or index >= n:
                    break  # exhausted or cancelled mid-drain; not queued
                t_next = times[index]
                if self._stop:
                    # Park the rest of the batch so scheduler state stays
                    # consistent across the pause, then let the outer
                    # loop return.
                    obj.time = t_next
                    scheduler.push(t_next, seq, obj)
                    obj.queued = True
                    break
                # The callback may have cancelled enough to compact the
                # heap, which replaces its list: read it afresh.
                heap = scheduler.heap
                if heap:
                    head = heap[0]
                    if head[2].cancelled:
                        # Drop cancelled heads as pop would; rare.
                        head = scheduler.peek()
                    if head is not None and (
                        head[0] < t_next or (head[0] == t_next and head[1] < seq)
                    ):
                        # Another event fires first: re-arm the batch at
                        # its next time and take that event in one heap
                        # step.
                        obj.time = t_next
                        obj.queued = True
                        entry = heapq.heappushpop(heap, (t_next, seq, obj))
                        break
                if hook is not None and hook(t_next, seq):
                    # The hook brought an event forward: park the batch.
                    obj.time = t_next
                    scheduler.push(t_next, seq, obj)
                    obj.queued = True
                    break
