"""Simulated Memcached server: a FIFO queue with pluggable service times.

Keys arrive in batches (a request's keys for one server reach it
together, the paper's GI^X/M/1 model) and are served one at a time in
arrival order. The queue holds one entry per batch,
``[arrival, contexts, payload, next, size]``: the batch's per-key
contexts (or ``None`` when its keys share ``payload``), the index of
its next key to start, and its key count. A key starts service when
the key ahead of it finishes, and the fault hooks are read at that
instant.

Every service start is a *run* (a :class:`ServerRun`) of keys served
back to back, each start being the previous key's finish. The server
takes the run's service times from its window in one read, divides
each by ``rate_factor`` at that key's start, accumulates the finish
times with the engine's own float addition and schedules one
``_finish`` event, at the run's last finish, ranked by the ``seq`` of
that one scheduling. When the run ends the server folds its keys into
its utilization meter and queue log, then reports it:

* A server owned by
  :class:`~repro.simulation.system.MemcachedSystemSimulator` without a
  request policy serves every shared-payload batch (no per-key
  contexts, so no key can be abandoned) as one run: once nothing can
  interrupt it, the rest of a batch is fixed when its head key starts.
  The server hands the run to the simulator, which accounts the run's
  earlier keys in bulk before each later event (its pre-event hook)
  and its last key when it ends; :meth:`ServerSim.settle` folds the
  keys a run has finished so far (at the warmup mark and at the stop).
  On a pausable server each key is a run of one, since a pause can
  hold the next key back.
* Every other key (a policy attempt, a database key, any key of a
  server no simulator owns) is a run of one, whose payload is the
  key's context; it is reported to ``on_complete`` as plain values
  ``(context, arrival, start, finish)``.

The exponential-service default matches the paper's model, and any
:class:`~repro.distributions.Distribution` can be substituted for
model-robustness ablations.

An observed queue keeps one :class:`QueueLog` of plain rows, and every
per-queue view (the timeline's stage series, the registry's wait,
service and depth histograms, the tracer's key spans) is derived from
it when the run ends.
"""

from __future__ import annotations

import collections
import itertools
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from ..distributions import Distribution, Exponential, RandomWindow
from ..errors import SimulationError, ValidationError
from .engine import Simulator
from .metrics import UtilizationMeter, _served_back_to_back

#: Completion callback: ``(context, arrival, start, finish)`` per key.
CompletionSink = Callable[[object, float, float, float], None]

#: Fault hooks: time -> service-rate multiplier / pause-end instant.
RateFactor = Callable[[float], float]
PauseUntil = Callable[[float], float]


class ServerRun:
    """Keys of one batch served back to back, fixed when the first starts.

    Key ``i`` finishes at ``times[i]`` and starts at ``times[i - 1]``
    (key 0 at ``start``); every key arrived at ``arrival`` and shares
    ``payload`` (a run of one's payload is its key's context).
    ``server`` serves the run, whose key 0 is key ``first`` of its
    batch. ``seq`` is the engine rank of the run's one event, at its
    last finish. ``done`` counts the keys the owner has accounted and
    ``settled`` those the server has folded into its meter and log.
    """

    __slots__ = (
        "payload", "arrival", "start", "times", "last", "seq", "server", "first",
        "done", "due", "settled",
    )

    def __init__(
        self,
        payload: object,
        arrival: float,
        start: float,
        times: list,
        seq: int,
        server: "ServerSim",
        first: int,
    ) -> None:
        self.payload = payload
        self.arrival = arrival
        self.start = start
        self.times = times
        self.last = len(times) - 1
        self.seq = seq
        self.server = server
        self.first = first
        self.done = 0
        #: The owner's scratch: keys due before the event at hand.
        self.due = 0
        self.settled = 0


class QueueLog:
    """An observed queue's rows, appended as the run goes.

    ``runs`` holds one ``(arrival, start, finishes)`` row per run that
    finished service (or per part of a run, when :meth:`ServerSim.settle`
    cut it): key ``i`` of the row started at ``finishes[i - 1]`` (key 0
    at ``start``). Abandoned keys that reached service are included
    (they consumed capacity). ``batches`` holds one ``(ahead, size)``
    row per offered batch, ``ahead`` being the keys queued or in service
    when it arrived: key ``i`` of the batch saw ``ahead + i`` keys ahead
    of it. ``payloads`` tags each batch row with its shared payload
    (``None`` for per-key contexts); such keys are never dropped, so
    their keys follow their batch rows' order. :meth:`mark` sets where
    :meth:`job_columns` and :meth:`batches_since_mark` start reading.
    """

    __slots__ = ("runs", "batches", "payloads", "_marks")

    def __init__(self) -> None:
        self.runs: list = []
        self.batches: list = []
        self.payloads: list = []
        self._marks = (0, 0)

    def mark(self) -> None:
        self._marks = (len(self.runs), len(self.batches))

    def batches_since_mark(self) -> list:
        """The ``(ahead, size)`` rows logged since the last mark."""
        return self.batches[self._marks[1] :]

    def job_columns(self, since_mark: bool = True) -> Tuple[np.ndarray, ...]:
        """``(arrival, start, finish)`` float arrays, one entry per key,
        in logged order: every row, or those since the last mark."""
        runs = self.runs[self._marks[0] :] if since_mark else self.runs
        arrivals, starts, finishes = zip(*runs) if runs else ((), (), ())
        start, finish, sizes = _served_back_to_back(starts, finishes)
        return np.repeat(np.array(arrivals, dtype=float), sizes), start, finish

    def key_rows(self) -> List[tuple]:
        """Every key's ``(arrival, start, finish)`` row, in logged order."""
        return list(zip(*(column.tolist() for column in self.job_columns(False))))


class ServerSim:
    """FIFO single-server queue living on the event engine.

    A key whose context has a true ``abandoned`` attribute when it
    reaches the head (a client-side policy cancelled it while it was
    queued) is dropped without taking service. One abandoned while in
    service runs out (the server cannot un-serve it) and is reported
    as usual; its owner ignores it.
    """

    def __init__(
        self,
        sim: Simulator,
        service: Distribution,
        rng: np.random.Generator,
        *,
        name: str = "server",
        on_complete: Optional[CompletionSink] = None,
        rate_factor: Optional[RateFactor] = None,
        pause_until: Optional[PauseUntil] = None,
        log: Optional[QueueLog] = None,
    ) -> None:
        self._sim = sim
        self._service = service
        self._rng = rng
        # Service times come from a pre-drawn window: one vectorized
        # draw per refill instead of one Generator call per job. The
        # sample_window contract keeps the value sequence bit-identical
        # to the scalar calls it replaced, for every window size.
        self._service_window = RandomWindow.from_distribution(service, rng)
        self.name = name
        self._on_complete = on_complete
        # Observed queues append plain rows (bound appends, no method
        # dispatch); what they mean is worked out at run end.
        self._log_run = log.runs.append if log is not None else None
        self._log_batch = log.batches.append if log is not None else None
        self._log_payload = log.payloads.append if log is not None else None
        # Fault hooks. ``rate_factor(t)`` scales the service *rate* for
        # keys starting at t (a sampled service time is divided by it);
        # ``pause_until(t)`` returns when a pause covering t lifts (t
        # itself when unpaused) — paused servers start no new service,
        # in-flight service finishes (the GC-pause model).
        self._rate_factor = rate_factor
        self._pause_until = pause_until
        self._pause_pending = False
        self._queue: Deque[list] = collections.deque()
        # An owner that accounts runs sets both hooks (see the module
        # docstring) and offers shared-payload batches only:
        # ``_on_run_start(run)`` when a run of more than one key starts,
        # ``_on_run_end(run)`` at the run's last finish, in place of
        # ``on_complete``. ``_run`` is the run in service (None when idle).
        self._on_run_start: Optional[Callable[[ServerRun], None]] = None
        self._on_run_end: Optional[Callable[[ServerRun], None]] = None
        self._run: Optional[ServerRun] = None
        # Keys offered, served and dropped unserved: the keys in the
        # queue are counted without walking it.
        self._offered = 0
        self._completed = 0
        self._dropped = 0
        self.utilization_meter = UtilizationMeter()

    @classmethod
    def exponential(
        cls,
        sim: Simulator,
        service_rate: float,
        rng: np.random.Generator,
        **kwargs: object,
    ) -> "ServerSim":
        """The paper's server: ``Exp(muS)`` per-key service."""
        return cls(sim, Exponential(service_rate), rng, **kwargs)

    # ------------------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Keys waiting (excluding the one in service)."""
        return self.depth - (self._run is not None)

    @property
    def busy(self) -> bool:
        return self._run is not None

    @property
    def depth(self) -> int:
        """Keys in the queue: waiting plus the one in service."""
        return self._offered - self.completed - self._dropped

    @property
    def completed(self) -> int:
        """Keys served, the accounted keys of an owned run in service
        included."""
        run = self._run
        return self._completed if run is None else self._completed + run.done

    def offer_batch(
        self,
        now: float,
        size: int,
        *,
        contexts: Optional[list] = None,
        context: object = None,
    ) -> None:
        """Enqueue a batch of ``size`` keys arriving together at ``now``.

        Each key is reported with its entry of ``contexts`` when given,
        else with the batch's shared ``context``.
        """
        if size < 1:
            raise ValidationError(f"batch size must be >= 1, got {size}")
        if contexts is not None and len(contexts) != size:
            raise ValidationError("contexts must match the batch size")
        if self._log_batch is not None:
            self._log_batch((self.depth, size))
            self._log_payload(context)
        self._offered += size
        self._queue.append([now, contexts, context, 0, size])
        if self._run is None:
            self._start_next()

    def offer_key(self, now: float, *, context: object = None) -> None:
        """Enqueue a single key (batch of one) with its own ``context``,
        which also tags its batch row."""
        self.offer_batch(now, 1, contexts=[context], context=context)

    # ------------------------------------------------------------------

    def _start_next(self) -> None:
        if self._run is not None:
            raise SimulationError(f"{self.name}: server already busy")
        queue = self._queue
        # Abandoned keys are dropped at the head: a cancelled key that
        # never reached service consumes no capacity.
        while queue:
            entry = queue[0]
            contexts = entry[1]
            if contexts is None:
                break
            if not getattr(contexts[entry[3]], "abandoned", False):
                break
            entry[3] += 1
            self._dropped += 1
            if entry[3] == entry[4]:
                queue.popleft()
        else:
            return
        sim = self._sim
        now = sim.now
        if self._pause_until is not None:
            resume = self._pause_until(now)
            if resume > now:
                if not self._pause_pending:
                    self._pause_pending = True
                    sim.schedule(resume - now, self._resume_from_pause)
                return
        index = entry[3]
        size = entry[4]
        # An owned batch without per-key contexts (which can be
        # abandoned) is served as one run: the rest of the batch, unless
        # a pause can hold the next key back. Every other key is a run
        # of one. A run takes its keys off the queue now, and
        # ``completed`` counts an owned run's keys as the owner accounts
        # them.
        owned = contexts is None and self._on_run_end is not None
        count = size - index if owned and self._pause_until is None else 1
        entry[3] = index + count
        if index + count == size:
            queue.popleft()
        self.utilization_meter.server_started(now)
        times = self._finishes(now, count)
        event = sim.schedule_at(times[-1], self._finish)
        payload = entry[2] if contexts is None else contexts[index]
        run = self._run = ServerRun(
            payload, entry[0], now, times, event.seq, self, index
        )
        if count > 1:
            self._on_run_start(run)

    def _finishes(self, now: float, count: int) -> list:
        """Finish times of the next ``count`` keys served back to back
        from ``now``: each key's draw divided by the rate factor at its
        start, the previous key's finish. A finish accumulates as
        ``Simulator.schedule`` computes it."""
        rate_factor = self._rate_factor
        services = self._service_window.take(count)
        if rate_factor is None:
            return list(
                itertools.islice(itertools.accumulate(services, initial=now), 1, None)
            )
        finish = now
        times = []
        for service_time in services:
            factor = rate_factor(finish)
            if factor != 1.0:
                service_time /= factor
            finish = finish + service_time
            times.append(finish)
        return times

    def _resume_from_pause(self) -> None:
        self._pause_pending = False
        if self._run is None:
            self._start_next()

    def _finish(self) -> None:
        """The run in service ends now, at its last finish: fold it into
        the meter and the log, hand it to the owner that accounts runs
        (or report its one key to ``on_complete``), then start the next
        key."""
        run = self._run
        self._run = None
        self._settle(run, run.last + 1, idle=True)
        self._completed += run.last + 1
        if self._on_run_end is not None:
            self._on_run_end(run)
        elif self._on_complete is not None:
            self._on_complete(run.payload, run.arrival, run.start, run.times[0])
        self._start_next()

    def settle(self) -> None:
        """Fold the keys the owned run in service has finished so far
        into the utilization meter and the queue log.

        The log row is cut there, so a :meth:`QueueLog.mark` that
        follows splits the run's keys where the owner's accounting
        stands, and the meter reads as a key-at-a-time meter would."""
        run = self._run
        if run is not None and run.done > run.settled:
            self._settle(run, run.done, idle=False)

    def _settle(self, run: ServerRun, upto: int, *, idle: bool) -> None:
        first = run.settled
        times = run.times
        finishes = times if first == 0 and upto == len(times) else times[first:upto]
        self.utilization_meter.server_ran(finishes, idle=idle)
        if self._log_run is not None:
            start = times[first - 1] if first else run.start
            self._log_run((run.arrival, start, finishes))
        run.settled = upto

    def release(self) -> None:
        """Drop the completion callbacks.

        A callback is usually a bound method of the object that owns
        this server, so the two reference each other; a finished run
        releases them to be freed by reference counting alone. Counters,
        the utilization meter and the queue stay readable.
        """
        self._on_complete = None
        self._on_run_start = None
        self._on_run_end = None
