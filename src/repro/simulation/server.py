"""Simulated Memcached server: a FIFO queue with pluggable service times.

Keys arrive in batches (a request's keys for one server reach it
together, the paper's GI^X/M/1 model) and are served one at a time in
arrival order. The queue holds one entry per batch,
``[arrival, contexts, payload, next, size]``: the batch's per-key
contexts (or ``None`` when its keys share ``payload``), the index of
its next key to start, and its key count. A key starts service when
the key ahead of it finishes, and the fault hooks are read at that
instant.

Once nothing can interrupt it, the rest of a batch is fixed when its
head key starts: with a shared payload (no per-key contexts, so no key
can be abandoned) and no ``pause_until`` hook, every start is the
previous key's finish. The server then schedules that *run* at once:
it takes the run's service times from its window in one read, divides
each by ``rate_factor`` at that key's start, accumulates the finish
times with the engine's own float addition and hands them to one
:meth:`~repro.simulation.engine.Simulator.schedule_batch`. Every other
key starts lazily, one scheduled ``_finish`` at a time. Either way
``_finish`` reports each key as plain values ``(context, arrival,
start, finish)`` and keeps the queue cursor and the utilization meter
exactly where the key-at-a-time path puts them. A run
key that is not the run's last reads its finish from the run's times
and moves the meter with one
:meth:`~repro.simulation.metrics.UtilizationMeter.server_continued`
step, the float a stop then a start would give. The
exponential-service default matches the paper's model, and any
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
from typing import Callable, Deque, Optional

import numpy as np

from ..distributions import Distribution, Exponential, RandomWindow
from ..errors import SimulationError, ValidationError
from .engine import Simulator
from .metrics import UtilizationMeter

#: Completion callback: ``(context, arrival, start, finish)`` per key.
CompletionSink = Callable[[object, float, float, float], None]

#: Fault hooks: time -> service-rate multiplier / pause-end instant.
RateFactor = Callable[[float], float]
PauseUntil = Callable[[float], float]


class QueueLog:
    """An observed queue's rows, appended as the run goes.

    ``jobs`` holds one ``(arrival, start, finish)`` row per key that
    finished service, abandoned keys that reached service included
    (they consumed capacity). ``batches`` holds one ``(ahead, size)``
    row per offered batch, ``ahead`` being the keys queued or in
    service when it arrived: key ``i`` of the batch saw ``ahead + i``
    keys ahead of it. ``payloads`` tags each batch row with its shared
    payload (``None`` for per-key contexts); such keys are never
    dropped, so their job rows follow their batch rows' order.
    :meth:`mark` sets where :meth:`since_mark` starts reading.
    """

    __slots__ = ("jobs", "batches", "payloads", "job_mark", "batch_mark")

    def __init__(self) -> None:
        self.jobs: list = []
        self.batches: list = []
        self.payloads: list = []
        self.job_mark = 0
        self.batch_mark = 0

    def mark(self) -> None:
        self.job_mark, self.batch_mark = len(self.jobs), len(self.batches)

    def since_mark(self) -> tuple:
        """The ``(jobs, batches)`` rows logged since the last mark."""
        return self.jobs[self.job_mark :], self.batches[self.batch_mark :]


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
        self._log_job = log.jobs.append if log is not None else None
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
        # The key in service: its arrival (None when idle), context and
        # start instant. Its completion is the bound ``_finish``, so a
        # service start allocates nothing. ``_run_last`` is the index,
        # within the scheduled run, of the run's last key (0 for a key
        # scheduled on its own).
        self._arrival: Optional[float] = None
        self._context: object = None
        self._started = 0.0
        self._run_times: list = []
        self._run_last = 0
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
        return self.depth - (self._arrival is not None)

    @property
    def busy(self) -> bool:
        return self._arrival is not None

    @property
    def depth(self) -> int:
        """Keys in the queue: waiting plus the one in service."""
        return self._offered - self._completed - self._dropped

    @property
    def completed(self) -> int:
        return self._completed

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
        if self._arrival is None:
            self._start_next()

    def offer_key(self, now: float, *, context: object = None) -> None:
        """Enqueue a single key (batch of one) with its own ``context``,
        which also tags its batch row."""
        self.offer_batch(now, 1, contexts=[context], context=context)

    # ------------------------------------------------------------------

    def _start_next(self) -> None:
        if self._arrival is not None:
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
        entry[3] = index + 1
        if index + 1 == size:
            queue.popleft()
        self._arrival = entry[0]
        self._context = entry[2] if contexts is None else contexts[index]
        self._started = now
        self.utilization_meter.server_started(now)
        rate_factor = self._rate_factor
        # Per-key contexts can be abandoned and a pause can hold a key
        # back, so only a shared-payload batch on an unpausable server
        # fixes its later starts now.
        if contexts is not None or self._pause_until is not None or index + 1 == size:
            service_time = self._service_window.get()
            if rate_factor is not None:
                factor = rate_factor(now)
                if factor != 1.0:
                    service_time /= factor
            self._run_last = 0
            sim.schedule(service_time, self._finish)
            return
        # A run: each key starts when the one ahead of it finishes, so
        # its draw, its rate factor and its finish are known now. The
        # finish accumulates as ``Simulator.schedule`` computes it.
        services = self._service_window.take(size - index)
        if rate_factor is None:
            times = list(
                itertools.islice(itertools.accumulate(services, initial=now), 1, None)
            )
        else:
            finish = now
            times = []
            for service_time in services:
                factor = rate_factor(finish)
                if factor != 1.0:
                    service_time /= factor
                finish = finish + service_time
                times.append(finish)
        self._run_times = times
        self._run_last = size - index - 1
        sim.schedule_batch(times, self._finish)

    def _resume_from_pause(self) -> None:
        self._pause_pending = False
        if self._arrival is None:
            self._start_next()

    def _finish(self, index: int = 0) -> None:
        """Key ``index`` of the scheduled run finishes now."""
        arrival = self._arrival
        start = self._started
        self._arrival = None
        last = index == self._run_last
        if last:
            now = self._sim.now
            self.utilization_meter.server_stopped(now)
        else:
            # The run's next key starts as this one finishes: one meter
            # step gives the float a stop and a start would give.
            now = self._run_times[index]
            self.utilization_meter.server_continued(now)
        self._completed += 1
        if self._log_job is not None:
            self._log_job((arrival, start, now))
        if self._on_complete is not None:
            self._on_complete(self._context, arrival, start, now)
        if last:
            self._start_next()
            return
        # The run's next key is in service: the cursor moves as
        # _start_next would move it; its service is already drawn.
        if self._arrival is not None:
            raise SimulationError(f"{self.name}: server already busy")
        entry = self._queue[0]
        entry[3] += 1
        if entry[3] == entry[4]:
            self._queue.popleft()
        self._arrival = arrival
        self._started = now

    def release(self) -> None:
        """Drop the completion callback.

        The callback is usually a bound method of the object that owns
        this server, so the two reference each other; a finished run
        releases it to be freed by reference counting alone. Counters,
        the utilization meter and the queue stay readable.
        """
        self._on_complete = None
