"""Simulated Memcached server: a FIFO queue with pluggable service times.

Keys enter (possibly in batches), wait FIFO, and are served one at a
time; per-key wait and sojourn are reported to a completion callback.
The exponential-service default matches the paper's model, and any
:class:`~repro.distributions.Distribution` can be substituted for
model-robustness ablations.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Callable, Deque, Optional

import numpy as np

from ..distributions import Distribution, Exponential, RandomWindow
from ..errors import SimulationError, ValidationError
from ..observability import MetricsRegistry
from .engine import Simulator
from .metrics import UtilizationMeter


@dataclasses.dataclass
class KeyJob:
    """One key's passage through a server queue.

    ``abandoned`` marks a job cancelled by a client-side policy (timeout
    or cancel-on-winner): a queued abandoned job is dropped when it
    reaches the head without consuming service capacity; one already in
    service runs out (the server cannot un-serve it) but is reported
    with the flag set so sinks can ignore it.
    """

    key_id: int
    arrival_time: float
    batch_id: int
    position_in_batch: int
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    context: object = None
    abandoned: bool = False

    @property
    def wait(self) -> float:
        if self.start_time is None:
            raise ValidationError("job has not started service")
        return self.start_time - self.arrival_time

    @property
    def sojourn(self) -> float:
        if self.finish_time is None:
            raise ValidationError("job has not finished service")
        return self.finish_time - self.arrival_time


#: Completion callback: receives the finished job.
CompletionSink = Callable[[KeyJob], None]

#: Fault hooks: time -> service-rate multiplier / pause-end instant.
RateFactor = Callable[[float], float]
PauseUntil = Callable[[float], float]


class ServerSim:
    """FIFO single-server queue living on the event engine."""

    def __init__(
        self,
        sim: Simulator,
        service: Distribution,
        rng: np.random.Generator,
        *,
        name: str = "server",
        on_complete: Optional[CompletionSink] = None,
        metrics: Optional[MetricsRegistry] = None,
        rate_factor: Optional[RateFactor] = None,
        pause_until: Optional[PauseUntil] = None,
        trace: Optional[list] = None,
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
        # Timeline sink: ``(arrival, service_start, finish)`` per served
        # job, consumed by TimelineBuilder.stage_sink. Abandoned jobs
        # that reached service are included — they consumed capacity.
        # The bound append keeps the per-job cost to one call.
        self._trace = trace
        self._trace_append = trace.append if trace is not None else None
        # Fault hooks. ``rate_factor(t)`` scales the service *rate* for
        # jobs starting at t (a sampled service time is divided by it);
        # ``pause_until(t)`` returns when a pause covering t lifts (t
        # itself when unpaused) — paused servers start no new service,
        # in-flight service finishes (the GC-pause model).
        self._rate_factor = rate_factor
        self._pause_until = pause_until
        self._pause_pending = False
        self._queue: Deque[KeyJob] = collections.deque()
        # The job in service (None when idle); its completion is the
        # bound ``_finish``, so a service start allocates no closure.
        self._in_service: Optional[KeyJob] = None
        self._next_key_id = 0
        self._next_batch_id = 0
        self._completed = 0
        self.utilization_meter = UtilizationMeter()
        # Optional per-queue observability: wait/service distributions
        # and the queue depth each arriving key sees (Little's-Law
        # auditing à la Hill's queue-level counters).
        if metrics is not None:
            self._hist_wait = metrics.histogram(f"{name}.wait")
            self._hist_service = metrics.histogram(f"{name}.service")
            self._hist_depth = metrics.histogram(f"{name}.queue_depth", min_value=1.0)
            self._ctr_arrivals = metrics.counter(f"{name}.arrivals")
        else:
            self._hist_wait = None
            self._hist_service = None
            self._hist_depth = None
            self._ctr_arrivals = None

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
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._in_service is not None

    @property
    def completed(self) -> int:
        return self._completed

    def offer_batch(self, now: float, size: int, *, contexts: Optional[list] = None) -> list[KeyJob]:
        """Enqueue a batch of ``size`` keys arriving together at ``now``."""
        if size < 1:
            raise ValidationError(f"batch size must be >= 1, got {size}")
        if contexts is not None and len(contexts) != size:
            raise ValidationError("contexts must match the batch size")
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        if self._ctr_arrivals is not None:
            self._ctr_arrivals.inc(size)
        jobs = []
        for position in range(size):
            if self._hist_depth is not None:
                # Jobs ahead of this key: queued + the one in service.
                in_service = 0 if self._in_service is None else 1
                self._hist_depth.record(len(self._queue) + in_service)
            job = KeyJob(
                key_id=self._next_key_id,
                arrival_time=now,
                batch_id=batch_id,
                position_in_batch=position + 1,
                context=contexts[position] if contexts is not None else None,
            )
            self._next_key_id += 1
            self._queue.append(job)
            jobs.append(job)
        if self._in_service is None:
            self._start_next()
        return jobs

    def offer_key(self, now: float, *, context: object = None) -> KeyJob:
        """Enqueue a single key (batch of one)."""
        return self.offer_batch(now, 1, contexts=[context])[0]

    # ------------------------------------------------------------------

    def _start_next(self) -> None:
        if self._in_service is not None:
            raise SimulationError(f"{self.name}: server already busy")
        # Abandoned jobs are dropped at the head: a cancelled key that
        # never reached service consumes no capacity.
        while self._queue and self._queue[0].abandoned:
            self._queue.popleft()
        if not self._queue:
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
        job = self._queue.popleft()
        self.utilization_meter.server_started(now)
        job.start_time = now
        service_time = self._service_window.get()
        if self._rate_factor is not None:
            factor = self._rate_factor(now)
            if factor != 1.0:
                service_time /= factor
        self._in_service = job
        sim.schedule(service_time, self._finish)

    def _resume_from_pause(self) -> None:
        self._pause_pending = False
        if self._in_service is None:
            self._start_next()

    def _finish(self) -> None:
        now = self._sim.now
        job = self._in_service
        self._in_service = None
        job.finish_time = now
        self.utilization_meter.server_stopped(now)
        self._completed += 1
        if self._hist_wait is not None:
            self._hist_wait.record(job.wait)
            self._hist_service.record(job.finish_time - job.start_time)
        if self._trace_append is not None:
            self._trace_append(
                (job.arrival_time, job.start_time, job.finish_time)
            )
        if self._on_complete is not None:
            self._on_complete(job)
        self._start_next()
