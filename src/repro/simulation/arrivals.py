"""Arrival processes for the simulator.

:class:`BatchArrivalProcess` reproduces the paper's workload: batch gaps
from any :class:`~repro.distributions.Distribution` (Generalized Pareto
for the Facebook model) and geometric batch sizes.
:class:`TimeVaryingPoissonProcess` drives diurnal load curves.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from ..core.workload import WorkloadPattern
from ..distributions import (
    DiscreteDistribution,
    Distribution,
    FixedCount,
    RandomWindow,
    split_rng,
)
from ..errors import ValidationError
from .engine import BatchHandle, Simulator

#: Called with (arrival_time, batch_size) for each batch.
BatchSink = Callable[[float, int], None]


@dataclasses.dataclass(frozen=True)
class Batch:
    """One batch arrival: when and how many keys."""

    time: float
    size: int


class BatchArrivalProcess:
    """Renewal batch arrivals driven by the event engine.

    Each renewal draws a gap from ``gap`` and a size from ``batch_size``
    and delivers the batch to ``sink``. Attach to a simulator with
    :meth:`start`; the process reschedules itself until ``stop`` is
    called or the simulation ends.

    ``window`` opts into the batched fast path: gaps and sizes are
    pre-drawn a window at a time and the arrivals ride one engine event
    batch (:meth:`Simulator.schedule_batch`) instead of one scheduled
    event each. Windowed mode draws gap and size values from two
    *split child streams* of ``rng`` (interleaving them on one stream
    would make the values depend on the window size), so its seeded
    output differs from the default per-event mode — pick one mode per
    experiment. Within windowed mode, results are invariant to the
    window size.
    """

    def __init__(
        self,
        gap: Distribution,
        batch_size: DiscreteDistribution,
        rng: np.random.Generator,
        *,
        window: Optional[int] = None,
    ) -> None:
        self._gap = gap
        self._batch_size = batch_size
        self._rng = rng
        self._sink: Optional[BatchSink] = None
        self._sim: Optional[Simulator] = None
        self._running = False
        if window is not None:
            if window < 1:
                raise ValidationError(f"window must be >= 1, got {window}")
            gap_rng, size_rng = split_rng(rng, 2)
            self._gap_window: Optional[RandomWindow] = (
                RandomWindow.from_distribution(gap, gap_rng, size=window)
            )
            self._size_window: Optional[RandomWindow] = (
                RandomWindow.from_distribution(batch_size, size_rng, size=window)
            )
        else:
            self._gap_window = None
            self._size_window = None
        self._window = window
        self._batch_handle: Optional[BatchHandle] = None

    @classmethod
    def from_workload(
        cls, workload: WorkloadPattern, rng: np.random.Generator
    ) -> "BatchArrivalProcess":
        """Build the paper's GPD-gap, geometric-size process."""
        return cls(
            workload.batch_gap_distribution(),
            workload.batch_size_distribution(),
            rng,
        )

    def start(self, sim: Simulator, sink: BatchSink) -> None:
        """Begin generating arrivals into ``sink``."""
        if self._running:
            raise ValidationError("arrival process already started")
        self._sim = sim
        self._sink = sink
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop after the currently scheduled arrival (if any)."""
        self._running = False
        if self._batch_handle is not None:
            self._batch_handle.cancel()
            self._batch_handle = None

    def _schedule_next(self) -> None:
        assert self._sim is not None
        if self._gap_window is not None:
            self._schedule_window()
            return
        gap = float(self._gap.sample(self._rng))
        self._sim.schedule(gap, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        assert self._sim is not None and self._sink is not None
        size = int(self._batch_size.sample(self._rng))
        self._sink(self._sim.now, size)
        self._schedule_next()

    # Windowed fast path: one engine batch per pre-drawn gap window. ---

    def _schedule_window(self) -> None:
        sim = self._sim
        count = self._window
        t = sim.now
        times = []
        for gap in self._gap_window.take(count):
            t = t + gap
            times.append(t)
        self._batch_handle = sim.schedule_batch(times, self._fire_windowed)

    def _fire_windowed(self, index: int) -> None:
        if not self._running:
            return
        self._sink(self._sim.now, int(self._size_window.get()))
        if index + 1 == self._window:
            self._schedule_window()


class TimeVaryingPoissonProcess:
    """Non-homogeneous Poisson arrivals via Lewis-Shedler thinning.

    Production key rates follow diurnal curves; this process drives the
    simulator with any bounded rate function ``rate(t)`` — candidate
    events are generated at ``max_rate`` and accepted with probability
    ``rate(t) / max_rate``, which is exact for inhomogeneous Poisson.
    """

    def __init__(
        self,
        rate: Callable[[float], float],
        max_rate: float,
        rng: np.random.Generator,
        *,
        batch_size: Optional[DiscreteDistribution] = None,
    ) -> None:
        if max_rate <= 0:
            raise ValidationError(f"max_rate must be > 0, got {max_rate}")
        self._rate = rate
        self._max_rate = float(max_rate)
        self._rng = rng
        self._batch_size = batch_size if batch_size is not None else FixedCount(1)
        self._sink: Optional[BatchSink] = None
        self._sim: Optional[Simulator] = None
        self._running = False

    @classmethod
    def sinusoidal(
        cls,
        mean_rate: float,
        amplitude: float,
        period: float,
        rng: np.random.Generator,
        **kwargs: object,
    ) -> "TimeVaryingPoissonProcess":
        """Diurnal-style rate ``mean (1 + a sin(2 pi t / period))``."""
        if not 0.0 <= amplitude < 1.0:
            raise ValidationError(
                f"amplitude must be in [0, 1), got {amplitude}"
            )
        if mean_rate <= 0 or period <= 0:
            raise ValidationError("mean_rate and period must be > 0")
        two_pi = 2.0 * np.pi

        def rate(t: float) -> float:
            return mean_rate * (1.0 + amplitude * np.sin(two_pi * t / period))

        return cls(rate, mean_rate * (1.0 + amplitude), rng, **kwargs)

    def start(self, sim: Simulator, sink: BatchSink) -> None:
        if self._running:
            raise ValidationError("arrival process already started")
        self._sim = sim
        self._sink = sink
        self._running = True
        self._schedule_candidate()

    def stop(self) -> None:
        self._running = False

    def _schedule_candidate(self) -> None:
        assert self._sim is not None
        gap = float(self._rng.exponential(1.0 / self._max_rate))
        self._sim.schedule(gap, self._candidate)

    def _candidate(self) -> None:
        if not self._running:
            return
        assert self._sim is not None and self._sink is not None
        now = self._sim.now
        instantaneous = float(self._rate(now))
        if instantaneous < 0:
            raise ValidationError(f"rate function went negative at t={now}")
        if instantaneous > self._max_rate * (1.0 + 1e-9):
            raise ValidationError(
                f"rate {instantaneous} exceeds max_rate {self._max_rate}"
            )
        if self._rng.random() < instantaneous / self._max_rate:
            size = int(self._batch_size.sample(self._rng))
            self._sink(now, size)
        self._schedule_candidate()

