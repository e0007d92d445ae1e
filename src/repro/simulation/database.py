"""Simulated back-end database: a single FIFO M/M/1-style queue.

Missed keys are relayed here (paper §3 enhancement 3). Service defaults
to exponential at rate ``muD``; the arrival process is whatever the
Memcached stage's miss stream produces — the paper argues it is
approximately Poisson, and the simulator lets tests check that claim
instead of assuming it.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..distributions import Exponential
from .engine import Simulator
from .server import CompletionSink, QueueLog, ServerSim


class DatabaseSim(ServerSim):
    """A FIFO queue with exponential service — same machinery as a server.

    Subclassing :class:`ServerSim` keeps the queueing semantics
    identical; only the construction defaults differ.
    """

    def __init__(
        self,
        sim: Simulator,
        service_rate: float,
        rng: np.random.Generator,
        *,
        on_complete: Optional[CompletionSink] = None,
        rate_factor: Optional[Callable[[float], float]] = None,
        log: Optional[QueueLog] = None,
    ) -> None:
        super().__init__(
            sim,
            Exponential(service_rate),
            rng,
            name="database",
            on_complete=on_complete,
            rate_factor=rate_factor,
            log=log,
        )
