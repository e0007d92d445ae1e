"""Network stage for the simulator.

The paper treats the network as a constant delay (utilization < 10%, no
queueing); :class:`NetworkSim` models it as a pure delay element, with
an optional random distribution for sensitivity studies.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..distributions import Deterministic, Distribution, RandomWindow
from ..errors import ValidationError
from .engine import Simulator


class NetworkSim:
    """Delay element: delivers payloads after a (usually constant) delay."""

    def __init__(
        self,
        sim: Simulator,
        delay: Distribution,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._sim = sim
        self._delay = delay
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # The paper's network is a constant delay: skip the distribution
        # machinery entirely on that path (no RNG is consumed either
        # way — Deterministic.sample ignores its generator). Random
        # delays go through a pre-drawn window like every other stream.
        if isinstance(delay, Deterministic):
            self._constant: Optional[float] = float(delay.mean)
            self._window: Optional[RandomWindow] = None
        else:
            self._constant = None
            self._window = RandomWindow.from_distribution(delay, self._rng)
        self._delivered = 0

    @classmethod
    def constant(cls, sim: Simulator, delay: float) -> "NetworkSim":
        """The paper's constant-latency network (eq. (2))."""
        if delay < 0:
            raise ValidationError(f"delay must be >= 0, got {delay}")
        return cls(sim, Deterministic(delay))

    @property
    def delivered(self) -> int:
        return self._delivered

    @property
    def mean_delay(self) -> float:
        return self._delay.mean

    def traverse(self) -> float:
        """Account one traversal and return its delay, scheduling nothing.

        For callers that handle the arrival themselves: a constant delay
        keeps FIFO order, so the arrival needs no event of its own.
        """
        constant = self._constant
        delay = constant if constant is not None else self._window.get()
        self._delivered += 1
        return delay

    def send(self, deliver: Callable[[], None]) -> float:
        """Schedule ``deliver`` after one sampled network delay.

        Returns the sampled delay so callers can account it per key.
        """
        delay = self.traverse()
        self._sim.schedule(delay, deliver)
        return delay
