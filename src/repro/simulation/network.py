"""Network stage for the simulator.

The paper treats the network as a constant delay (utilization < 10%, no
queueing); :class:`NetworkSim` models it as a pure delay element. The
engine relies on the delay being constant: it keeps FIFO order, so
neither hop of a policy-free key needs an event of its own, and only
policy attempts are sent through :meth:`NetworkSim.send`.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ValidationError
from .engine import Simulator


class NetworkSim:
    """Delay element: delivers payloads after a constant ``delay``."""

    def __init__(self, sim: Simulator, delay: float) -> None:
        if delay < 0:
            raise ValidationError(f"delay must be >= 0, got {delay}")
        self._sim = sim
        self.delay = float(delay)

    @classmethod
    def constant(cls, sim: Simulator, delay: float) -> "NetworkSim":
        """The paper's constant-latency network (eq. (2))."""
        return cls(sim, delay)

    def send(self, deliver: Callable[[], None]) -> float:
        """Schedule ``deliver`` after the network delay; return the delay."""
        self._sim.schedule(self.delay, deliver)
        return self.delay
