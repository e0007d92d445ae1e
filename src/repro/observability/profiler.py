"""Event-loop profiler for the discrete-event engine.

Attributes wall-clock time to callback *categories* (the scheduling
site's qualified name), counts events per second, and samples the live
event count — enough to see where a slow simulation spends real time
without a sampling profiler. The engine pays a single ``is None`` check
per event when profiling is off; the hot path is untouched.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Optional


def callback_category(callback: Callable[[], None]) -> str:
    """Stable category for a scheduled callback.

    Bound methods report their qualified name (``ServerSim._finish``
    for a service completion); lambdas and inner functions collapse
    onto the enclosing method, which is the scheduling site we want to
    attribute time to.
    """
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        func = getattr(callback, "func", None)  # functools.partial
        if func is not None:
            return callback_category(func)
        return type(callback).__name__
    return qualname.replace(".<locals>", "").replace(".<lambda>", "")


class EngineProfiler:
    """Accumulates per-category wall time and event-loop gauges."""

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._counts: Dict[str, int] = {}
        self._wall: Dict[str, float] = {}
        self._events = 0
        self._wall_total = 0.0
        self._first_event: Optional[float] = None
        self._last_event: Optional[float] = None
        self._pending_sum = 0
        self._pending_max = 0

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    @property
    def events(self) -> int:
        return self._events

    def record(
        self,
        callback: Callable[[], None],
        wall_seconds: float,
        *,
        started_at: float,
        pending: int,
    ) -> None:
        """Account one fired event (called by the engine)."""
        category = callback_category(callback)
        self._counts[category] = self._counts.get(category, 0) + 1
        self._wall[category] = self._wall.get(category, 0.0) + wall_seconds
        self._events += 1
        self._wall_total += wall_seconds
        if self._first_event is None:
            self._first_event = started_at
        self._last_event = started_at + wall_seconds
        self._pending_sum += pending
        self._pending_max = max(self._pending_max, pending)

    # ------------------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Wall time spent inside event callbacks."""
        return self._wall_total

    @property
    def events_per_second(self) -> float:
        """Throughput over the first-to-last event window."""
        if self._first_event is None or self._last_event is None:
            return 0.0
        window = self._last_event - self._first_event
        if window <= 0.0:
            return math.inf if self._events else 0.0
        return self._events / window

    @property
    def mean_pending(self) -> float:
        if self._events == 0:
            return 0.0
        return self._pending_sum / self._events

    @property
    def max_pending(self) -> int:
        return self._pending_max

    def categories(self) -> Dict[str, Dict[str, float]]:
        """Per-category stats, heaviest wall time first."""
        out: Dict[str, Dict[str, float]] = {}
        for category in sorted(
            self._counts, key=lambda name: -self._wall.get(name, 0.0)
        ):
            count = self._counts[category]
            wall = self._wall[category]
            out[category] = {
                "count": count,
                "wall_seconds": wall,
                "mean_usec": (wall / count) * 1e6 if count else 0.0,
            }
        return out

    def stats(self) -> Dict[str, object]:
        """JSON-ready profile snapshot."""
        return {
            "events": self._events,
            "wall_seconds": self._wall_total,
            "events_per_second": self.events_per_second,
            "pending_mean": self.mean_pending,
            "pending_max": self._pending_max,
            "categories": self.categories(),
        }

    def reset(self) -> None:
        self._counts.clear()
        self._wall.clear()
        self._events = 0
        self._wall_total = 0.0
        self._first_event = None
        self._last_event = None
        self._pending_sum = 0
        self._pending_max = 0
