"""Declarative fault schedules: time-windowed degradations of the system.

The paper's model (and our Theorem-1 pipeline) describes a fault-free
steady state; real Memcached deployments degrade — a server's effective
service rate drops while a neighbour rebuilds, a GC-style pause stalls
dequeues, the backing database saturates under a miss storm, a ring
change shifts routing shares. :class:`FaultSchedule` captures those
episodes as data: a tuple of time-windowed fault events that the
simulators consult, so the *same* schedule drives the event engine and
the vectorized fast path, serializes into experiment configs, and
round-trips through JSON checkpoints.

Four window kinds:

* :class:`ServerSlowdown` — multiply one server's (or every server's)
  service rate by ``factor`` in ``[start, start+duration)``;
* :class:`ServerPause` — GC-style stall: the server starts no new
  service during the window (in-flight service finishes);
* :class:`DatabaseOverload` — multiply the database service rate by
  ``factor`` during the window (the §5.1 overload transient);
* :class:`ShareShift` — replace the routing shares ``{p_j}`` during the
  window (load-imbalance episodes).

Windows compose: overlapping rate windows multiply, overlapping pauses
union, and the latest-starting active :class:`ShareShift` wins.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigError, ValidationError

__all__ = [
    "DatabaseOverload",
    "FaultSchedule",
    "FaultWindow",
    "ServerPause",
    "ServerSlowdown",
    "ShareShift",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


@dataclasses.dataclass(frozen=True)
class FaultWindow:
    """Base class: one fault active in ``[start, start + duration)``."""

    start: float
    duration: float

    def __post_init__(self) -> None:
        _require(self.start >= 0.0, f"start must be >= 0, got {self.start}")
        _require(self.duration > 0.0, f"duration must be > 0, got {self.duration}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active(self, t: float) -> bool:
        return self.start <= t < self.end

    def to_dict(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["kind"] = _KIND_OF[type(self)]
        if payload.get("shares") is not None:
            payload["shares"] = list(payload["shares"])
        return payload


@dataclasses.dataclass(frozen=True)
class ServerSlowdown(FaultWindow):
    """Service-rate degradation: ``muS -> factor * muS`` on one server.

    ``server=None`` degrades every server (e.g. a rack-wide thermal
    event); ``factor`` must be in ``(0, 1]`` — use the workload knobs,
    not a fault, to model *speedups*.
    """

    factor: float = 0.5
    server: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            0.0 < self.factor <= 1.0,
            f"slowdown factor must be in (0, 1], got {self.factor}",
        )
        _require(
            self.server is None or self.server >= 0,
            f"server index must be >= 0, got {self.server}",
        )


@dataclasses.dataclass(frozen=True)
class ServerPause(FaultWindow):
    """GC-style stall: the server starts no new service in the window.

    In-flight service completes (the thread already holds the item);
    queued keys wait until the pause lifts. ``server=None`` pauses the
    whole tier (stop-the-world across a co-scheduled fleet).
    """

    server: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.server is None or self.server >= 0,
            f"server index must be >= 0, got {self.server}",
        )


@dataclasses.dataclass(frozen=True)
class DatabaseOverload(FaultWindow):
    """Database-rate degradation: ``muD -> factor * muD`` in the window."""

    factor: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            0.0 < self.factor <= 1.0,
            f"overload factor must be in (0, 1], got {self.factor}",
        )


@dataclasses.dataclass(frozen=True)
class ShareShift(FaultWindow):
    """Routing-share override: keys route by ``shares`` in the window."""

    shares: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.shares, tuple):
            object.__setattr__(self, "shares", tuple(self.shares))
        _require(len(self.shares) >= 1, "shares must be non-empty")
        _require(
            all(s >= 0.0 for s in self.shares), "shares must be non-negative"
        )
        _require(
            abs(sum(self.shares) - 1.0) < 1e-9,
            f"shares must sum to 1, got {sum(self.shares)}",
        )


_KIND_OF = {
    ServerSlowdown: "server-slowdown",
    ServerPause: "server-pause",
    DatabaseOverload: "database-overload",
    ShareShift: "share-shift",
}
_CLASS_OF = {kind: cls for cls, kind in _KIND_OF.items()}


def _window_from_dict(payload: Dict[str, object]) -> FaultWindow:
    if not isinstance(payload, dict):
        raise ConfigError("fault window payload must be an object")
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = _CLASS_OF.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown fault kind {kind!r} (have {sorted(_CLASS_OF)})"
        )
    known = {field.name for field in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown keys for fault {kind!r}: {sorted(unknown)}"
        )
    if data.get("shares") is not None:
        data["shares"] = tuple(data["shares"])
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"incomplete fault {kind!r}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """An immutable, hashable set of fault windows.

    The schedule is pure data — simulators query it with the accessor
    methods below; nothing here touches an event loop. An empty schedule
    behaves exactly like no schedule at all.
    """

    windows: Tuple[FaultWindow, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.windows, tuple):
            object.__setattr__(self, "windows", tuple(self.windows))
        for window in self.windows:
            if not isinstance(window, FaultWindow):
                raise ValidationError(
                    f"windows must be FaultWindow instances, got {window!r}"
                )

    # ------------------------------------------------------------------
    # Structure queries (used to decide what to wire where).
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.windows

    @property
    def horizon(self) -> float:
        """Last instant any window is active (0 for an empty schedule)."""
        return max((w.end for w in self.windows), default=0.0)

    @property
    def has_server_slowdowns(self) -> bool:
        return any(isinstance(w, ServerSlowdown) for w in self.windows)

    @property
    def has_server_pauses(self) -> bool:
        return any(isinstance(w, ServerPause) for w in self.windows)

    @property
    def has_database_overloads(self) -> bool:
        return any(isinstance(w, DatabaseOverload) for w in self.windows)

    @property
    def has_share_shifts(self) -> bool:
        return any(isinstance(w, ShareShift) for w in self.windows)

    @property
    def is_vectorizable(self) -> bool:
        """True when the ``fastpath-system`` backend can apply every
        window — only rate-scaling windows (slowdowns and database
        overloads) vectorize; pauses and share shifts need the engine."""
        return all(
            isinstance(w, (ServerSlowdown, DatabaseOverload))
            for w in self.windows
        )

    def max_server_index(self) -> Optional[int]:
        """Largest explicit server index any window names, if any."""
        indexed = [
            w.server
            for w in self.windows
            if isinstance(w, (ServerSlowdown, ServerPause))
            and w.server is not None
        ]
        return max(indexed) if indexed else None

    def validate_for(self, n_servers: int) -> None:
        """Reject windows that name servers outside the cluster."""
        worst = self.max_server_index()
        if worst is not None and worst >= n_servers:
            raise ValidationError(
                f"fault schedule names server {worst} but the cluster has "
                f"{n_servers} servers"
            )
        for window in self.windows:
            if isinstance(window, ShareShift) and len(window.shares) != n_servers:
                raise ValidationError(
                    f"share shift has {len(window.shares)} shares for "
                    f"{n_servers} servers"
                )

    # ------------------------------------------------------------------
    # Point queries (the event engine's view).
    # ------------------------------------------------------------------

    def server_rate_factor(self, server: int, t: float) -> float:
        """Product of active slowdown factors touching ``server`` at ``t``."""
        factor = 1.0
        for window in self.windows:
            if (
                isinstance(window, ServerSlowdown)
                and (window.server is None or window.server == server)
                and window.active(t)
            ):
                factor *= window.factor
        return factor

    def database_rate_factor(self, t: float) -> float:
        """Product of active database-overload factors at ``t``."""
        factor = 1.0
        for window in self.windows:
            if isinstance(window, DatabaseOverload) and window.active(t):
                factor *= window.factor
        return factor

    def server_pause_end(self, server: int, t: float) -> float:
        """When the pause covering ``server`` at ``t`` lifts.

        Returns ``t`` itself when the server is not paused; chained
        overlapping pauses are followed to the final end.
        """
        end = t
        changed = True
        while changed:
            changed = False
            for window in self.windows:
                if (
                    isinstance(window, ServerPause)
                    and (window.server is None or window.server == server)
                    and window.active(end)
                    and window.end > end
                ):
                    end = window.end
                    changed = True
        return end

    def shares_at(self, t: float) -> Optional[Tuple[float, ...]]:
        """Routing shares in force at ``t`` (None = deployment default)."""
        best: Optional[ShareShift] = None
        for window in self.windows:
            if isinstance(window, ShareShift) and window.active(t):
                if best is None or window.start >= best.start:
                    best = window
        return best.shares if best is not None else None

    # ------------------------------------------------------------------
    # Vector queries (the fastpath-system view).
    # ------------------------------------------------------------------

    def server_rate_factors(
        self, server: int, times: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`server_rate_factor` over an array of times."""
        factors = np.ones_like(np.asarray(times, dtype=float))
        for window in self.windows:
            if isinstance(window, ServerSlowdown) and (
                window.server is None or window.server == server
            ):
                mask = (times >= window.start) & (times < window.end)
                factors[mask] *= window.factor
        return factors

    def database_rate_factors(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`database_rate_factor` over an array of times."""
        factors = np.ones_like(np.asarray(times, dtype=float))
        for window in self.windows:
            if isinstance(window, DatabaseOverload):
                mask = (times >= window.start) & (times < window.end)
                factors[mask] *= window.factor
        return factors

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"windows": [window.to_dict() for window in self.windows]}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSchedule":
        if not isinstance(payload, dict):
            raise ConfigError("fault schedule payload must be an object")
        unknown = set(payload) - {"windows"}
        if unknown:
            raise ConfigError(f"unknown fault schedule keys: {sorted(unknown)}")
        windows = payload.get("windows", [])
        if not isinstance(windows, (list, tuple)):
            raise ConfigError("fault schedule 'windows' must be a list")
        return cls(tuple(_window_from_dict(w) for w in windows))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid fault schedule JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultSchedule":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"cannot read fault schedule {str(path)!r}: {exc}"
            ) from exc
        return cls.from_json(text)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    # ------------------------------------------------------------------
    # Conveniences.
    # ------------------------------------------------------------------

    def extended(self, *windows: FaultWindow) -> "FaultSchedule":
        """A new schedule with ``windows`` appended."""
        return FaultSchedule(self.windows + tuple(windows))

    @classmethod
    def single(cls, window: FaultWindow) -> "FaultSchedule":
        return cls((window,))
