"""Transient trajectory analysis for fault-window runs.

Steady-state recorders (mean, p99 over the whole run) smear a fault
window's effect over the fault-free majority of the run. To *see* the
§5.1-style overloaded-database transient — latency climbing inside the
window, draining after it closes — every simulator run carries a
per-request log (``SystemResults.request_log``), and this module buckets
that log along the completion-time axis.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ValidationError

__all__ = ["RequestRecord", "TrajectoryPoint", "trajectory", "window_effect"]


@dataclasses.dataclass(frozen=True)
class RequestRecord:
    """One completed request on the simulated-time axis (seconds)."""

    born: float
    completed: float
    total: float
    server: float
    database: float
    network: float


@dataclasses.dataclass(frozen=True)
class TrajectoryPoint:
    """Aggregates over one completion-time bucket."""

    start: float
    end: float
    count: int
    mean_total: float
    mean_server: float
    mean_database: float
    p99_total: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.start + self.end)


def trajectory(
    log: Sequence[RequestRecord], *, n_buckets: int = 20
) -> List[TrajectoryPoint]:
    """Bucket a request log into ``n_buckets`` equal completion-time bins.

    Empty buckets are dropped (an overloaded window can starve
    completions), so consumers should read bucket ``start``/``end``
    rather than assuming uniform spacing.
    """
    if n_buckets < 1:
        raise ValidationError(f"n_buckets must be >= 1, got {n_buckets}")
    if not log:
        return []
    completed = np.asarray([record.completed for record in log])
    totals = np.asarray([record.total for record in log])
    servers = np.asarray([record.server for record in log])
    databases = np.asarray([record.database for record in log])
    lo = float(completed.min())
    hi = float(completed.max())
    if hi <= lo:
        hi = lo + 1e-12
    edges = np.linspace(lo, hi, n_buckets + 1)
    points: List[TrajectoryPoint] = []
    for i in range(n_buckets):
        if i == n_buckets - 1:
            mask = (completed >= edges[i]) & (completed <= edges[i + 1])
        else:
            mask = (completed >= edges[i]) & (completed < edges[i + 1])
        count = int(mask.sum())
        if count == 0:
            continue
        points.append(
            TrajectoryPoint(
                start=float(edges[i]),
                end=float(edges[i + 1]),
                count=count,
                mean_total=float(totals[mask].mean()),
                mean_server=float(servers[mask].mean()),
                mean_database=float(databases[mask].mean()),
                p99_total=float(np.quantile(totals[mask], 0.99)),
            )
        )
    return points


def window_effect(
    log: Sequence[RequestRecord],
    *,
    window_start: float,
    window_end: float,
    stage: str = "database",
    settle: float = 0.0,
) -> Dict[str, float]:
    """Mean stage latency before / during / after a fault window.

    ``during`` covers completions inside ``[window_start, window_end)``;
    ``after`` starts ``settle`` seconds past the window close, giving the
    backlog time to drain before recovery is measured. Phases with no
    completions report ``nan``.
    """
    if window_end <= window_start:
        raise ValidationError("window_end must be after window_start")
    if stage not in ("total", "server", "database", "network"):
        raise ValidationError(f"unknown stage {stage!r}")
    values = np.asarray([getattr(record, stage) for record in log])
    completed = np.asarray([record.completed for record in log])

    def phase_mean(mask: np.ndarray) -> float:
        return float(values[mask].mean()) if mask.any() else float("nan")

    return {
        "before": phase_mean(completed < window_start),
        "during": phase_mean(
            (completed >= window_start) & (completed < window_end)
        ),
        "after": phase_mean(completed >= window_end + settle),
    }
