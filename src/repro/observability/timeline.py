"""Windowed time-series telemetry: the same schema from every backend.

The paper's interesting behaviors are *transients* — the §5.1
overloaded-database climb, fault windows, recovery drains — which
cumulative end-of-run aggregates cannot show. A :class:`Timeline` slices
one run into fixed-width windows and keeps, per window:

* request **arrival/completion counts** (→ rates),
* **in-flight request-seconds** (→ time-average occupancy ``L``, the
  left side of Little's law),
* a log-bucketed latency :class:`~repro.observability.metrics.Histogram`
  of the requests *completing* in that window (→ windowed quantiles),
* per-stage :class:`StageSeries` (busy/wait job-seconds and counts →
  utilization and queue depth for each server and the database).

Everything stored is a raw *accumulable* (counts and time integrals),
so :meth:`Timeline.merge` is exact bucket-wise addition — cross-worker
and cross-shard aggregation loses nothing. Construction is vectorized:
:func:`time_in_windows` resolves interval/window overlaps from
searchsorted cuts and per-window slice sums of the ordered endpoints
(``O(n + K log n)`` on time-ordered input, no per-event Python loop, no
``n x K`` matrix and no n-sized copy), which is how the numpy backends
(:mod:`~repro.simulation.fastpath`,
:mod:`~repro.simulation.fastpath_system`) afford telemetry at millions
of keys per second. The event engine records through the lightweight
:class:`TimelineBuilder` hooks and builds the same schema at run end.

The built-in consistency check is Little's law: per window,
``L = inflight_time / width`` must track ``lambda * W`` (arrival rate
times mean latency) — :meth:`Timeline.littles_law` reports the
residuals so telemetry validates itself against the queueing invariant
it is supposed to measure.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigError, ValidationError
from .attribution import _row_matrix
from .metrics import Histogram, _record_windows
from .report import provenance, provenance_comment

__all__ = [
    "DEFAULT_WINDOWS",
    "StageSeries",
    "Timeline",
    "TimelineBuilder",
    "TimelineSpec",
    "time_in_windows",
]

#: One stage's per-job ``(arrival, service_start, finish)`` arrays.
_Jobs = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Window count used when neither a width nor a count is requested.
DEFAULT_WINDOWS = 60

TIMELINE_KIND = "repro-timeline"
TIMELINE_VERSION = 1


@dataclasses.dataclass(frozen=True)
class TimelineSpec:
    """How to slice a run into windows: a fixed width *or* a count.

    ``window`` is a width in seconds; ``n_windows`` divides the run span
    evenly. Exactly one may be set; with neither, :data:`DEFAULT_WINDOWS`
    equal windows are used.
    """

    window: Optional[float] = None
    n_windows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window is not None and self.n_windows is not None:
            raise ValidationError("set window or n_windows, not both")
        if self.window is not None and self.window <= 0:
            raise ValidationError(f"window must be > 0, got {self.window}")
        if self.n_windows is not None and self.n_windows < 1:
            raise ValidationError(
                f"n_windows must be >= 1, got {self.n_windows}"
            )

    @classmethod
    def coerce(cls, value: object) -> Optional["TimelineSpec"]:
        """Normalize the ``timeline=`` option every backend accepts.

        ``None``/``False`` → off; ``True`` → defaults; an ``int`` is a
        window count; a ``float`` is a window width in seconds; a spec
        passes through.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, TimelineSpec):
            return value
        if isinstance(value, bool):  # pragma: no cover - caught above
            return cls()
        if isinstance(value, int):
            return cls(n_windows=value)
        if isinstance(value, float):
            return cls(window=value)
        raise ValidationError(
            f"timeline spec must be bool, int, float or TimelineSpec, "
            f"got {type(value).__name__}"
        )


def _resolve_windows(
    start: float, end: float, spec: Optional[TimelineSpec]
) -> Tuple[float, float, int]:
    """(start, width, count) covering ``[start, end]`` per the spec."""
    start = float(start)
    end = float(end)
    if not math.isfinite(start) or not math.isfinite(end):
        raise ValidationError("timeline span must be finite")
    if end <= start:
        # Degenerate span (e.g. a single completion): one tiny window.
        end = start + max(abs(start), 1.0) * 1e-9
    spec = spec or TimelineSpec()
    if spec.window is not None:
        width = float(spec.window)
        count = max(1, int(math.ceil((end - start) / width - 1e-12)))
    else:
        count = int(spec.n_windows or DEFAULT_WINDOWS)
        width = (end - start) / count
    return start, width, count


def _ordered(points: np.ndarray) -> np.ndarray:
    """``points`` in non-decreasing order, sorted only when they are not.

    Backends hand over arrays that are usually time-ordered already
    (FIFO finish times, cumulative-sum arrivals); one O(n) comparison
    spares them the O(n log n) sort and its copy.
    """
    if points.size > 1 and not (points[1:] >= points[:-1]).all():
        return np.sort(points)
    return points


def time_in_windows(
    starts: np.ndarray, ends: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """Total overlap of the intervals ``[starts_i, ends_i)`` per window.

    Uses the prefix-integral identity
    ``F(t) = sum_i min(t, ends_i) - sum_i min(t, starts_i)``
    (the cumulative interval-time before ``t``): the per-window overlap
    is ``F(e_{k+1}) - F(e_k)``. With ``b(t)`` the number of points at or
    below ``t``, that difference is the sum of the ends in
    ``(e_k, e_{k+1}]`` minus the sum of the starts there, plus
    ``t * (b_starts(t) - b_ends(t))`` evaluated between the two edges.
    On ordered inputs that is ``K + 1`` searchsorted cuts and ``K``
    contiguous slice sums per array — ``O(n + K log n)`` with no n-sized
    copy; unordered inputs are sorted first.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if (ends < starts).any():
        ends = np.maximum(ends, starts)
    return _overlap(_crossings(starts, edges), _crossings(ends, edges), edges)


def _crossings(
    points: np.ndarray, edges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ordered, below, sums)`` of ``points`` against the window edges.

    ``below`` counts the points at or below each edge and ``sums`` adds
    the points inside each window: one order check and one slice-sum
    pass, shared by every integral and count the points take part in.
    """
    ordered = _ordered(points)
    below = np.searchsorted(ordered, edges, side="right")
    sums = np.array(
        [ordered[lo:hi].sum() for lo, hi in zip(below[:-1], below[1:])]
    )
    return ordered, below, sums


def _overlap(starts: tuple, ends: tuple, edges: np.ndarray) -> np.ndarray:
    """:func:`time_in_windows` from the :func:`_crossings` of both ends."""
    _, below_start, start_sums = starts
    _, below_end, end_sums = ends
    # t * (intervals open at t), the min(t, .) terms of F at each edge.
    open_time = edges * (below_start - below_end)
    return (end_sums - start_sums) + np.diff(open_time)


def _counts(times: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Events per window with ``np.histogram`` semantics.

    Windows are closed on the left, the last one also on the right (run
    end); points outside the span are dropped. Counts are differences of
    searchsorted cuts into the ordered times.
    """
    return _ordered_counts(_ordered(np.asarray(times, dtype=float)), edges)


def _ordered_counts(ordered: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """:func:`_counts` of times already in non-decreasing order."""
    cuts = np.searchsorted(ordered, edges, side="left")
    cuts[-1] = np.searchsorted(ordered, edges[-1], side="right")
    return np.diff(cuts).astype(float)


@dataclasses.dataclass
class StageSeries:
    """Per-window accumulables of one service stage (a server or the DB).

    All four arrays have one entry per window: ``arrivals`` and
    ``completions`` are job counts, ``busy_time`` is in-service
    job-seconds (→ utilization), ``wait_time`` is queued job-seconds
    (→ time-average queue depth via Little).
    """

    arrivals: np.ndarray
    completions: np.ndarray
    busy_time: np.ndarray
    wait_time: np.ndarray

    @classmethod
    def zeros(cls, n_windows: int) -> "StageSeries":
        return cls(
            arrivals=np.zeros(n_windows),
            completions=np.zeros(n_windows),
            busy_time=np.zeros(n_windows),
            wait_time=np.zeros(n_windows),
        )

    @classmethod
    def from_jobs(
        cls,
        arrival: np.ndarray,
        start: np.ndarray,
        finish: np.ndarray,
        edges: np.ndarray,
    ) -> "StageSeries":
        """Vectorized construction from per-job (arrival, start, finish).

        Each array is order-checked and slice-summed once: the busy and
        wait integrals share the service starts' crossings, and the job
        counts reuse the ordered arrivals and finishes. A job that
        starts before it arrives, or finishes before it starts, is
        clamped per integral as :func:`time_in_windows` clamps it.
        """
        arrival = np.asarray(arrival, dtype=float)
        start = np.asarray(start, dtype=float)
        finish = np.asarray(finish, dtype=float)
        arrived = _crossings(arrival, edges)
        started = _crossings(start, edges)
        finished = _crossings(finish, edges)
        wait_end = started
        if (start < arrival).any():
            wait_end = _crossings(np.maximum(start, arrival), edges)
        busy_end = finished
        if (finish < start).any():
            busy_end = _crossings(np.maximum(finish, start), edges)
        return cls(
            arrivals=_ordered_counts(arrived[0], edges),
            completions=_ordered_counts(finished[0], edges),
            busy_time=_overlap(started, busy_end, edges),
            wait_time=_overlap(arrived, wait_end, edges),
        )

    def merge(self, other: "StageSeries") -> None:
        self.arrivals = self.arrivals + other.arrivals
        self.completions = self.completions + other.completions
        self.busy_time = self.busy_time + other.busy_time
        self.wait_time = self.wait_time + other.wait_time

    def to_dict(self) -> Dict[str, object]:
        return {
            "arrivals": self.arrivals.tolist(),
            "completions": self.completions.tolist(),
            "busy_time": self.busy_time.tolist(),
            "wait_time": self.wait_time.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StageSeries":
        try:
            return cls(
                arrivals=np.asarray(payload["arrivals"], dtype=float),
                completions=np.asarray(payload["completions"], dtype=float),
                busy_time=np.asarray(payload["busy_time"], dtype=float),
                wait_time=np.asarray(payload["wait_time"], dtype=float),
            )
        except KeyError as exc:
            raise ConfigError(f"stage series missing key: {exc}") from exc


@dataclasses.dataclass
class Timeline:
    """One run's windowed telemetry (every backend emits this schema).

    ``stages`` may be deferred: :meth:`from_events` keeps each stage's
    job arrays and builds the :class:`StageSeries` when ``stages`` is
    first read (a stage metric, :meth:`to_dict`, :meth:`merge`,
    equality, pickling), so a reader of request-level series only never
    pays for them.
    """

    start: float
    window: float
    n_windows: int
    arrivals: np.ndarray
    completions: np.ndarray
    inflight_time: np.ndarray
    latency: List[Histogram]
    stages: Dict[str, StageSeries] = dataclasses.field(default_factory=dict)
    shards: int = 1
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def empty(
        cls, start: float, window: float, n_windows: int
    ) -> "Timeline":
        return cls(
            start=float(start),
            window=float(window),
            n_windows=int(n_windows),
            arrivals=np.zeros(n_windows),
            completions=np.zeros(n_windows),
            inflight_time=np.zeros(n_windows),
            latency=[Histogram() for _ in range(n_windows)],
        )

    @classmethod
    def from_events(
        cls,
        *,
        start: float,
        end: float,
        request_born: np.ndarray,
        request_completed: np.ndarray,
        request_total: Optional[np.ndarray] = None,
        stages: Optional[Dict[str, Union[_Jobs, Callable[[], _Jobs]]]] = None,
        spec: Optional[TimelineSpec] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> "Timeline":
        """Vectorized construction from raw event arrays.

        ``request_born``/``request_completed`` are per-request instants;
        ``request_total`` defaults to their difference (the end-to-end
        latency). ``stages`` maps a stage name to per-job
        ``(arrival, service_start, finish)`` arrays, or to a
        zero-argument callable returning them; either is kept as given
        and turned into the stage's series on the first read of
        :attr:`stages`. Events outside
        ``[start, end]`` are clipped or dropped exactly as the engine's
        warmup reset would: counts outside the span vanish, interval
        time is clipped at the span edges.
        """
        born = np.asarray(request_born, dtype=float).ravel()
        completed = np.asarray(request_completed, dtype=float).ravel()
        if born.shape != completed.shape:
            raise ValidationError("born/completed arrays must match")
        if request_total is None:
            totals = completed - born
        else:
            totals = np.asarray(request_total, dtype=float).ravel()
            if totals.shape != completed.shape:
                raise ValidationError("total array must match completions")

        t0, width, count = _resolve_windows(start, end, spec)
        timeline = cls.empty(t0, width, count)
        edges = timeline.edges
        timeline.arrivals = _counts(born, edges)
        timeline.completions = _counts(completed, edges)
        timeline.inflight_time = time_in_windows(born, completed, edges)

        in_range = (completed >= edges[0]) & (completed <= edges[-1])
        if in_range.any():
            window_of = np.minimum(
                np.searchsorted(edges, completed[in_range], side="right") - 1,
                count - 1,
            )
            order = np.argsort(window_of, kind="stable")
            window_sorted = window_of[order]
            totals_sorted = totals[in_range][order]
            bounds = np.searchsorted(window_sorted, np.arange(count + 1))
            _record_windows(timeline.latency, totals_sorted, bounds)

        if stages:
            timeline._stage_jobs = dict(stages)
        if meta:
            timeline.meta.update(meta)
        return timeline

    def _read_stages(self) -> Dict[str, StageSeries]:
        """Build any deferred stage series, then hand back the mapping."""
        jobs = self.__dict__.pop("_stage_jobs", None)
        if jobs:
            edges = self.edges
            for name, stage in jobs.items():
                arrival, start, finish = stage() if callable(stage) else stage
                self._stages[str(name)] = StageSeries.from_jobs(
                    arrival, start, finish, edges
                )
        return self._stages

    def _write_stages(self, stages: Dict[str, StageSeries]) -> None:
        self.__dict__.pop("_stage_jobs", None)
        self._stages = stages

    def __getstate__(self) -> Dict[str, object]:
        # Ship built series, never the deferred per-job arrays.
        self._read_stages()
        return self.__dict__

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------

    @property
    def edges(self) -> np.ndarray:
        """The ``n_windows + 1`` window edges."""
        return self.start + self.window * np.arange(self.n_windows + 1)

    @property
    def midpoints(self) -> np.ndarray:
        return self.start + self.window * (np.arange(self.n_windows) + 0.5)

    @property
    def duration(self) -> float:
        return self.window * self.n_windows

    @property
    def stage_names(self) -> List[str]:
        return sorted(self.stages)

    # ------------------------------------------------------------------
    # Derived series (one value per window; NaN where undefined).
    # ------------------------------------------------------------------

    def arrival_rate(self) -> np.ndarray:
        """Aggregate request arrivals per second, per window."""
        return self.arrivals / self.window

    def completion_rate(self) -> np.ndarray:
        return self.completions / self.window

    def occupancy(self) -> np.ndarray:
        """Time-average in-flight requests ``L`` per window."""
        return self.inflight_time / self.window

    def mean_latency(self) -> np.ndarray:
        return np.array(
            [h.mean if h.count else math.nan for h in self.latency]
        )

    def quantile_series(self, level: float) -> np.ndarray:
        """The ``level`` latency quantile of each window's completions."""
        return np.array(
            [h.quantile(level) if h.count else math.nan for h in self.latency]
        )

    def bad_fraction(self, threshold: float) -> np.ndarray:
        """Fraction of completions slower than ``threshold`` per window."""
        return np.array(
            [
                h.count_above(threshold) / h.count if h.count else math.nan
                for h in self.latency
            ]
        )

    def utilization(self, stage: str) -> np.ndarray:
        """Busy fraction of one stage per window (shard-normalized)."""
        return self._stage(stage).busy_time / (self.window * self.shards)

    def queue_depth(self, stage: str) -> np.ndarray:
        """Time-average queued jobs at one stage per window."""
        return self._stage(stage).wait_time / (self.window * self.shards)

    def _stage(self, name: str) -> StageSeries:
        if name not in self.stages:
            raise ConfigError(
                f"unknown stage {name!r} (have {self.stage_names})"
            )
        return self.stages[name]

    def overall_latency(self) -> Histogram:
        """All windows' latency histograms merged into one."""
        merged = Histogram()
        for hist in self.latency:
            merged.merge(hist)
        return merged

    # ------------------------------------------------------------------
    # Consistency: Little's law per window.
    # ------------------------------------------------------------------

    def littles_law(self, *, min_count: int = 10) -> Dict[str, object]:
        """Per-window check of ``L = lambda * W``.

        ``L`` is the measured time-average occupancy, ``lambda`` the
        arrival rate and ``W`` the mean latency of the window's
        completions. Windows with fewer than ``min_count`` arrivals or
        completions are excluded from the aggregate (the law is an
        expectation — tiny windows are all noise). Returns the raw
        series plus ``max_relative_error``/``mean_relative_error`` over
        the valid windows.
        """
        lam = self.arrival_rate()
        mean_w = self.mean_latency()
        occupancy = self.occupancy()
        expected = lam * mean_w
        scale = np.maximum(np.maximum(occupancy, np.abs(expected)), 1e-12)
        relative = np.abs(occupancy - expected) / scale
        valid = (
            (self.arrivals >= min_count)
            & (self.completions >= min_count)
            & np.isfinite(mean_w)
        )
        if valid.any():
            max_err = float(np.max(relative[valid]))
            mean_err = float(np.mean(relative[valid]))
        else:
            max_err = math.nan
            mean_err = math.nan
        return {
            "lambda": lam,
            "W": mean_w,
            "L": occupancy,
            "relative_error": relative,
            "valid": valid,
            "n_valid": int(valid.sum()),
            "max_relative_error": max_err,
            "mean_relative_error": mean_err,
        }

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------

    def merge(self, other: "Timeline") -> None:
        """Fold another timeline over the same windows into this one.

        Exact: every stored field is an additive accumulable and the
        latency histograms merge bucket-wise. Requires identical window
        geometry. ``shards`` adds up, so utilization and queue depth
        stay per-replica averages.
        """
        if other.n_windows != self.n_windows:
            raise ValidationError(
                "cannot merge timelines with different window counts "
                f"({self.n_windows} vs {other.n_windows})"
            )
        tolerance = 1e-9 * max(1.0, abs(self.window))
        if (
            abs(other.start - self.start) > tolerance
            or abs(other.window - self.window) > tolerance
        ):
            raise ValidationError(
                "cannot merge timelines with different window geometry"
            )
        self.arrivals = self.arrivals + other.arrivals
        self.completions = self.completions + other.completions
        self.inflight_time = self.inflight_time + other.inflight_time
        for mine, theirs in zip(self.latency, other.latency):
            mine.merge(theirs)
        for name, series in other.stages.items():
            if name in self.stages:
                self.stages[name].merge(series)
            else:
                fresh = StageSeries.zeros(self.n_windows)
                fresh.merge(series)
                self.stages[name] = fresh
        self.shards += other.shards

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Small digest for reports and CLI footers."""
        overall = self.overall_latency()
        out: Dict[str, object] = {
            "start": self.start,
            "window": self.window,
            "n_windows": self.n_windows,
            "shards": self.shards,
            "requests": int(round(float(self.completions.sum()))),
            "stages": self.stage_names,
        }
        if overall.count:
            out["p50"] = overall.quantile(0.50)
            out["p99"] = overall.quantile(0.99)
        law = self.littles_law()
        out["littles_law_max_rel_err"] = law["max_relative_error"]
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": TIMELINE_KIND,
            "version": TIMELINE_VERSION,
            "start": self.start,
            "window": self.window,
            "n_windows": self.n_windows,
            "shards": self.shards,
            "arrivals": self.arrivals.tolist(),
            "completions": self.completions.tolist(),
            "inflight_time": self.inflight_time.tolist(),
            "latency": [hist.to_dict() for hist in self.latency],
            "stages": {
                name: series.to_dict()
                for name, series in sorted(self.stages.items())
            },
            "meta": dict(self.meta),
            "provenance": provenance(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Timeline":
        if not isinstance(payload, dict) or payload.get("kind") != TIMELINE_KIND:
            raise ConfigError(
                f"not a timeline payload (kind={payload.get('kind')!r})"
                if isinstance(payload, dict)
                else "timeline payload must be a JSON object"
            )
        if payload.get("version") != TIMELINE_VERSION:
            raise ConfigError(
                f"unsupported timeline version: {payload.get('version')!r}"
            )
        try:
            timeline = cls(
                start=float(payload["start"]),
                window=float(payload["window"]),
                n_windows=int(payload["n_windows"]),
                arrivals=np.asarray(payload["arrivals"], dtype=float),
                completions=np.asarray(payload["completions"], dtype=float),
                inflight_time=np.asarray(payload["inflight_time"], dtype=float),
                latency=[
                    Histogram.from_dict(item) for item in payload["latency"]
                ],
                stages={
                    str(name): StageSeries.from_dict(series)
                    for name, series in dict(payload.get("stages") or {}).items()
                },
                shards=int(payload.get("shards", 1)),
                meta=dict(payload.get("meta") or {}),
            )
        except KeyError as exc:
            raise ConfigError(f"timeline missing key: {exc}") from exc
        if len(timeline.latency) != timeline.n_windows:
            raise ConfigError("timeline latency list does not match windows")
        return timeline

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Timeline":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read timeline {path}: {exc}") from exc
        return cls.from_dict(payload)

    def to_csv(self, path: Union[str, Path]) -> None:
        """Flatten the derived series into one row per window."""
        import csv

        names = self.stage_names
        header = (
            ["window", "t_start", "t_end", "arrivals", "completions"]
            + ["arrival_rate", "completion_rate", "occupancy"]
            + ["mean", "p50", "p95", "p99"]
            + [f"util:{name}" for name in names]
            + [f"depth:{name}" for name in names]
        )
        mean = self.mean_latency()
        p50 = self.quantile_series(0.50)
        p95 = self.quantile_series(0.95)
        p99 = self.quantile_series(0.99)
        utils = {name: self.utilization(name) for name in names}
        depths = {name: self.queue_depth(name) for name in names}
        edges = self.edges

        def cell(value: float) -> object:
            return "" if not math.isfinite(float(value)) else float(value)


        with open(path, "w", newline="") as handle:
            handle.write(provenance_comment() + "\r\n")
            writer = csv.writer(handle)
            writer.writerow(header)
            for k in range(self.n_windows):
                writer.writerow(
                    [
                        k,
                        float(edges[k]),
                        float(edges[k + 1]),
                        float(self.arrivals[k]),
                        float(self.completions[k]),
                        cell(self.arrival_rate()[k]),
                        cell(self.completion_rate()[k]),
                        cell(self.occupancy()[k]),
                        cell(mean[k]),
                        cell(p50[k]),
                        cell(p95[k]),
                        cell(p99[k]),
                    ]
                    + [cell(utils[name][k]) for name in names]
                    + [cell(depths[name][k]) for name in names]
                )


Timeline.stages = property(  # type: ignore[assignment]
    Timeline._read_stages,
    Timeline._write_stages,
    doc="Per-stage series by name, built from deferred jobs on first read.",
)


class TimelineBuilder:
    """The event engine's recording half of the timeline layer.

    Hot-path cost is one tuple append per finished job (components hold
    a bound ``list.append``-able stage sink, no method dispatch); the
    request columns come from the engine's per-request record, and all
    window math happens once at :meth:`build`, vectorized, matching the
    telemetry-overhead budget the benchmarks enforce.
    """

    def __init__(self, spec: Optional[TimelineSpec] = None) -> None:
        self.spec = spec or TimelineSpec()
        self.origin = 0.0
        self._stages: Dict[str, List[Tuple[float, float, float]]] = {}

    def stage_sink(self, name: str) -> List[Tuple[float, float, float]]:
        """Per-stage list of ``(arrival, service_start, finish)`` tuples."""
        return self._stages.setdefault(str(name), [])

    def reset(self) -> None:
        """Drop recorded events in place (sink references stay valid)."""
        for sink in self._stages.values():
            sink.clear()
        self.origin = 0.0

    def build(
        self,
        *,
        born: np.ndarray,
        completed: np.ndarray,
        end: float,
        meta: Optional[Dict[str, object]] = None,
    ) -> Timeline:
        """Materialize the run's :class:`Timeline` over ``[origin, end]``.

        ``born``/``completed`` are the completed requests' instants.
        """
        stages = {
            name: tuple(_row_matrix(sink, 3).T)
            for name, sink in self._stages.items()
        }
        return Timeline.from_events(
            start=self.origin,
            end=end,
            request_born=born,
            request_completed=completed,
            stages=stages,
            spec=self.spec,
            meta=meta,
        )
