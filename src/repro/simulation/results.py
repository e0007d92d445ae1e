"""Typed simulation results shared by every simulator entry point.

:class:`SimulationResult` is the common shape: one :class:`StageStats`
per stage (``total``, ``server``, ``database``, ``network``) with the
same field names everywhere (``mean``, ``p50``, ``p95``, ``p99``), a
``breakdown()`` whose keys match :meth:`LatencyEstimate.breakdown`, and
a JSON round trip for checkpointing.

:class:`SystemResults` is what both whole-system simulators (the event
engine and ``fastpath-system``) return: the run's per-request record,
one :data:`~repro.observability.attribution.RECORD_FIELDS` row per
request, and every per-request view derived from it.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..faults import RequestRecord
from ..observability.attribution import RECORD_FIELDS, AttributionSet
from ..observability.timeline import Timeline
from .metrics import LatencyRecorder

__all__ = ["StageStats", "SimulationResult", "SystemResults"]


@dataclasses.dataclass(frozen=True)
class SystemResults:
    """A whole-system run's per-request record and the views derived
    from it (all latencies in seconds).

    ``record`` holds one :data:`RECORD_FIELDS` row per recorded request
    (warmup dropped), in completion order: eq. (1)'s ``T(N)`` as
    ``total``, the constant round trip ``network``, the stage maxima
    ``TS(N)``/``TD(N)`` as ``server_max``/``db_max`` and the queue waits
    of the keys attaining them. The stage recorders are built from its
    columns on first read, each in one vectorized fill.

    ``keys_processed`` and ``misses`` keep each backend's own counting
    population: the event engine counts every key served, warmup
    included; ``fastpath-system`` every key of every request its pass
    spawned. ``per_key_server`` (every key's server sojourn) exists on
    the event engine only and is ``None`` on ``fastpath-system``.
    """

    record: np.ndarray
    keys_processed: int
    misses: int
    server_utilizations: Sequence[float]
    per_key_server: Optional[LatencyRecorder] = None
    observability: Optional[object] = None
    #: Windowed telemetry (a Timeline) when the run recorded one.
    timeline: Optional[Timeline] = None
    #: Per-request stage attribution (an AttributionSet) when recorded.
    attribution: Optional[AttributionSet] = None

    def column(self, name: str) -> np.ndarray:
        """One :data:`RECORD_FIELDS` column of the record."""
        return self.record[:, RECORD_FIELDS.index(name)]

    def _recorder(self, name: str) -> LatencyRecorder:
        recorder = LatencyRecorder()
        recorder.record_many(self.column(name))
        return recorder

    @functools.cached_property
    def total(self) -> LatencyRecorder:
        """``T(N)`` per request."""
        return self._recorder("total")

    @functools.cached_property
    def server_stage(self) -> LatencyRecorder:
        """``TS(N)`` per request."""
        return self._recorder("server_max")

    @functools.cached_property
    def database_stage(self) -> LatencyRecorder:
        """``TD(N)`` per request (zero without a miss)."""
        return self._recorder("db_max")

    @functools.cached_property
    def network_stage(self) -> LatencyRecorder:
        """The network round trip per request."""
        return self._recorder("network")

    @property
    def requests_completed(self) -> int:
        return int(self.record.shape[0])

    @property
    def measured_miss_ratio(self) -> float:
        if self.keys_processed == 0:
            return 0.0
        return self.misses / self.keys_processed

    @property
    def request_log(self) -> Tuple[RequestRecord, ...]:
        """The record as :class:`~repro.faults.RequestRecord` objects."""
        column = dict(zip(RECORD_FIELDS, self.record.T.tolist()))
        return tuple(
            map(
                RequestRecord,
                column["born"],
                column["completed"],
                column["total"],
                column["server_max"],
                column["db_max"],
                column["network"],
            )
        )


@dataclasses.dataclass(frozen=True)
class StageStats:
    """Summary statistics of one latency stage (all times in seconds)."""

    count: int
    mean: float
    std: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    @classmethod
    def empty(cls) -> "StageStats":
        return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_recorder(cls, recorder: LatencyRecorder) -> "StageStats":
        """Summarize a :class:`LatencyRecorder` (the event-sim path)."""
        if recorder.count == 0:
            return cls.empty()
        mean = recorder.mean
        if recorder.count >= 2:
            ci_low, ci_high = recorder.confidence_interval()
        else:
            ci_low = ci_high = mean
        p50, p95, p99 = recorder.quantiles([0.50, 0.95, 0.99])
        return cls(
            count=recorder.count,
            mean=mean,
            std=recorder.std,
            p50=p50,
            p95=p95,
            p99=p99,
            minimum=recorder.minimum,
            maximum=recorder.maximum,
            ci_low=ci_low,
            ci_high=ci_high,
        )

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "StageStats":
        """Summarize a raw latency array (the fast-path path)."""
        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return cls.empty()
        recorder = LatencyRecorder()
        recorder.record_many(array)
        return cls.from_recorder(recorder)

    @property
    def ci(self) -> Tuple[float, float]:
        return self.ci_low, self.ci_high

    def to_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StageStats":
        try:
            return cls(**{f.name: payload[f.name] for f in dataclasses.fields(cls)})
        except KeyError as exc:
            raise ConfigError(f"stage stats missing key: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """One simulation run, summarized with the estimate's vocabulary.

    ``total``/``server``/``database``/``network`` are the fork-join
    stages of paper eq. (1); ``server`` and ``database`` are the
    per-request maxima ``TS(N)``/``TD(N)``, matching what
    :meth:`LatencyModel.estimate` bounds.
    """

    n_keys: int
    n_requests: int
    total: StageStats
    server: StageStats
    database: StageStats
    network: StageStats
    measured_miss_ratio: float = 0.0
    server_utilizations: Tuple[float, ...] = ()
    #: Exact E[TS(N)] over the empirical latency pools (fast-path runs
    #: only) — the Monte-Carlo-noise-free statistic the figures plot.
    server_expected_max: Optional[float] = None
    #: Windowed telemetry (a Timeline) when the run recorded one.
    #: Excluded from equality: two runs are "the same result" when their
    #: summary statistics agree.
    timeline: Optional[object] = dataclasses.field(default=None, compare=False)
    #: Per-request stage attribution (an AttributionSet) when the run
    #: recorded one. Excluded from equality like the timeline.
    attribution: Optional[object] = dataclasses.field(
        default=None, compare=False
    )
    #: The whole-system backends' :class:`SystemResults` (``simulate``
    #: and ``fastpath-system``; ``None`` elsewhere): the per-request
    #: record the summary statistics were built from, and the raw
    #: counts and recorders run reports read. Never serialized, never
    #: compared.
    raw: Optional[object] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    # -- LatencyEstimate-compatible accessors --------------------------

    @property
    def mean(self) -> float:
        """Mean end-to-end request latency ``E[T(N)]``."""
        return self.total.mean

    @property
    def p50(self) -> float:
        return self.total.p50

    @property
    def p95(self) -> float:
        return self.total.p95

    @property
    def p99(self) -> float:
        return self.total.p99

    def breakdown(self) -> Dict[str, float]:
        """Per-stage means, keyed like :meth:`LatencyEstimate.breakdown`."""
        return {
            "network": self.network.mean,
            "servers": self.server.mean,
            "database": self.database.mean,
        }

    def stage(self, name: str) -> StageStats:
        stages = {
            "total": self.total,
            "server": self.server,
            "database": self.database,
            "network": self.network,
        }
        if name not in stages:
            raise ConfigError(f"unknown stage {name!r} (have {sorted(stages)})")
        return stages[name]

    # -- Constructors ---------------------------------------------------

    @classmethod
    def from_system(
        cls, results: SystemResults, *, n_keys: int
    ) -> "SimulationResult":
        """Summarize a whole-system run's :class:`SystemResults`."""
        return cls(
            n_keys=int(n_keys),
            n_requests=int(results.requests_completed),
            total=StageStats.from_recorder(results.total),
            server=StageStats.from_recorder(results.server_stage),
            database=StageStats.from_recorder(results.database_stage),
            network=StageStats.from_recorder(results.network_stage),
            measured_miss_ratio=float(results.measured_miss_ratio),
            server_utilizations=tuple(results.server_utilizations),
            timeline=results.timeline,
            attribution=results.attribution,
            raw=results,
        )

    @classmethod
    def from_sample(cls, sample, *, n_keys: int) -> "SimulationResult":
        """Wrap a fast-path :class:`~repro.simulation.fastpath.RequestSample`."""
        n_requests = sample.n_requests
        return cls(
            n_keys=int(n_keys),
            n_requests=n_requests,
            total=StageStats.from_samples(sample.total),
            server=StageStats.from_samples(sample.server_max),
            database=StageStats.from_samples(sample.database_max),
            network=StageStats.from_samples(np.full(n_requests, sample.network)),
        )

    # -- Persistence ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_keys": self.n_keys,
            "n_requests": self.n_requests,
            "total": self.total.to_dict(),
            "server": self.server.to_dict(),
            "database": self.database.to_dict(),
            "network": self.network.to_dict(),
            "measured_miss_ratio": self.measured_miss_ratio,
            "server_utilizations": list(self.server_utilizations),
            "server_expected_max": self.server_expected_max,
            "timeline": (
                self.timeline.to_dict() if self.timeline is not None else None
            ),
            "attribution": (
                self.attribution.to_dict()
                if self.attribution is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationResult":
        if not isinstance(payload, dict):
            raise ConfigError("simulation result must be a JSON object")
        try:
            return cls(
                n_keys=int(payload["n_keys"]),
                n_requests=int(payload["n_requests"]),
                total=StageStats.from_dict(payload["total"]),
                server=StageStats.from_dict(payload["server"]),
                database=StageStats.from_dict(payload["database"]),
                network=StageStats.from_dict(payload["network"]),
                measured_miss_ratio=float(payload.get("measured_miss_ratio", 0.0)),
                server_utilizations=tuple(
                    payload.get("server_utilizations") or ()
                ),
                server_expected_max=payload.get("server_expected_max"),
                timeline=(
                    Timeline.from_dict(payload["timeline"])
                    if payload.get("timeline") is not None
                    else None
                ),
                attribution=(
                    AttributionSet.from_dict(payload["attribution"])
                    if payload.get("attribution") is not None
                    else None
                ),
            )
        except KeyError as exc:
            raise ConfigError(f"simulation result missing key: {exc}") from exc
