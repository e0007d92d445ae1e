"""End-to-end observability for the simulator.

The paper's contribution is *measuring* where latency lives; this
package gives the simulator the same property:

* :mod:`~repro.observability.metrics` — log-bucketed
  :class:`Histogram`, :class:`Counter`, :class:`Gauge`, and the
  :class:`MetricsRegistry` components publish into;
* :mod:`~repro.observability.tracing` — per-request :class:`Span` trees
  with bounded retention (:class:`Tracer`);
* :mod:`~repro.observability.profiler` — :class:`EngineProfiler`
  wall-time accounting on the event loop;
* :mod:`~repro.observability.report` — :class:`RunReport` JSON/CSV
  artifacts plus the shared ``--json`` serializer.

:class:`Observability` bundles the three collectors so callers can flip
them on together::

    obs = Observability(trace=True, metrics=True, profile=True)
    system = MemcachedSystemSimulator(..., observability=obs)
    results = system.run(n_requests=10_000)
    RunReport.from_simulation(results, obs).save("run.json")
"""

from __future__ import annotations

from typing import Optional

from .attribution import (
    GROUPS,
    STAGES,
    AttributionRecord,
    AttributionSet,
    AttributionSink,
    TailAttribution,
    coerce_attribution,
    residual_slack,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiler import EngineProfiler, callback_category
from .report import (
    GIT_SHA_ENV,
    STAGE_QUANTILES,
    RunReport,
    git_sha,
    json_dumps,
    provenance,
    provenance_comment,
    recorder_summary,
    to_jsonable,
)
from .slo import (
    AlertWindow,
    BurnRateRule,
    SLOMonitor,
    SLOReport,
    SLORule,
    detection_scores,
)
from .timeline import (
    StageSeries,
    Timeline,
    TimelineBuilder,
    TimelineSpec,
    time_in_windows,
)
from .tracing import Span, Tracer


class Observability:
    """A switchboard of collectors for one simulation run.

    Every collector is optional and independently toggled; components
    treat a ``None`` collector as "off" with a single attribute check,
    so a fully-disabled bundle (or no bundle at all) costs nothing on
    the hot path.
    """

    def __init__(
        self,
        *,
        trace: bool = True,
        metrics: bool = True,
        profile: bool = False,
        timeline: object = None,
        attribution: object = None,
        trace_capacity: int = 1024,
        slowest_k: int = 10,
    ) -> None:
        self.tracer: Optional[Tracer] = (
            Tracer(capacity=trace_capacity, slowest_k=slowest_k) if trace else None
        )
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        self.profiler: Optional[EngineProfiler] = (
            EngineProfiler() if profile else None
        )
        spec = TimelineSpec.coerce(timeline)
        self.timeline: Optional[TimelineBuilder] = (
            TimelineBuilder(spec) if spec is not None else None
        )
        #: Size of the slowest-request sets, kept so collectors added
        #: to the bundle later are sized like the ones built here.
        self.slowest_k = slowest_k
        # Per-request latency provenance: True -> default sink, an int
        # -> reservoir capacity, or a pre-built AttributionSink.
        self.attribution: Optional[AttributionSink] = coerce_attribution(
            attribution, slowest_k=slowest_k
        )

    @property
    def enabled(self) -> bool:
        return any(
            collector is not None
            for collector in (
                self.tracer,
                self.registry,
                self.profiler,
                self.timeline,
                self.attribution,
            )
        )

    def reset(self) -> None:
        """Drop collected data in place (e.g. at the warmup boundary)."""
        if self.tracer is not None:
            self.tracer.reset()
        if self.registry is not None:
            self.registry.reset_all()
        if self.profiler is not None:
            self.profiler.reset()
        if self.timeline is not None:
            self.timeline.reset()
        if self.attribution is not None:
            self.attribution.reset()


__all__ = [
    "AlertWindow",
    "AttributionRecord",
    "AttributionSet",
    "AttributionSink",
    "BurnRateRule",
    "Counter",
    "GROUPS",
    "EngineProfiler",
    "GIT_SHA_ENV",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "RunReport",
    "STAGE_QUANTILES",
    "SLOMonitor",
    "SLOReport",
    "SLORule",
    "STAGES",
    "Span",
    "StageSeries",
    "TailAttribution",
    "Timeline",
    "TimelineBuilder",
    "TimelineSpec",
    "Tracer",
    "callback_category",
    "detection_scores",
    "git_sha",
    "json_dumps",
    "provenance",
    "provenance_comment",
    "recorder_summary",
    "residual_slack",
    "time_in_windows",
    "to_jsonable",
]
