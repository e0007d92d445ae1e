"""Per-layer spans for the traced benchmark run, recorded from outside.

The traced run swaps public entry points of each layer of ``repro``
(class attributes and module-level names) for thin wrappers defined
here, so the program under test is unchanged. A timed wrapper opens a
span: it records the call's duration, charges that duration to its
parent span, and keeps ``duration - children`` as the layer's *self
time*. Summed over every span of a call tree, self times add up to the
root's wall time exactly, so per-layer self times account for an
operation's host time with nothing double-counted. A counting wrapper
only counts calls (or the elements they carry); it is used on the
hottest paths, where a timer pair per call would distort the run more
than it informs.

Spans stay in memory: hot calls aggregate into per-function totals and
only coarse calls (``keep=True``) are kept individually, with their
parent, for the span file written when the benchmark ends.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Individually kept spans per run; later coarse spans only aggregate.
MAX_KEPT_SPANS = 20_000


def _resolve(owner: object, attr: str) -> Tuple[object, bool]:
    """The attribute as stored (descriptor included) and whether
    ``owner`` itself defines it. Planned wrappers of one attribute
    stack; a subclass is planned before its base, so it never wraps
    the base's wrapper."""
    if not isinstance(owner, type):
        return vars(owner)[attr], True
    for klass in owner.__mro__:
        if attr in vars(klass):
            return vars(klass)[attr], klass is owner
    raise AttributeError(f"{owner.__name__} has no {attr!r}")


class LayerTrace:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        #: ``(layer, function) -> self seconds / calls``.
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Named counters fed by counting wrappers and after-hooks.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Wall seconds of outermost spans, by function: what the self
        #: times of everything beneath them add up to.
        self.roots: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Self seconds of outermost spans: host time no deeper span saw.
        self.roots_self: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Kept spans: ``(id, parent_id, layer, function, start, end)``.
        self.spans: List[Tuple[int, Optional[int], str, str, float, float]] = []
        #: Cyclic-GC passes and their seconds while installed.
        self.gc_runs = 0
        self.gc_s = 0.0
        self._gc_started = 0.0
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, bool, object]] = []
        self._plan: List[Tuple[object, str, Callable[[Callable], Callable]]] = []

    # ------------------------------------------------------------------
    # Wrapper factories.
    # ------------------------------------------------------------------

    def timed_callable(
        self,
        func: Callable,
        layer: str,
        name: str,
        *,
        keep: bool = False,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``func`` wrapped in a span charged to ``layer``."""
        key = (layer, name)
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        roots = self.roots
        roots_self = self.roots_self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if keep and len(spans) < MAX_KEPT_SPANS:
                frame[1] = len(spans)
                spans.append(None)  # placeholder keeps ids in call order
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    roots[key] += elapsed
                    roots_self[key] += elapsed - frame[0]
                if frame[1] is not None:
                    parent = next(
                        (f[1] for f in reversed(stack) if f[1] is not None), None
                    )
                    spans[frame[1]] = (frame[1], parent, layer, name, start, end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted_callable(
        self,
        func: Callable,
        counter: str,
        weight: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        """``func`` that adds 1 (or ``weight(args)``) to ``counter`` per call."""
        counts = self.counts

        if weight is None:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return func(*args, **kwargs)

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                counts[counter] += weight(args)
                return func(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # The patch plan.
    # ------------------------------------------------------------------

    def span(self, owner: object, attr: str, layer: str, **options) -> None:
        """Plan a timed wrapper for ``owner.attr`` (function name kept)."""
        name = f"{getattr(owner, '__name__', owner)}.{attr}".rsplit(".", 2)
        label = ".".join(name[-2:])
        self._plan.append(
            (owner, attr, lambda f: self.timed_callable(f, layer, label, **options))
        )

    def count(self, owner: object, attr: str, counter: str, weight=None) -> None:
        """Plan a counting wrapper for ``owner.attr``."""
        self._plan.append(
            (owner, attr, lambda f: self.counted_callable(f, counter, weight))
        )

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Plan an arbitrary wrapper ``make(original)`` for ``owner.attr``."""
        self._plan.append((owner, attr, make))

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_runs += 1
            self.gc_s += time.perf_counter() - self._gc_started

    def install(self) -> None:
        """Apply the plan (idempotent while installed)."""
        if self._patches:
            return
        gc.callbacks.append(self._on_gc)
        for owner, attr, make in self._plan:
            raw, own = _resolve(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            previous = vars(owner).get(attr) if own else None
            self._patches.append((owner, attr, own, previous))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, own, previous in reversed(self._patches):
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reading it back.
    # ------------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        """Self seconds of every function of ``layer``."""
        return sum(
            seconds for (lay, _), seconds in self.self_s.items() if lay == layer
        )

    def layer_calls(self, layer: str, *names: str) -> int:
        """Calls into ``layer`` (of functions named ``names`` if given)."""
        return sum(
            count
            for (lay, name), count in self.calls.items()
            if lay == layer and (not names or name.rsplit(".", 1)[-1] in names)
        )

    def layers(self) -> Dict[str, float]:
        """Self seconds per layer, heaviest first."""
        totals: Dict[str, float] = defaultdict(float)
        for (layer, _), seconds in self.self_s.items():
            totals[layer] += seconds
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def to_dict(self) -> Dict[str, object]:
        return {
            "functions": [
                {
                    "layer": layer,
                    "function": name,
                    "calls": self.calls[(layer, name)],
                    "self_s": seconds,
                }
                for (layer, name), seconds in sorted(
                    self.self_s.items(), key=lambda item: -item[1]
                )
            ],
            "counts": dict(self.counts),
            "spans": [
                {
                    "id": span[0],
                    "parent": span[1],
                    "layer": span[2],
                    "function": span[3],
                    "start": span[4],
                    "end": span[5],
                }
                for span in self.spans
                if span is not None
            ],
        }


# ----------------------------------------------------------------------
# The plan for repro: which entry points belong to which layer.
# ----------------------------------------------------------------------


class RunStats:
    """Per-run facts read off objects the layers hand back."""

    def __init__(self) -> None:
        self.pending_max = 0
        self.server_util: List[float] = []
        self.database_util: List[float] = []
        self.categories: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])


def repro_trace() -> Tuple[LayerTrace, RunStats]:
    """A :class:`LayerTrace` planned over every layer of ``repro``."""
    from repro.capacity import curve, objective, search
    from repro.distributions import rng
    from repro.experiments import runner, scenario
    from repro.observability import (
        attribution,
        metrics,
        profiler,
        report,
        slo,
        timeline,
        tracing,
    )
    from repro.queueing import cliff, gim1, rootfind
    from repro.simulation import (
        database,
        engine,
        fastpath,
        fastpath_system,
        network,
        scheduler,
        server,
        system,
    )
    from repro.simulation import metrics as sim_metrics

    trace = LayerTrace()
    stats = RunStats()
    counts = trace.counts

    # simulation.engine + scheduler. The engine profiler gives the
    # per-callback-category counts and the pending-event peak; a run
    # without one gets a fresh one.
    def attach_profiler(args, _result):
        sim = args[0]
        if sim.profiler is None:
            sim.set_profiler(profiler.EngineProfiler())

    trace.patch(
        engine.Simulator, "__init__",
        lambda f: trace.timed_callable(f, "engine", "Simulator.__init__",
                                       after=attach_profiler),
    )
    trace.span(engine.Simulator, "run", "engine")
    heap = type(scheduler.make_scheduler(None))
    trace.count(heap, "push", "scheduler.push")
    trace.count(heap, "pop", "scheduler.pop")

    # simulation.system: the request life cycle.
    def system_done(args, results):
        sim = args[0].sim
        counts["engine.events"] += sim.events_processed
        stats.pending_max = max(stats.pending_max, sim.profiler.max_pending)
        for category, row in sim.profiler.categories().items():
            stats.categories[category][0] += row["count"]
            stats.categories[category][1] += row["wall_seconds"]
        stats.server_util.extend(results.server_utilizations)
        db = args[0]._database
        if db is not None:
            stats.database_util.append(db.utilization_meter.utilization(sim.now))
        user = results.observability
        if user is not None and user.profiler is not None:
            counts["obs.profiler_records"] += user.profiler.events

    MSS = system.MemcachedSystemSimulator
    trace.span(MSS, "__init__", "system", keep=True)
    trace.patch(
        MSS, "run",
        lambda f: trace.timed_callable(f, "system", "MemcachedSystemSimulator.run",
                                       keep=True, after=system_done),
    )
    for attr in ("_spawn_request", "_on_server_complete",
                 "_on_database_complete", "_finish_key", "_key_done"):
        trace.span(MSS, attr, "system")

    # simulation.server / database / network. DatabaseSim inherits the
    # queue from ServerSim, so it gets wrappers of its own first.
    for klass, layer in ((database.DatabaseSim, "database"), (server.ServerSim, "server")):
        for attr in ("offer_batch", "_start_next", "_finish"):
            trace.span(klass, attr, layer)
    trace.span(network.NetworkSim, "send", "network")

    # distributions: RandomWindow draws and refills.
    window = rng.RandomWindow
    trace.count(window, "get", "rng.draws")
    trace.count(window, "take", "rng.draws", weight=lambda args: int(args[1]))

    def window_init(original):
        def init(self, fn, size=None):
            original(self, trace.timed_callable(fn, "rng", "RandomWindow.refill"), size)

        return init

    trace.patch(window, "__init__", window_init)

    # simulation.metrics: the exact-moment recorders.
    recorder = sim_metrics.LatencyRecorder
    trace.count(recorder, "record", "recorder.records")
    trace.count(recorder, "record_many", "recorder.records",
                weight=lambda args: len(args[1]))
    trace.span(recorder, "record", "recorder")
    trace.span(recorder, "record_many", "recorder")

    # observability: every collector, the builders and the report.
    trace.count(tracing.Span, "__init__", "obs.spans")
    for attr in ("child", "finish"):
        trace.span(tracing.Span, attr, "obs")
    for attr in ("start_request", "finish_request"):
        trace.span(tracing.Tracer, attr, "obs")
    hist = metrics.Histogram
    trace.count(hist, "record", "obs.hist_records")
    trace.count(hist, "record_many", "obs.hist_records",
                weight=lambda args: len(args[1]))
    trace.span(hist, "record", "obs")
    trace.span(hist, "record_many", "obs")

    def rows_built(_args, result):
        counts["obs.attr_rows"] += result.count

    sink = attribution.AttributionSink
    trace.span(sink, "maybe_flush", "obs")
    trace.span(sink, "flush", "obs")
    trace.patch(
        sink, "build",
        lambda f: trace.timed_callable(f, "obs", "AttributionSink.build",
                                       keep=True, after=rows_built),
    )
    trace.span(attribution.AttributionSet, "tail", "obs", keep=True)
    trace.span(timeline.TimelineBuilder, "build", "obs", keep=True)
    trace.span(timeline.Timeline, "from_events", "obs", keep=True)
    trace.span(timeline.Timeline, "littles_law", "obs", keep=True)
    trace.span(report.RunReport, "from_simulation", "obs", keep=True)
    trace.span(report.RunReport, "to_json", "obs", keep=True)

    # simulation.fastpath_system + fastpath: the Lindley scans.
    trace.span(fastpath_system, "simulate_system_requests", "fastpath_system", keep=True)
    trace.span(scenario, "simulate_system_requests", "fastpath_system", keep=True)
    for module in (fastpath, fastpath_system):
        trace.count(module, "lindley_waits", "lindley.calls")
        trace.count(module, "lindley_waits", "lindley.elements",
                    weight=lambda args: len(args[0]))
        trace.span(module, "lindley_waits", "lindley")

    # queueing: the GI/M/1 root finds, memoized and not.
    for module in (rootfind, gim1, cliff):
        trace.span(module, "solve_gim1_root", "queueing")
    for module in (rootfind, gim1):
        trace.span(module, "solve_gim1_root_cached", "queueing")

    # capacity: bracket, probes, objective, SLO evaluation.
    def search_done(_args, result):
        counts["capacity.probes"] += result.n_probes
        counts["capacity.escalations"] += sum(p.escalations for p in result.probes)
        counts["capacity.decisive"] += sum(p.decisive for p in result.probes)

    trace.span(search, "analytic_bracket", "capacity", keep=True)
    trace.patch(
        curve, "find_capacity",
        lambda f: trace.timed_callable(f, "capacity", "search.find_capacity",
                                       keep=True, after=search_done),
    )
    trace.span(objective.CapacityObjective, "measure", "capacity")
    trace.span(slo.SLOMonitor, "evaluate", "slo")

    # experiments: the dispatch and the runner.
    trace.span(scenario.Scenario, "run", "experiments", keep=True)
    trace.span(runner.ExperimentRunner, "run", "experiments", keep=True)
    return trace, stats


#: Per-layer metrics printed and stored but not listed in
#: ``BENCHMARK.json``: each reads 0 on every listed workload. The
#: observability ones run only on ``engine-observed``; probes never
#: escalate on ``capacity-sweep``, whose cells each solve two distinct
#: GI/M/1 roots, so the root cache, emptied before every op, never hits.
UNLISTED_UNITS = {
    "obs.spans": "count",
    "obs.attr_rows": "count",
    "obs.attr_build_s": "s",
    "obs.report_s": "s",
    "obs.profiler_records": "count",
    "capacity.escalations": "count",
    "queueing.root_cache_hit_ratio": "fraction",
}


def _ratio(numerator: float, denominator: float) -> float:
    """A ratio that reads 0 where its base is 0 (the layer did not run)."""
    return numerator / denominator if denominator else 0.0


def _mean(values: List[float]) -> float:
    return _ratio(sum(values), len(values))


def layer_metrics(
    trace: LayerTrace,
    stats: RunStats,
    *,
    n_ops: int,
    keys_generated: int,
    root_cache: Tuple[int, int],
) -> Dict[str, float]:
    """Every per-layer metric, per op where it is a count or a time.

    ``keys_generated`` counts keys the engine generated, warmup
    included; ``root_cache`` is the (hits, misses) of the memoized
    GI/M/1 root solver summed over the traced ops, each of which starts
    from an empty cache.
    """
    c = trace.counts
    s = trace.layer_self
    per = 1.0 / n_ops
    hits, misses = root_cache

    def fn(layer: str, *functions: str) -> float:
        """Per-op self seconds of named functions of one layer."""
        return sum(trace.self_s[(layer, name)] for name in functions) * per

    metrics = {
        "engine.events": c["engine.events"] * per,
        "engine.events_per_key": _ratio(c["engine.events"], keys_generated),
        "engine.dispatch_s": fn("engine", "Simulator.run"),
        "scheduler.push": c["scheduler.push"] * per,
        "scheduler.pop": c["scheduler.pop"] * per,
        "scheduler.pending_max": float(stats.pending_max),
        "system.build_s": fn("system", "MemcachedSystemSimulator.__init__"),
        "system.self_s": s("system") * per
        - fn("system", "MemcachedSystemSimulator.__init__"),
        "server.events": trace.layer_calls("server", "_finish") * per,
        "server.self_s": s("server") * per,
        "server.busy_frac": _mean(stats.server_util),
        "database.events": trace.layer_calls("database", "_finish") * per,
        "database.self_s": s("database") * per,
        "database.busy_frac": _mean(stats.database_util),
        "network.events": trace.layer_calls("network") * per,
        "network.self_s": s("network") * per,
        "rng.draws": c["rng.draws"] * per,
        "rng.refills": trace.layer_calls("rng") * per,
        "rng.refill_s": s("rng") * per,
        "recorder.records": c["recorder.records"] * per,
        "recorder.self_s": s("recorder") * per,
        "obs.spans": c["obs.spans"] * per,
        "obs.hist_records": c["obs.hist_records"] * per,
        "obs.attr_rows": c["obs.attr_rows"] * per,
        "obs.attr_build_s": fn("obs", "AttributionSink.maybe_flush",
                               "AttributionSink.flush", "AttributionSink.build"),
        "obs.timeline_build_s": fn("obs", "TimelineBuilder.build",
                                   "Timeline.from_events"),
        "obs.report_s": fn("obs", "RunReport.from_simulation", "RunReport.to_json"),
        "obs.profiler_records": c["obs.profiler_records"] * per,
        "obs.self_s": s("obs") * per,
        "fastpath_system.calls": trace.layer_calls("fastpath_system") * per,
        "fastpath_system.self_s": s("fastpath_system") * per,
        "lindley.calls": c["lindley.calls"] * per,
        "lindley.elements": c["lindley.elements"] * per,
        "lindley.s": s("lindley") * per,
        "queueing.rootfind_calls": trace.layer_calls("queueing", "solve_gim1_root") * per,
        "queueing.rootfind_s": s("queueing") * per,
        "queueing.root_cache_hit_ratio": _ratio(hits, hits + misses),
        "capacity.probes": c["capacity.probes"] * per,
        "capacity.escalations": c["capacity.escalations"] * per,
        "capacity.decisive_ratio": _ratio(c["capacity.decisive"], c["capacity.probes"]),
        "capacity.bracket_s": fn("capacity", "search.analytic_bracket"),
        "capacity.measure_s": fn("capacity", "CapacityObjective.measure"),
        "slo.evaluate_s": s("slo") * per,
        "experiments.dispatch_s": fn("experiments", "Scenario.run"),
        "experiments.runner_s": fn("experiments", "ExperimentRunner.run"),
        "gc.collections": trace.gc_runs * per,
        "gc.s": trace.gc_s * per,
    }
    return metrics
