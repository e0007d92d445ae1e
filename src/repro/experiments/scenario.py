"""The unified parameter object: one fully-specified system point.

The paper's §5 is a grid of system points (workload shape, cluster,
keys per request, miss ratio...). :class:`Scenario` captures one point
in the library's internal units, round-trips through plain dicts (for
checkpoints) and JSON files (so experiment definitions can live in
version control), builds the analytic models and the closed-loop
simulator, and dispatches to any of the four evaluation backends:

``estimate``
    Theorem 1 analytic bounds (:class:`~repro.core.LatencyEstimate`).
``simulate``
    The closed-loop discrete-event simulator
    (:class:`~repro.simulation.SimulationResult`).
``fastpath``
    The vectorized Lindley simulator + fork-join Monte-Carlo
    (:class:`~repro.simulation.SimulationResult`).
``fastpath-system``
    The whole-system vectorized simulator — the event engine's coupled
    request/server/database pipeline at numpy speed
    (:class:`~repro.simulation.SimulationResult`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..core import ClusterModel, LatencyModel, WorkloadPattern
from ..core.stages import DatabaseStage, NetworkStage, ServerStage
from ..core.tail import TailLatencyModel
from ..distributions import make_rng
from ..errors import ConfigError, ValidationError
from ..faults import FaultSchedule
from ..observability.timeline import Timeline, TimelineSpec, _resolve_windows
from ..policies import RequestPolicy
from ..simulation import MemcachedSystemSimulator
from ..simulation.fastpath import (
    _server_pools,
    sample_request_latencies,
    sample_timeline,
)
from ..simulation.fastpath_system import simulate_system_requests
from ..simulation.results import SimulationResult, SystemResults

#: Evaluation backends a scenario can dispatch to.
BACKENDS = ("estimate", "simulate", "fastpath", "fastpath-system")

#: Default per-server latency pool size for the fast-path backend.
DEFAULT_POOL_SIZE = 200_000


def _is_whole(value) -> bool:
    """An integer, or a float with no fractional part."""
    return isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )


def _whole(rule: str, holds) -> tuple:
    """The rules of an integer field: a whole number, then its range."""
    return (("a whole number", _is_whole), (rule, holds))


#: The rules every numeric field must satisfy, checked in order at
#: construction so a bad value fails with the field's name on every
#: backend. NaN fails every rule; the float rules also exclude
#: infinities.
_FIELD_RANGES = {
    "key_rate": (("finite and > 0", lambda v: 0.0 < v < math.inf),),
    "burst_xi": (("in [0, 1)", lambda v: 0.0 <= v < 1.0),),
    "concurrency_q": (("in [0, 1)", lambda v: 0.0 <= v < 1.0),),
    "n_servers": _whole(">= 1", lambda v: v >= 1),
    "service_rate": (("finite and > 0", lambda v: 0.0 < v < math.inf),),
    "n_keys": _whole(">= 1", lambda v: v >= 1),
    "network_delay": (("finite and >= 0", lambda v: 0.0 <= v < math.inf),),
    "miss_ratio": (("in [0, 1]", lambda v: 0.0 <= v <= 1.0),),
    "database_rate": (
        (
            "finite and > 0 when given",
            lambda v: v is None or 0.0 < v < math.inf,
        ),
    ),
    "seed": _whole(">= 0", lambda v: v >= 0),
    "n_requests": _whole(">= 1", lambda v: v >= 1),
    "warmup_requests": _whole(">= 0", lambda v: v >= 0),
}


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One fully-specified Memcached latency experiment point.

    Rates are in keys/second, times in seconds — the library's internal
    units — so a scenario is unambiguous independent of display units.
    ``shares`` is a tuple so scenarios stay hashable and safely
    shareable across processes.
    """

    # Workload shape (per-server when shares are balanced/omitted).
    key_rate: float
    burst_xi: float = 0.0
    concurrency_q: float = 0.0
    # Cluster.
    n_servers: int = 1
    service_rate: float = 80_000.0
    shares: Optional[Tuple[float, ...]] = None
    # Request structure.
    n_keys: int = 150
    # Network & database.
    network_delay: float = 0.0
    miss_ratio: float = 0.0
    database_rate: Optional[float] = None
    # Simulation knobs.
    seed: int = 0
    n_requests: int = 2000
    warmup_requests: int = 200
    # Fault injection & request policy (simulation backends only).
    faults: Optional[FaultSchedule] = None
    policy: Optional[RequestPolicy] = None

    def __post_init__(self) -> None:
        if self.shares is not None and not isinstance(self.shares, tuple):
            object.__setattr__(self, "shares", tuple(self.shares))
        # Accept the JSON-payload form (checkpoints, configs) and
        # canonicalize to the typed objects so scenarios stay hashable.
        if isinstance(self.faults, dict):
            object.__setattr__(self, "faults", FaultSchedule.from_dict(self.faults))
        if isinstance(self.policy, dict):
            object.__setattr__(self, "policy", RequestPolicy.from_dict(self.policy))
        for name, rules in _FIELD_RANGES.items():
            value = getattr(self, name)
            for rule, holds in rules:
                if not holds(value):
                    raise ValidationError(f"{name} must be {rule}, got {value}")
        if self.shares is not None and len(self.shares) != self.n_servers:
            raise ConfigError(
                f"shares has {len(self.shares)} entries for "
                f"{self.n_servers} servers"
            )
        if self.faults is not None and self.faults.is_empty:
            object.__setattr__(self, "faults", None)

    # ------------------------------------------------------------------
    # Persistence: one plain-data payload, one parser.
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form: list shares, kind-tagged fault/policy payloads."""
        return {
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
            "shares": None if self.shares is None else list(self.shares),
            "faults": self.faults.to_dict() if self.faults else None,
            "policy": self.policy.to_dict() if self.policy else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Scenario":
        if not isinstance(payload, dict):
            raise ConfigError("scenario payload must be an object")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"incomplete scenario: {exc}") from exc

    def to_json(self) -> str:
        """Serialize to the JSON config-file form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a JSON string produced by :meth:`to_json`."""
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        """Write the scenario to a JSON config file."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        """Read a scenario from a JSON config file."""
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from exc
        return cls.from_json(text)

    def replace(self, **changes: object) -> "Scenario":
        """Derive a new scenario with ``changes`` applied, re-validated.

        This is the *only* supported way to perturb a scenario — the
        capacity bisection, the factor registry and the grid expansion
        all funnel through it. Unknown field names raise
        :class:`ValidationError` (not ``TypeError``), and the derived
        scenario runs the full ``__post_init__`` validation, so an
        invalid derivation fails at the call site instead of deep inside
        a backend.
        """
        known = {field.name for field in dataclasses.fields(self)}
        unknown = set(changes) - known
        if unknown:
            raise ValidationError(
                f"unknown scenario fields: {sorted(unknown)}; "
                f"valid fields: {sorted(known)}"
            )
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Derived builders.
    # ------------------------------------------------------------------

    def workload(self) -> WorkloadPattern:
        """The per-server workload pattern."""
        return WorkloadPattern(
            rate=self.key_rate, xi=self.burst_xi, q=self.concurrency_q
        )

    def cluster(self) -> ClusterModel:
        """The cluster model (balanced unless shares are given)."""
        if self.shares is None:
            return ClusterModel.balanced(self.n_servers, self.service_rate)
        return ClusterModel(self.shares, self.service_rate)

    def total_key_rate(self) -> float:
        return self.key_rate * self.n_servers

    def request_rate(self) -> float:
        """End-user requests per second (``total_key_rate / n_keys``)."""
        return self.total_key_rate() / self.n_keys

    def latency_model(self) -> LatencyModel:
        """Theorem 1 model for this scenario."""
        unbalanced = {}
        if self.shares is not None:
            unbalanced = dict(
                cluster=self.cluster(), total_key_rate=self.total_key_rate()
            )
        return LatencyModel.build(
            workload=self.workload(),
            service_rate=self.service_rate,
            network_delay=self.network_delay,
            database_rate=self.database_rate,
            miss_ratio=self.miss_ratio,
            **unbalanced,
        )

    def tail_model(self) -> TailLatencyModel:
        """Percentile-level model for this scenario."""
        stage = ServerStage.from_cluster(
            self.cluster(), self.total_key_rate(), self.workload()
        )
        database = None
        if self.miss_ratio > 0.0:
            if self.database_rate is None:
                raise ConfigError("database_rate required when miss_ratio > 0")
            database = DatabaseStage(self.database_rate, self.miss_ratio)
        return TailLatencyModel(
            stage,
            network_stage=NetworkStage(self.network_delay),
            database_stage=database,
        )

    def simulator(self, observability=None):
        """Closed-loop simulator for this scenario.

        The request rate is chosen so the induced per-server key rate
        equals ``key_rate``. Pass an
        :class:`~repro.observability.Observability` bundle to collect
        traces/metrics/profiles for the run.
        """
        return MemcachedSystemSimulator(
            self.cluster(),
            n_keys_per_request=self.n_keys,
            request_rate=self.request_rate(),
            network_delay=self.network_delay,
            miss_ratio=self.miss_ratio,
            database_rate=self.database_rate,
            seed=self.seed,
            observability=observability,
            faults=self.faults,
            policy=self.policy,
        )

    # ------------------------------------------------------------------
    # Backend dispatch.
    # ------------------------------------------------------------------

    def _reject_faulted(self, backend: str) -> None:
        """Analytic/pool backends model the fault-free, policy-free system."""
        if self.faults is not None:
            raise ConfigError(
                f"the {backend} backend models the fault-free steady state; "
                "run fault schedules on the simulate or fastpath-system "
                "backend"
            )
        if self.policy is not None:
            raise ConfigError(
                f"the {backend} backend has no request-policy semantics; "
                "run policies on the simulate backend"
            )

    def estimate(self):
        """Theorem 1 bounds (:class:`~repro.core.LatencyEstimate`)."""
        self._reject_faulted("estimate")
        return self.latency_model().estimate(self.n_keys)

    def simulate(
        self,
        observability=None,
        *,
        timeline: object = None,
        attribution: object = None,
    ) -> SimulationResult:
        """Closed-loop discrete-event simulation of this scenario.

        ``timeline`` (anything :meth:`TimelineSpec.coerce` accepts)
        turns on windowed telemetry; ``attribution`` (``True``, a
        reservoir capacity, or an ``AttributionSink``) turns on
        per-request stage attribution. When no ``observability`` bundle
        is supplied a minimal bundle carrying just the requested
        collectors is created so the hot path stays uninstrumented
        otherwise. A sink added to a supplied bundle is sized by the
        bundle's ``slowest_k``.
        """
        results = self._simulate_results(
            observability, timeline=timeline, attribution=attribution
        )
        return SimulationResult.from_system(results, n_keys=self.n_keys)

    def _simulate_results(
        self,
        observability=None,
        *,
        timeline: object = None,
        attribution: object = None,
    ) -> SystemResults:
        """The event engine's :class:`SystemResults` for :meth:`simulate`."""
        wants_timeline = (
            timeline is not None and TimelineSpec.coerce(timeline) is not None
        )
        if wants_timeline or attribution:
            from ..observability import (
                Observability,
                TimelineBuilder,
                coerce_attribution,
            )

            if observability is None:
                observability = Observability(
                    trace=False,
                    metrics=False,
                    timeline=timeline if wants_timeline else None,
                    attribution=attribution,
                )
            else:
                if wants_timeline and observability.timeline is None:
                    observability.timeline = TimelineBuilder(
                        TimelineSpec.coerce(timeline)
                    )
                if attribution and observability.attribution is None:
                    observability.attribution = coerce_attribution(
                        attribution, slowest_k=observability.slowest_k
                    )
        system = self.simulator(observability=observability)
        return system.run(
            n_requests=self.n_requests, warmup_requests=self.warmup_requests
        )

    def fastpath(
        self,
        *,
        pool_size: int = DEFAULT_POOL_SIZE,
        timeline: object = None,
    ) -> SimulationResult:
        """Vectorized Lindley + fork-join Monte-Carlo simulation.

        Balanced clusters share one per-server latency pool (every
        server is statistically identical); unbalanced clusters get one
        pool per share, each at its share of the total key stream.
        """
        self._reject_faulted("fastpath")
        rng = make_rng(self.seed)
        workload, shares = self.workload(), None
        if self.shares is not None:
            workload = workload.with_rate(self.total_key_rate())
            shares = self.cluster().shares
        pools, shares, exact_server = _server_pools(
            workload,
            self.service_rate,
            shares,
            self.n_keys,
            pool_size=pool_size,
            rng=rng,
        )
        sample = sample_request_latencies(
            pools,
            shares,
            n_keys=self.n_keys,
            n_requests=self.n_requests,
            rng=rng,
            network_delay=self.network_delay,
            miss_ratio=self.miss_ratio,
            database_rate=self.database_rate,
        )
        result = SimulationResult.from_sample(sample, n_keys=self.n_keys)
        if timeline is not None and TimelineSpec.coerce(timeline) is not None:
            result = dataclasses.replace(
                result,
                timeline=sample_timeline(
                    sample,
                    request_rate=self.request_rate(),
                    rng=rng,
                    timeline=timeline,
                ),
            )
        return dataclasses.replace(result, server_expected_max=exact_server)

    def fastpath_system(
        self, *, timeline: object = None, attribution: object = None
    ) -> SimulationResult:
        """Whole-system vectorized simulation of this scenario.

        Statistically equivalent to :meth:`simulate` — same Poisson
        request process, multinomial routing, per-server batch queueing,
        shared M/M/1 database and fork-join joins — but run as numpy
        Lindley scans instead of events, so it sustains millions of
        simulated keys per second.
        """
        results = self._fastpath_system_results(
            timeline=timeline, attribution=attribution
        )
        return SimulationResult.from_system(results, n_keys=self.n_keys)

    def _fastpath_system_results(
        self, *, timeline: object = None, attribution: object = None
    ) -> SystemResults:
        """``fastpath-system``'s :class:`SystemResults` for
        :meth:`fastpath_system`."""
        if self.policy is not None:
            raise ConfigError(
                "the fastpath-system backend has no request-policy "
                "semantics; run policies on the simulate backend"
            )
        return simulate_system_requests(
            self.cluster().shares,
            self.service_rate,
            n_keys=self.n_keys,
            request_rate=self.request_rate(),
            n_requests=self.n_requests,
            warmup_requests=self.warmup_requests,
            rng=make_rng(self.seed),
            network_delay=self.network_delay,
            miss_ratio=self.miss_ratio,
            database_rate=self.database_rate,
            faults=self.faults,
            timeline=timeline,
            attribution=attribution,
        )

    def attribution_reference(self) -> Dict[str, float]:
        """Analytic per-group latency expectation, system-matched.

        The reference column ``repro explain`` diffs simulated stage
        shares against: Theorem 1 evaluated for the closed loop the
        simulation backends actually run — the *induced* per-server
        workload (Poisson requests forking compound batches, matched to
        geometric concurrency exactly like
        :meth:`MemcachedSystemSimulator.induced_server_workload`), the
        round-trip network convention (every key pays ``2d``), and the
        database M/M/1 sojourn at its induced utilization (eq. (19)
        with ``rho > 0``). Faults and policies are stripped: the
        reference is always the fault-free expectation, so the diff
        *shows* what a fault moved.

        Unlike :meth:`estimate` (median-flavoured quantile-rule bounds,
        eq. (14)), every column here is a *mean*: the per-key server law
        is ``Exp(a)`` with ``a`` the induced decay rate — exact in
        expectation (see ``GIXM1Queue.mean_key_latency``) — so one
        coherent max-statistics model yields ``E[TS(N)] = H_N / a``, the
        database and total expectations by tail integration, and a
        fork-join slack that vanishes exactly at ``n_keys == 1``.

        The matched-geometric batch model is an approximation the paper
        leans on: exact at ``n_keys == 1``, within ~30% on the server
        stage for moderate fan-out, and loose for very large batches.
        """
        base = self.replace(faults=None, policy=None)
        n = int(base.n_keys)
        share = max(base.cluster().shares)
        p_any = 1.0 - (1.0 - share) ** n
        mean_batch = n * share / p_any
        q_induced = max(0.0, 1.0 - 1.0 / mean_batch)
        model = base.replace(
            burst_xi=0.0, concurrency_q=q_induced
        ).latency_model()
        stage = model.server_stage
        # Every key pays the round trip (the simulators' convention);
        # the analytic TN = d is one way.
        network = 2.0 * model.network_stage.mean_latency(n)
        # E[max of N iid Exp(a)] = H_N / a — the per-key upper law is
        # exact in expectation, so this is the mean-based E[TS(N)].
        a = stage.queue.decay_rate
        server = stage.mean_latency_upper_exact(n)
        # Missed keys see an M/M/1 database at its induced load: sojourn
        # ~ Exp((1 - rho) muD) (eq. (19) with rho > 0).
        rho_db = 0.0
        if base.miss_ratio > 0.0 and base.database_rate:
            rho_db = min(
                base.total_key_rate() * base.miss_ratio / base.database_rate,
                0.999,
            )
        b = base.database_rate * (1.0 - rho_db)
        r = base.miss_ratio
        if r > 0.0 and b > 0.0:
            # One key's DB contribution D = Exp(b) w.p. r else 0, so
            # P(max D <= t) = (1 - r exp(-bt))^N; integrate the tail.
            horizon = (np.log(n) + 50.0) * (1.0 / a + 1.0 / b)
            grid = np.linspace(0.0, horizon, 4001)
            database = float(
                np.trapezoid(1.0 - (1.0 - r * np.exp(-b * grid)) ** n, grid)
            )
            # Per-key chain X = S + D; E[T(N)] = 2d + E[max X] under the
            # same independence approximation.
            if abs(a - b) < 1e-9 * a:
                b = a * (1.0 + 1e-6)
            chain_cdf = (
                1.0
                - np.exp(-a * grid)
                - r
                * a
                / (a - b)
                * (np.exp(-b * grid) - np.exp(-a * grid))
            )
            chain_max = float(np.trapezoid(1.0 - chain_cdf**n, grid))
        else:
            database = 0.0
            chain_max = server
        total = network + chain_max
        serial = network + server + database
        return {
            "network": network,
            "server": server,
            "database": database,
            "policy": 0.0,
            "join_slack": total - serial,
            "total": total,
        }

    def run(self, backend: str = "estimate", **options: object):
        """Dispatch to any backend with registry-validated options.

        Every backend goes through the same two steps: the typed
        per-backend options registry (:mod:`repro.experiments.options`)
        validates ``options`` — unknown or invalid options raise the
        same :class:`ValidationError` shape on all four backends — and
        the matching typed method runs. ``backend_options(backend)``
        introspects what a backend accepts.
        """
        from .options import validate_options

        validate_options(backend, options)  # ConfigError on unknown backend
        return self._DISPATCH[backend](self, **options)

    _DISPATCH = {
        "estimate": estimate,
        "simulate": simulate,
        "fastpath": fastpath,
        "fastpath-system": fastpath_system,
    }

    #: The whole-system backends' runs, before the summary ``run`` adds.
    _SYSTEM_RESULTS = {
        "simulate": _simulate_results,
        "fastpath-system": _fastpath_system_results,
    }

    # ------------------------------------------------------------------
    # Windowed telemetry: one call, any backend, one schema.
    # ------------------------------------------------------------------

    def timeline(
        self,
        backend: str = "simulate",
        *,
        window: Optional[float] = None,
        n_windows: Optional[int] = None,
        **options: object,
    ) -> Timeline:
        """Windowed telemetry for this scenario on any backend.

        ``simulate``/``fastpath-system`` record it natively;
        ``fastpath`` lays its stationary sample on synthetic Poisson
        arrivals; ``estimate`` returns the model's constant-rate
        prediction (utilizations and occupancy from Theorem 1 /
        Little's law — no latency histograms, since the analytic
        backend has no samples). On the whole-system backends it
        returns the run's own timeline, without the summary statistics
        :meth:`run` adds.
        """
        spec: object
        if window is not None or n_windows is not None:
            spec = TimelineSpec(window=window, n_windows=n_windows)
        else:
            spec = True
        from .options import validate_options

        if backend == "estimate":
            validate_options("estimate", options)
            return self._analytic_timeline(TimelineSpec.coerce(spec))
        if backend not in BACKENDS:
            raise ConfigError(f"unknown backend {backend!r} (have {BACKENDS})")
        system = self._SYSTEM_RESULTS.get(backend)
        if system is None:
            result = self.run(backend, timeline=spec, **options)
        else:
            validate_options(backend, {"timeline": spec, **options})
            result = system(self, timeline=spec, **options)
        if result.timeline is None:  # pragma: no cover - defensive
            raise ConfigError(f"backend {backend!r} produced no timeline")
        return result.timeline

    def _analytic_timeline(self, spec: Optional[TimelineSpec]) -> Timeline:
        """Constant-rate Timeline predicted by the analytic model.

        The stationary model has no transient: every window carries the
        same arrival/completion rate (the configured request rate), the
        same occupancy ``L = lambda * E[T(N)]`` (Little's law on the
        Theorem 1 midpoint), per-server utilization ``rho_j``, and
        M/M/1-approximate queue depths. This is the reference trace the
        simulated timelines should fluctuate around.
        """
        estimate = self.estimate()
        request_rate = self.request_rate()
        duration = self.n_requests / request_rate
        start, width, count = _resolve_windows(0.0, duration, spec)
        timeline = Timeline.empty(start, width, count)
        requests_per_window = request_rate * width
        timeline.arrivals += requests_per_window
        timeline.completions += requests_per_window
        timeline.inflight_time += (
            request_rate * estimate.total_midpoint * width
        )
        cluster = self.cluster()
        total_rate = self.total_key_rate()
        for j, share in enumerate(cluster.shares):
            timeline.stages[f"server.{j}"] = _analytic_stage_series(
                count,
                width,
                arrival_rate=total_rate * float(share),
                service_rate=self.service_rate,
            )
        if self.miss_ratio > 0.0 and self.database_rate is not None:
            timeline.stages["database"] = _analytic_stage_series(
                count,
                width,
                arrival_rate=total_rate * self.miss_ratio,
                service_rate=self.database_rate,
            )
        timeline.meta.update({"backend": "estimate", "analytic": True})
        return timeline

    # ------------------------------------------------------------------

    @classmethod
    def paper_section_5_1(cls) -> "Scenario":
        """The paper's §5.1 testbed configuration."""
        return cls(
            key_rate=62_500.0,
            burst_xi=0.15,
            concurrency_q=0.1,
            n_servers=4,
            service_rate=80_000.0,
            n_keys=150,
            network_delay=20e-6,
            miss_ratio=0.01,
            database_rate=1000.0,
        )


def _analytic_stage_series(
    count: int, width: float, *, arrival_rate: float, service_rate: float
):
    """Constant-rate :class:`StageSeries` for one M/M/1-approximate stage.

    ``busy_time`` encodes ``rho = lambda / mu`` per window and
    ``wait_time`` the M/M/1 mean queue length ``Lq = rho^2 / (1 - rho)``
    (NaN when the stage is overloaded — the stationary model has no
    finite prediction there).
    """
    import math as _math

    from ..observability.timeline import StageSeries

    series = StageSeries.zeros(count)
    rho = arrival_rate / service_rate
    series.arrivals += arrival_rate * width
    series.completions += arrival_rate * width
    series.busy_time += min(rho, 1.0) * width
    queued = rho * rho / (1.0 - rho) if rho < 1.0 else _math.nan
    series.wait_time += queued * width
    return series


def cell_metrics(outcome) -> Dict[str, float]:
    """Flatten a backend outcome into one StageStats-shaped metric dict.

    Every backend reports the same vocabulary: per-stage ``mean`` plus
    an uncertainty interval ``ci_low``/``ci_high`` (the 95% confidence
    interval for simulation backends, the Theorem 1 lower/upper bounds
    for the analytic estimate). Percentile and count keys exist only
    where a backend actually measures them.
    """
    if isinstance(outcome, SimulationResult):
        if outcome.server_expected_max is not None:
            extra = {"server_expected_max": outcome.server_expected_max}
        else:
            extra = {}
        return {
            **extra,
            "mean": outcome.total.mean,
            "ci_low": outcome.total.ci_low,
            "ci_high": outcome.total.ci_high,
            "p50": outcome.total.p50,
            "p95": outcome.total.p95,
            "p99": outcome.total.p99,
            "std": outcome.total.std,
            "count": float(outcome.total.count),
            "server_mean": outcome.server.mean,
            "server_ci_low": outcome.server.ci_low,
            "server_ci_high": outcome.server.ci_high,
            "server_p99": outcome.server.p99,
            "database_mean": outcome.database.mean,
            "network_mean": outcome.network.mean,
            "measured_miss_ratio": outcome.measured_miss_ratio,
        }
    # LatencyEstimate (duck-typed to avoid importing core here). The
    # Theorem 1 bounds play the interval role: mean is the midpoint,
    # ci_low/ci_high are the analytic lower/upper bounds.
    return {
        "mean": outcome.total_midpoint,
        "ci_low": outcome.total_lower,
        "ci_high": outcome.total_upper,
        "server_mean": 0.5 * (outcome.server.lower + outcome.server.upper),
        "server_ci_low": outcome.server.lower,
        "server_ci_high": outcome.server.upper,
        "database_mean": outcome.database,
        "network_mean": outcome.network,
    }
