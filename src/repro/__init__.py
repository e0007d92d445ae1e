"""repro — reproduction of *Modeling and Analyzing Latency in the
Memcached system* (Cheng, Ren, Jiang, Zhang; ICDCS 2017).

The library has five layers:

* :mod:`repro.distributions` — stochastic substrate (Generalized Pareto
  arrivals, Laplace transforms, fitting);
* :mod:`repro.queueing` — analytic queues: GI/M/1, the paper's
  GI^X/M/1, M/M/1, fork-join baselines, cliff analysis (Table 4);
* :mod:`repro.core` — the paper's latency model: Theorem 1 bounds,
  Propositions 1-2, the §5.3 configuration advisor;
* :mod:`repro.simulation` — discrete-event and vectorized simulators
  standing in for the paper's physical testbed;
* :mod:`repro.memcached` / :mod:`repro.workloads` — an executable
  memcached (slabs, LRU, consistent hashing, text protocol) and the
  Facebook/ETC statistical workload model.

Quickstart::

    from repro import LatencyModel, WorkloadPattern
    from repro.units import kps, msec, usec

    model = LatencyModel.build(
        workload=WorkloadPattern.facebook(),
        service_rate=kps(80),
        network_delay=usec(20),
        database_rate=1 / msec(1),
        miss_ratio=0.01,
    )
    print(model.estimate(150))   # Theorem 1 bounds for N = 150 keys
"""

from ._version import __version__
from .capacity import (
    CapacityCurve,
    CapacityObjective,
    CapacityProbe,
    CapacityResult,
    capacity_curve,
    find_capacity,
)
from .core import (
    AdvisorReport,
    ClusterModel,
    DatabaseStage,
    LatencyEstimate,
    LatencyModel,
    NetworkStage,
    Recommendation,
    ServerStage,
    ServerStageEstimate,
    Severity,
    WorkloadPattern,
    advise,
)
from .errors import (
    CacheCapacityError,
    CacheError,
    ConfigError,
    ConvergenceError,
    ProtocolError,
    ReproError,
    SimulationError,
    StabilityError,
    ValidationError,
)
from .distributions import (
    Deterministic,
    Distribution,
    Exponential,
    GeneralizedPareto,
    Zipf,
)
from .faults import (
    DatabaseOverload,
    FaultSchedule,
    FaultWindow,
    RequestRecord,
    ServerPause,
    ServerSlowdown,
    ShareShift,
    TrajectoryPoint,
    trajectory,
    window_effect,
)
from .observability import (
    AlertWindow,
    BurnRateRule,
    Histogram,
    MetricsRegistry,
    Observability,
    RunReport,
    SLOMonitor,
    SLORule,
    Timeline,
    Tracer,
    detection_scores,
)
from .policies import RequestPolicy, hedge_delay_from_quantile
from .experiments import (
    ExperimentRunner,
    Grid,
    Scenario,
    Suite,
    SuiteResult,
    backend_options,
    run_suite,
    sweep_suite,
)
from .queueing import (
    GIM1Queue,
    GIXM1Queue,
    MG1Queue,
    MM1Queue,
    cliff_utilization,
    delta_for_utilization,
)
from .simulation import (
    MemcachedSystemSimulator,
    SimulationResult,
    Simulator,
    StageStats,
)

__all__ = [
    "AdvisorReport",
    "AlertWindow",
    "BurnRateRule",
    "CacheCapacityError",
    "CacheError",
    "CapacityCurve",
    "CapacityObjective",
    "CapacityProbe",
    "CapacityResult",
    "ClusterModel",
    "ConfigError",
    "ConvergenceError",
    "DatabaseOverload",
    "DatabaseStage",
    "Deterministic",
    "Distribution",
    "ExperimentRunner",
    "Exponential",
    "FaultSchedule",
    "FaultWindow",
    "GIM1Queue",
    "GIXM1Queue",
    "GeneralizedPareto",
    "Grid",
    "Histogram",
    "LatencyEstimate",
    "LatencyModel",
    "MG1Queue",
    "MM1Queue",
    "MemcachedSystemSimulator",
    "MetricsRegistry",
    "NetworkStage",
    "Observability",
    "ProtocolError",
    "Recommendation",
    "ReproError",
    "RequestPolicy",
    "RequestRecord",
    "RunReport",
    "SLOMonitor",
    "SLORule",
    "Scenario",
    "ServerPause",
    "ServerSlowdown",
    "ServerStage",
    "ServerStageEstimate",
    "Severity",
    "ShareShift",
    "SimulationError",
    "SimulationResult",
    "Simulator",
    "StabilityError",
    "StageStats",
    "Suite",
    "SuiteResult",
    "Timeline",
    "Tracer",
    "TrajectoryPoint",
    "ValidationError",
    "WorkloadPattern",
    "Zipf",
    "__version__",
    "advise",
    "backend_options",
    "capacity_curve",
    "cliff_utilization",
    "delta_for_utilization",
    "detection_scores",
    "find_capacity",
    "hedge_delay_from_quantile",
    "run_suite",
    "sweep_suite",
    "trajectory",
    "window_effect",
]
