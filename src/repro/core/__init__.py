"""The paper's primary contribution: the Memcached latency model.

Build a :class:`LatencyModel` from a :class:`WorkloadPattern`, a
:class:`ClusterModel`, and optional network/database stages, then call
``estimate(N)`` for Theorem 1's bounds on the end-user request latency.
"""

from .analysis import (
    fit_linear_slope,
    fit_log_slope,
    goodness_of_linear_fit,
    marginal_benefit_fewer_keys,
    marginal_benefit_lower_miss_ratio,
)
from .cluster import ClusterModel
from .latency import LatencyEstimate, LatencyModel
from .recommendations import AdvisorReport, Recommendation, Severity, advise
from .redundancy import (
    RedundancyEstimate,
    RedundancyModel,
    redundancy_crossover,
    redundancy_speedup,
)
from .tail import QuantileBounds, TailLatencyModel
from .validation import (
    StageComparison,
    ValidationReport,
    validate_configuration,
)
from .stages import (
    DatabaseStage,
    NetworkStage,
    ServerStage,
    ServerStageEstimate,
)
from .workload import (
    FACEBOOK_BURST,
    FACEBOOK_CONCURRENCY,
    FACEBOOK_KEY_RATE,
    FACEBOOK_TRACE_CONCURRENCY,
    WorkloadPattern,
)

__all__ = [
    "AdvisorReport",
    "ClusterModel",
    "DatabaseStage",
    "FACEBOOK_BURST",
    "FACEBOOK_CONCURRENCY",
    "FACEBOOK_KEY_RATE",
    "FACEBOOK_TRACE_CONCURRENCY",
    "LatencyEstimate",
    "LatencyModel",
    "NetworkStage",
    "QuantileBounds",
    "Recommendation",
    "RedundancyEstimate",
    "RedundancyModel",
    "TailLatencyModel",
    "redundancy_crossover",
    "redundancy_speedup",
    "ServerStage",
    "ServerStageEstimate",
    "Severity",
    "StageComparison",
    "ValidationReport",
    "WorkloadPattern",
    "advise",
    "fit_linear_slope",
    "fit_log_slope",
    "goodness_of_linear_fit",
    "marginal_benefit_fewer_keys",
    "marginal_benefit_lower_miss_ratio",
    "validate_configuration",
]
