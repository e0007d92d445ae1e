"""Analytic queueing substrate.

* :class:`MM1Queue` — the database stage (paper §4.4).
* :class:`GIM1Queue` — general renewal arrivals, exponential service.
* :class:`GIXM1Queue` — the paper's batch-arrival Memcached-server queue.
* :class:`MG1Queue` — Pollaczek-Khinchine baseline.
* fork-join baselines, maximal statistics, and the Proposition-2 cliff
  machinery (Table 4).
"""

from .cliff import (
    CLIFF_METHODS,
    PAPER_TABLE_4,
    POISSON_CLIFF,
    cliff_key_rate,
    cliff_table,
    cliff_utilization,
    delta_for_utilization,
    knee_point,
    normalized_latency,
    poisson_cliff_closed_form,
)
from .forkjoin import (
    SplitMergeBounds,
    nelson_tantawi_mean,
    varma_makowski_interpolation,
)
from .general_batch import (
    GeneralBatchQueue,
    batch_collapse_error,
    geometric_reference,
)
from .gim1 import GIM1Queue
from .gixm1 import GIXM1Queue, batch_collapse_service
from .maxstat import (
    expected_max_empirical,
    expected_max_exact,
    expected_max_of_exponential,
    expected_max_quantile_rule,
    harmonic_expected_max_of_exponential,
    max_cdf_power,
    quantile_level,
)
from .mg1 import MG1Queue
from .mm1 import MM1Queue
from .mmc import MMcQueue, erlang_c, pooling_comparison
from .rootfind import (
    fixed_point_iterate,
    gim1_root_cache_clear,
    gim1_root_cache_info,
    solve_gim1_root,
    solve_gim1_root_cached,
)

__all__ = [
    "CLIFF_METHODS",
    "GIM1Queue",
    "GIXM1Queue",
    "GeneralBatchQueue",
    "batch_collapse_error",
    "geometric_reference",
    "MG1Queue",
    "MM1Queue",
    "MMcQueue",
    "erlang_c",
    "pooling_comparison",
    "PAPER_TABLE_4",
    "POISSON_CLIFF",
    "SplitMergeBounds",
    "batch_collapse_service",
    "cliff_key_rate",
    "cliff_table",
    "cliff_utilization",
    "delta_for_utilization",
    "expected_max_empirical",
    "expected_max_exact",
    "expected_max_of_exponential",
    "expected_max_quantile_rule",
    "fixed_point_iterate",
    "harmonic_expected_max_of_exponential",
    "knee_point",
    "max_cdf_power",
    "nelson_tantawi_mean",
    "normalized_latency",
    "poisson_cliff_closed_form",
    "quantile_level",
    "gim1_root_cache_clear",
    "gim1_root_cache_info",
    "solve_gim1_root",
    "solve_gim1_root_cached",
    "varma_makowski_interpolation",
]
