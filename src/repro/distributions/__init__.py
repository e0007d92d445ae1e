"""Stochastic substrate: distributions, transforms, fitting, RNG streams.

Everything random in the library flows through these classes; see
:class:`repro.distributions.Distribution` for the shared interface.
"""

from .base import (
    DiscreteDistribution,
    Distribution,
    require_positive,
    require_probability,
    require_weights,
)
from .discrete import FixedCount, Geometric, TruncatedBinomial, Zipf
from .empirical import Empirical
from .exponential import Deterministic, Exponential
from .fitting import (
    CONCURRENCY_WINDOW_SECONDS,
    WorkloadFit,
    estimate_concurrency,
    fit_generalized_pareto,
    fit_workload_from_timestamps,
    lilliefors_exponential_distance,
)
from .generalized_pareto import GeneralizedPareto
from .heavy_tail import Lognormal, Pareto, Weibull
from .laplace import laplace_from_survival
from .phase_type import Erlang, Gamma, Hyperexponential, Uniform
from .rng import (
    DEFAULT_RNG_WINDOW,
    RandomWindow,
    RngLike,
    make_rng,
    seed_sequence,
    spawn_child,
    split_rng,
)

__all__ = [
    "CONCURRENCY_WINDOW_SECONDS",
    "DEFAULT_RNG_WINDOW",
    "Deterministic",
    "DiscreteDistribution",
    "Distribution",
    "Empirical",
    "Erlang",
    "Exponential",
    "FixedCount",
    "Gamma",
    "GeneralizedPareto",
    "Geometric",
    "Hyperexponential",
    "Lognormal",
    "Pareto",
    "RandomWindow",
    "RngLike",
    "TruncatedBinomial",
    "Uniform",
    "Weibull",
    "WorkloadFit",
    "Zipf",
    "estimate_concurrency",
    "fit_generalized_pareto",
    "fit_workload_from_timestamps",
    "laplace_from_survival",
    "lilliefors_exponential_distance",
    "make_rng",
    "require_positive",
    "require_probability",
    "require_weights",
    "seed_sequence",
    "spawn_child",
    "split_rng",
]
