"""Declarative experiment subsystem: Scenario -> Grid/Suite -> Runner.

Quickstart::

    from repro.experiments import Scenario, Grid, Suite, run_suite

    base = Scenario.paper_section_5_1()
    suite = Suite(
        "tail-vs-n",
        Grid(base, {"n": [10, 50, 150], "q": [0.0, 0.1]}, seeds=3),
        backend="fastpath",
    )
    result = run_suite(suite, workers=8, checkpoint_dir="runs/tail-vs-n")
    print(result.aggregate("p99"))

Results are bit-identical for any worker count, and an interrupted run
resumes with ``resume=True`` against the same checkpoint directory.
"""

from .factors import Factor, factor_names, get_factor, register_factor
from .grid import Cell, Grid, Suite, sweep_suite
from .options import (
    BackendOption,
    backend_options,
    options_from_args,
    validate_options,
)
from .runner import CellResult, ExperimentRunner, SuiteResult, run_suite
from .scenario import BACKENDS, DEFAULT_POOL_SIZE, Scenario, cell_metrics

__all__ = [
    "BACKENDS",
    "BackendOption",
    "DEFAULT_POOL_SIZE",
    "Cell",
    "CellResult",
    "ExperimentRunner",
    "Factor",
    "Grid",
    "Scenario",
    "Suite",
    "SuiteResult",
    "backend_options",
    "cell_metrics",
    "factor_names",
    "get_factor",
    "options_from_args",
    "register_factor",
    "run_suite",
    "sweep_suite",
    "validate_options",
]
