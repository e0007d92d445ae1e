"""Discrete-event and vectorized simulators (the testbed substitute).

* :class:`Simulator` — the event engine.
* :class:`MemcachedSystemSimulator` — closed-loop request -> keys ->
  servers -> (miss) -> database -> join.
* :mod:`repro.simulation.fastpath` — vectorized GI^X/M/1 Lindley
  simulation for the paper's validation sweeps.
"""

from .arrivals import Batch, BatchArrivalProcess, TimeVaryingPoissonProcess
from .database import DatabaseSim
from .engine import EventHandle, Simulator
from .fastpath import (
    RequestSample,
    expected_max_from_pool,
    expected_max_from_pools,
    lindley_waits,
    sample_request_latencies,
    simulate_batch_times,
    simulate_key_latencies,
    simulate_server_stage_mean,
)
from .fastpath_system import simulate_system_requests
from .metrics import LatencyRecorder, SummaryStats, UtilizationMeter
from .network import NetworkSim
from .results import SimulationResult, StageStats, SystemResults
from .server import ServerSim
from .system import CacheBackend, MemcachedSystemSimulator

__all__ = [
    "Batch",
    "BatchArrivalProcess",
    "CacheBackend",
    "DatabaseSim",
    "EventHandle",
    "LatencyRecorder",
    "MemcachedSystemSimulator",
    "NetworkSim",
    "RequestSample",
    "ServerSim",
    "SimulationResult",
    "Simulator",
    "StageStats",
    "SummaryStats",
    "SystemResults",
    "TimeVaryingPoissonProcess",
    "UtilizationMeter",
    "expected_max_from_pool",
    "expected_max_from_pools",
    "lindley_waits",
    "sample_request_latencies",
    "simulate_batch_times",
    "simulate_key_latencies",
    "simulate_server_stage_mean",
    "simulate_system_requests",
]
