"""Experiment configurations: one JSON-serializable object per setup.

The paper's §5 is a grid of configurations (workload shape, cluster,
keys per request, miss ratio...). :class:`ExperimentConfig` captures one
point of that grid, round-trips through JSON (so experiment definitions
can live in files and version control), and builds the analytic model
or the closed-loop simulator from the same source of truth.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .core import ClusterModel, LatencyModel, WorkloadPattern
from .core.stages import DatabaseStage, NetworkStage, ServerStage
from .core.tail import TailLatencyModel
from .errors import ConfigError
from .faults import FaultSchedule
from .policies import RequestPolicy
from .simulation import MemcachedSystemSimulator


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified Memcached latency experiment.

    Rates are in keys/second, times in seconds — the library's internal
    units — so a config is unambiguous independent of display units.
    """

    # Workload shape (per-server when shares are balanced/omitted).
    key_rate: float
    burst_xi: float = 0.0
    concurrency_q: float = 0.0
    # Cluster.
    n_servers: int = 1
    service_rate: float = 80_000.0
    shares: Optional[List[float]] = None
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
    # Fault schedule / request policy, stored as their JSON payloads so
    # config files stay plain data. ``None`` (the default for every
    # pre-fault config) is the fault-free, policy-free system.
    faults: Optional[Dict[str, object]] = None
    policy: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        # Validate eagerly so a bad JSON file fails at load, not at use.
        if self.faults is not None:
            FaultSchedule.from_dict(self.faults)
        if self.policy is not None:
            RequestPolicy.from_dict(self.policy)

    # ------------------------------------------------------------------
    # Derived builders.
    # ------------------------------------------------------------------

    def fault_schedule(self) -> Optional[FaultSchedule]:
        """The parsed fault schedule (None when fault-free)."""
        return FaultSchedule.from_dict(self.faults) if self.faults else None

    def request_policy(self) -> Optional[RequestPolicy]:
        """The parsed request policy (None when policy-free)."""
        return RequestPolicy.from_dict(self.policy) if self.policy else None

    def workload(self) -> WorkloadPattern:
        """The per-server workload pattern."""
        return WorkloadPattern(
            rate=self.key_rate, xi=self.burst_xi, q=self.concurrency_q
        )

    def cluster(self) -> ClusterModel:
        """The cluster model (balanced unless shares are given)."""
        if self.shares is not None:
            if len(self.shares) != self.n_servers:
                raise ConfigError(
                    f"shares has {len(self.shares)} entries for "
                    f"{self.n_servers} servers"
                )
            return ClusterModel(self.shares, self.service_rate)
        return ClusterModel.balanced(self.n_servers, self.service_rate)

    def total_key_rate(self) -> float:
        """Aggregate key rate across the cluster."""
        return self.key_rate * self.n_servers

    def latency_model(self) -> LatencyModel:
        """Theorem 1 model for this configuration."""
        cluster = self.cluster()
        if cluster.is_balanced and self.shares is None:
            return LatencyModel.build(
                workload=self.workload(),
                service_rate=self.service_rate,
                network_delay=self.network_delay,
                database_rate=self.database_rate,
                miss_ratio=self.miss_ratio,
            )
        return LatencyModel.build(
            workload=self.workload(),
            service_rate=self.service_rate,
            network_delay=self.network_delay,
            database_rate=self.database_rate,
            miss_ratio=self.miss_ratio,
            cluster=cluster,
            total_key_rate=self.total_key_rate(),
        )

    def tail_model(self) -> TailLatencyModel:
        """Percentile-level model for this configuration."""
        cluster = self.cluster()
        stage = ServerStage.from_cluster(
            cluster, self.total_key_rate(), self.workload()
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

    def simulator(
        self,
        observability=None,
        *,
        keep_request_log: bool = False,
    ) -> MemcachedSystemSimulator:
        """Closed-loop simulator for this configuration.

        The request rate is chosen so the induced per-server key rate
        equals ``key_rate``. Pass an
        :class:`~repro.observability.Observability` bundle to collect
        traces/metrics/profiles for the run; ``keep_request_log=True``
        records per-request completions for transient analysis.
        """
        request_rate = self.total_key_rate() / self.n_keys
        return MemcachedSystemSimulator(
            self.cluster(),
            n_keys_per_request=self.n_keys,
            request_rate=request_rate,
            network_delay=self.network_delay,
            miss_ratio=self.miss_ratio,
            database_rate=self.database_rate,
            seed=self.seed,
            observability=observability,
            faults=self.fault_schedule(),
            policy=self.request_policy(),
            keep_request_log=keep_request_log,
        )

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a JSON string produced by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config JSON must be an object")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"incomplete config: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        """Write the config to a JSON file."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentConfig":
        """Read a config from a JSON file."""
        return cls.from_json(Path(path).read_text())

    @classmethod
    def paper_section_5_1(cls) -> "ExperimentConfig":
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
