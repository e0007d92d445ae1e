"""The benchmark's three workloads: inputs, one operation, output checks.

Every workload runs on "the section 5.1 cluster": 4 servers, N = 150
keys per request, muS = 80 Kps, a 20 us one-way network and a
muD = 1 Kps database. No workload sets ``burst_xi`` or
``concurrency_q``: the ``simulate`` and ``fastpath-system`` backends
ignore both fields, so a workload that set them would time a program
that drops its input.

An operation ("op") is the unit a user waits for: one ``Scenario.run``
on the engine workloads, one capacity cell's search on
``capacity-sweep``. Each op gets its own seed, derived from the
workload seed and the op index the way ``capacity.search._probe_seed``
derives probe seeds, so a run replays exactly from its seed.
"""

from __future__ import annotations

import json
import math
from typing import List, Tuple

import numpy as np

from repro.capacity import CapacityObjective, capacity_curve
from repro.experiments.scenario import Scenario
from repro.observability import Observability, RunReport, TimelineSpec

#: The section 5.1 cluster at the stable engine point: 40 Kps per
#: server (rhoS = 0.5) and r = 0.2% (rhoD = 0.32).
CLUSTER = dict(
    key_rate=40_000.0,
    n_servers=4,
    service_rate=80_000.0,
    n_keys=150,
    network_delay=20e-6,
    miss_ratio=0.002,
    database_rate=1_000.0,
)

#: Requests per engine op (plus a 10% warmup): 0.4-0.8 s of host time
#: plain and 2-3 s observed, so a run holds enough ops for a steady
#: median.
ENGINE_REQUESTS = {"full": 300, "tiny": 160}

#: Agreement between the engine's mean T(N) and a fastpath-system run
#: of the same scenario and seed. Over 80 ops of seed 754278975 at 300
#: requests the relative difference had mean 0.033 and standard
#: deviation 0.159, i.e. 0.123 at 500 requests (30 seeds at 500 gave
#: 0.098); it scales as 1/sqrt(requests). One op is too short to judge
#: alone: a database backlog skews its mean, and op 44 of that seed
#: read +0.646, past a per-op bound of five standard deviations. The
#: check therefore pools a run's ops (``check_agreement``).
AGREEMENT_SD_AT_500 = 0.125

#: Least pooled tolerance. The pooled bound shrinks as 1/sqrt(ops), so
#: a faster engine that fits more ops into a run would otherwise be held
#: to the two backends' design difference. Pooled over 80 ops the
#: difference read +1.0% (seed 1) and -2.5% (seed 2).
AGREEMENT_FLOOR = 0.05

#: Requests per timeline window on engine-observed. With windows of
#: this size the per-window Little's-law error stayed below 0.13 over
#: the same 30 seeds (8 windows each); the check allows twice that.
WINDOW_REQUESTS = 62
LITTLE_TOL = 0.25

#: capacity-sweep cells: miss ratios that move the knee and switch the
#: binding tier (the servers at 0.25%, the database above it).
MISS_RATIOS = (0.0025, 0.005, 0.01, 0.02)

#: Requests per capacity probe. Probes never escalate (``max_requests``
#: equals ``n_requests``, as ``repro capacity --max-requests`` allows):
#: with the default 8x escalation a cell's work hangs on its seed (cell
#: host time ranged 0.04-2.3 s over seeds) and the median op time of
#: five seeds spread 36%. Without it a cell runs 6-8 probes whatever
#: the seed.
PROBE_REQUESTS = {"full": 4000, "tiny": 200}
OBJECTIVE = CapacityObjective(threshold=0.020, metric="p99")


def op_seed(seed: int, index: int) -> int:
    """Per-op seed: a pure function of (workload seed, op index)."""
    seq = np.random.SeedSequence([int(seed), int(index)])
    return int(seq.generate_state(1, np.uint64)[0])


def _finite(*values: float) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class EnginePlain:
    """``Scenario.run("simulate")`` with no collectors."""

    name = "engine-plain"
    round_size = 1

    def __init__(self, seed: int, size: str = "full") -> None:
        n = ENGINE_REQUESTS[size]
        self.seed = seed
        self.base = Scenario(
            **CLUSTER, n_requests=n, warmup_requests=max(n // 10, 1)
        )
        self.keys_per_op = n * self.base.n_keys
        self.generated_keys_per_op = (n + self.base.warmup_requests) * self.base.n_keys
        #: (engine, fastpath-system) mean T(N) of every checked op.
        self.means: List[Tuple[float, float]] = []

    def scenario(self, index: int) -> Scenario:
        return self.base.replace(seed=op_seed(self.seed, index))

    def run(self, index: int):
        return self.scenario(index).run("simulate")

    def keys(self, outcome) -> int:
        return self.keys_per_op

    def check(self, index: int, outcome) -> List[str]:
        return check_engine(self.scenario(index), outcome, self.means)

    def run_check(self) -> List[str]:
        """Checks over every op of the run, after its last op."""
        return check_agreement(self.means, self.base.n_requests)


class EngineObserved(EnginePlain):
    """The engine op as ``repro simulate --trace --report`` and
    ``repro explain``/``monitor`` run it: every collector on, then the
    report, the tail attribution and the Little's-law self-check."""

    name = "engine-observed"

    @property
    def n_windows(self) -> int:
        return self.base.n_requests // WINDOW_REQUESTS

    def run(self, index: int):
        scenario = self.scenario(index)
        obs = Observability(
            trace=True,
            metrics=True,
            profile=True,
            attribution=True,
            timeline=TimelineSpec(n_windows=self.n_windows),
        )
        result = scenario.run("simulate", observability=obs)
        report = RunReport.from_simulation(
            result.raw, obs, config=scenario.to_dict()
        ).to_json()
        tail = result.attribution.tail(0.99)
        law = result.timeline.littles_law()
        return result, report, tail, law

    def check(self, index: int, outcome) -> List[str]:
        result, report, tail, law = outcome
        problems = check_engine(self.scenario(index), result, self.means)
        residuals = result.attribution.conservation_residuals()
        if residuals.size == 0 or np.any(residuals != 0.0):
            problems.append("attribution conservation residuals are not 0")
        if law["n_valid"] != self.n_windows or not (
            law["max_relative_error"] <= LITTLE_TOL
        ):
            problems.append(
                f"Little's law: {law['n_valid']} valid windows, max error "
                f"{law['max_relative_error']}"
            )
        if not _finite(*tail.shares.values()):
            problems.append("tail attribution shares are not finite")
        meta = json.loads(report)["meta"]
        if meta["requests_completed"] != self.base.n_requests:
            problems.append("report request count differs from the run")
        return problems


def check_engine(scenario: Scenario, result, means) -> List[str]:
    """Exact checks on one engine run. Appends its mean T(N) and that of
    a fastpath-system run of the same scenario to ``means``."""
    problems = []
    if result.n_requests != scenario.n_requests:
        problems.append(
            f"{result.n_requests} requests completed, "
            f"expected {scenario.n_requests}"
        )
    raw = result.raw
    total = raw.total.samples()
    server = raw.server_stage.samples()
    database = raw.database_stage.samples()
    if not (np.isfinite(total).all() and np.isfinite(server).all()
            and np.isfinite(database).all()):
        problems.append("non-finite per-request latency")
    if np.any(server > total) or np.any(database > total):
        problems.append("a stage maximum exceeds its request's T(N)")
    for stage in (result.total, result.server, result.database, result.network):
        if not _finite(stage.mean, stage.p50, stage.p99, stage.ci_low, stage.ci_high):
            problems.append("non-finite stage statistic")
            break
    means.append(
        (result.total.mean, scenario.run("fastpath-system").total.mean)
    )
    return problems


def check_agreement(means, n_requests: int) -> List[str]:
    """The engine's mean T(N), summed over a run's ops, within five
    standard deviations (at least ``AGREEMENT_FLOOR``) of the summed
    fastpath-system means."""
    if not means:
        return []
    engine = sum(m[0] for m in means)
    reference = sum(m[1] for m in means)
    relative = (engine - reference) / reference
    tolerance = max(AGREEMENT_FLOOR, 5.0 * AGREEMENT_SD_AT_500 * math.sqrt(
        500 / (n_requests * len(means))
    ))
    if not abs(relative) <= tolerance:
        return [
            f"engine mean T(N) over {len(means)} ops is {relative:+.1%} "
            f"from fastpath-system, beyond {tolerance:.1%}"
        ]
    return []


class CapacitySweep:
    """``capacity_curve(..., workers=1)`` over the miss ratio, one cell
    per op, on the fastpath-system backend ``repro capacity`` uses."""

    name = "capacity-sweep"
    round_size = len(MISS_RATIOS)
    generated_keys_per_op = 0  # no engine keys

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.base = Scenario(**CLUSTER)
        self.n_requests = PROBE_REQUESTS[size]

    def run(self, index: int):
        scenario = self.base.replace(seed=op_seed(self.seed, index))
        ratio = MISS_RATIOS[index % len(MISS_RATIOS)]
        curve = capacity_curve(
            scenario,
            OBJECTIVE,
            "r",
            [ratio],
            workers=1,
            n_requests=self.n_requests,
            max_requests=self.n_requests,
        )
        return curve.suite.cells[0]

    def keys(self, cell) -> int:
        """Recorded keys over every probe of the cell's search."""
        if cell.capacity is None:
            return 0
        return sum(p.n_requests for p in cell.capacity.probes) * self.base.n_keys

    def check(self, index: int, cell) -> List[str]:
        if cell.error is not None or cell.capacity is None:
            return [f"capacity cell failed: {cell.error}"]
        capacity = cell.capacity
        problems = []
        if not 0.0 < capacity.max_rps < capacity.bracket.stability_rps:
            problems.append(
                f"max_rps {capacity.max_rps} outside (0, "
                f"{capacity.bracket.stability_rps})"
            )
        if not any(
            probe.passed and probe.rps == capacity.max_rps
            for probe in capacity.probes
        ):
            problems.append("no passing probe at max_rps")
        if not all(
            _finite(p.value, p.ci_low, p.ci_high) for p in capacity.probes
        ):
            problems.append("non-finite probe measurement")
        return problems

    def run_check(self) -> List[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (EnginePlain, EngineObserved, CapacitySweep)}
