"""Staged bisection for "max RPS at SLO" (the inverse latency question).

The paper models latency as a function of load; operators ask the
inverse: the largest request rate whose latency still meets an SLO.
:func:`find_capacity` answers it in three stages:

1. **Analytic bracket** — Proposition 2's cliff utilization
   ``rhoS(xi)`` depends only on the burst degree, so the hottest
   server's cliff arrival rate ``rhoS(xi) * muS / p1`` converts to an
   RPS anchor without running anything; the Theorem 1 / tail-model
   upper bounds from the ``estimate`` backend refine it into a bracket
   ``[lo, hi]`` with ``hi`` just under the hard stability limit
   (whichever binds first: the servers or the database,
   ``muD / miss_ratio``).
2. **CI-aware bisection** — each probe runs the ``fastpath-system``
   backend (or any simulation backend) at a trial RPS via
   :meth:`Scenario.replace`, measures the objective with a confidence
   interval, and only accepts a verdict the CI supports; an
   indeterminate probe doubles its request count (up to
   ``max_requests``) — sampling effort concentrates exactly at the
   knee, where it is needed.
3. **Engine spot-check** (optional) — ``spot_replicates`` independent
   event-engine runs at the found knee, pooled into an
   across-replicate t-interval (near the knee, run-to-run seed
   variance dominates any within-run interval, so a single replicate
   would test the seed, not the backend); the result agrees when that
   interval overlaps the knee probe's confidence interval.

The artifact (:class:`CapacityResult`) is versioned and
provenance-stamped like every other JSON/CSV output, carries the full
per-probe trace, and rides through experiment checkpoints (see
:mod:`repro.capacity.curve`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigError, StabilityError, ValidationError
from ..experiments.scenario import Scenario
from ..observability.report import json_dumps, provenance, provenance_comment
from ..observability.slo import SLOMonitor
from ..queueing.cliff import cliff_key_rate, cliff_utilization
from ..simulation.metrics import _t_quantile
from .objective import CapacityObjective

__all__ = [
    "AnalyticBracket",
    "CapacityProbe",
    "CapacityResult",
    "analytic_bracket",
    "find_capacity",
]

RESULT_KIND = "repro-capacity"
RESULT_VERSION = 1

#: Backends the bisection can probe (they produce latency timelines).
PROBE_BACKENDS = ("simulate", "fastpath", "fastpath-system")


@dataclasses.dataclass(frozen=True)
class AnalyticBracket:
    """Stage-1 output: the analytic anchors and the search bracket.

    All rates are end-user requests per second. ``binding`` names the
    resource whose stability limit binds first ("server" or
    "database") — at the paper's baseline miss ratio the database
    saturates *before* the servers reach their Proposition 2 cliff.
    """

    cliff_rho: float
    cliff_rps: float
    stability_rps: float
    binding: str
    analytic_knee_rps: Optional[float]
    lo: float
    hi: float

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AnalyticBracket":
        try:
            return cls(
                cliff_rho=float(payload["cliff_rho"]),
                cliff_rps=float(payload["cliff_rps"]),
                stability_rps=float(payload["stability_rps"]),
                binding=str(payload["binding"]),
                analytic_knee_rps=(
                    float(payload["analytic_knee_rps"])
                    if payload.get("analytic_knee_rps") is not None
                    else None
                ),
                lo=float(payload["lo"]),
                hi=float(payload["hi"]),
            )
        except KeyError as exc:
            raise ConfigError(f"analytic bracket missing key: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class CapacityProbe:
    """One load point the search evaluated, with its CI and verdict.

    ``decisive`` records whether the confidence interval cleared the
    threshold; a non-decisive probe exhausted ``max_requests`` still
    straddling it and fell back to the point estimate.
    """

    index: int
    rps: float
    backend: str
    n_requests: int
    seed: int
    value: float
    ci_low: float
    ci_high: float
    status: str
    decisive: bool
    escalations: int
    attainment: Optional[float]
    n_alerts: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CapacityProbe":
        try:
            return cls(
                index=int(payload["index"]),
                rps=float(payload["rps"]),
                backend=str(payload["backend"]),
                n_requests=int(payload["n_requests"]),
                seed=int(payload["seed"]),
                value=float(payload["value"]),
                ci_low=float(payload["ci_low"]),
                ci_high=float(payload["ci_high"]),
                status=str(payload["status"]),
                decisive=bool(payload["decisive"]),
                escalations=int(payload["escalations"]),
                attainment=(
                    float(payload["attainment"])
                    if payload.get("attainment") is not None
                    else None
                ),
                n_alerts=int(payload["n_alerts"]),
            )
        except KeyError as exc:
            raise ConfigError(f"capacity probe missing key: {exc}") from exc


# ----------------------------------------------------------------------
# Stage 1: the analytic bracket.
# ----------------------------------------------------------------------


def _rps_to_key_rate(scenario: Scenario, rps: float) -> float:
    """Per-server key rate that drives the scenario at ``rps`` requests/s."""
    return rps * scenario.n_keys / scenario.n_servers


def _analytic_upper(scenario: Scenario, objective: CapacityObjective) -> float:
    """The estimate backend's upper bound on the objective's metric."""
    if objective.metric == "mean":
        return float(scenario.estimate().total_upper)
    level = float(objective.metric[1:]) / 100.0
    return float(
        scenario.tail_model().request_quantile_bounds(
            level, scenario.n_keys
        ).upper
    )


def _analytic_knee(
    base: Scenario, objective: CapacityObjective, hi_rps: float
) -> Optional[float]:
    """Largest RPS whose *analytic upper bound* still meets the SLO.

    Conservative by construction (it bounds the metric from above), so
    it makes a trustworthy lower bracket for the bisection. ``None``
    for burn-rate and utilization objectives — Theorem 1 has no model
    for those.
    """
    if not objective.is_latency and objective.metric != "mean":
        return None

    def passes(rps: float) -> bool:
        derived = base.replace(key_rate=_rps_to_key_rate(base, rps))
        try:
            return _analytic_upper(derived, objective) <= objective.threshold
        except StabilityError:
            return False

    lo = hi_rps * 1e-3
    if not passes(lo):
        return lo
    if passes(hi_rps):
        return hi_rps
    hi = hi_rps
    for _ in range(40):
        if (hi - lo) <= 1e-3 * hi:
            break
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def analytic_bracket(
    scenario: Scenario,
    objective: CapacityObjective,
    *,
    method: str = "relative-slope",
) -> AnalyticBracket:
    """Bracket the knee from Proposition 2 + the estimate backend.

    Faults and policies are stripped first: the bracket is the
    fault-free analytic prediction; the simulation probes run the
    scenario as given.
    """
    base = scenario.replace(faults=None, policy=None)
    max_share = max(base.cluster().shares)
    rho = cliff_utilization(base.burst_xi, method=method)
    cliff_total_keys = (
        cliff_key_rate(base.burst_xi, base.service_rate, method=method)
        / max_share
    )
    cliff_rps = cliff_total_keys / base.n_keys
    server_stability = base.service_rate / max_share
    if base.miss_ratio > 0.0 and base.database_rate:
        db_stability = base.database_rate / base.miss_ratio
    else:
        db_stability = math.inf
    binding = "database" if db_stability < server_stability else "server"
    stability_rps = min(server_stability, db_stability) / base.n_keys
    hi = 0.98 * stability_rps
    knee = _analytic_knee(base, objective, hi)
    if knee is not None:
        lo = min(knee, cliff_rps)
    else:
        lo = 0.25 * min(cliff_rps, hi)
    lo = min(lo, 0.9 * hi)
    return AnalyticBracket(
        cliff_rho=rho,
        cliff_rps=cliff_rps,
        stability_rps=stability_rps,
        binding=binding,
        analytic_knee_rps=knee,
        lo=lo,
        hi=hi,
    )


# ----------------------------------------------------------------------
# Stages 2-3: CI-aware bisection + spot-check.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class CapacityResult:
    """The capacity search's versioned, provenance-stamped artifact."""

    scenario: Scenario
    objective: CapacityObjective
    backend: str
    method: str
    rel_tol: float
    max_rps: float
    fail_rps: Optional[float]
    capped: bool
    below_cliff: bool
    bracket: AnalyticBracket
    probes: List[CapacityProbe]
    spot_check: Optional[Dict[str, object]] = None
    elapsed: float = dataclasses.field(default=0.0, compare=False)

    @property
    def n_probes(self) -> int:
        return len(self.probes)

    @property
    def agrees(self) -> Optional[bool]:
        """Spot-check agreement (``None`` when no spot-check ran)."""
        if self.spot_check is None:
            return None
        return bool(self.spot_check["agrees"])

    def to_dict(self) -> Dict[str, object]:
        spot = None
        if self.spot_check is not None:
            spot = {
                "probes": [
                    probe.to_dict() for probe in self.spot_check["probes"]
                ],
                "value": float(self.spot_check["value"]),
                "ci_low": float(self.spot_check["ci_low"]),
                "ci_high": float(self.spot_check["ci_high"]),
                "agrees": bool(self.spot_check["agrees"]),
            }
        return {
            "kind": RESULT_KIND,
            "version": RESULT_VERSION,
            "scenario": self.scenario.to_dict(),
            "objective": self.objective.to_dict(),
            "backend": self.backend,
            "method": self.method,
            "rel_tol": self.rel_tol,
            "max_rps": self.max_rps,
            "fail_rps": self.fail_rps,
            "capped": self.capped,
            "below_cliff": self.below_cliff,
            "analytic": self.bracket.to_dict(),
            "probes": [probe.to_dict() for probe in self.probes],
            "n_probes": self.n_probes,
            "spot_check": spot,
            "elapsed": self.elapsed,
            "provenance": provenance(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CapacityResult":
        if not isinstance(payload, dict) or payload.get("kind") != RESULT_KIND:
            raise ConfigError("not a capacity result")
        spot = None
        if payload.get("spot_check") is not None:
            raw = payload["spot_check"]
            spot = {
                "probes": [
                    CapacityProbe.from_dict(p) for p in raw["probes"]
                ],
                "value": float(raw["value"]),
                "ci_low": float(raw["ci_low"]),
                "ci_high": float(raw["ci_high"]),
                "agrees": bool(raw["agrees"]),
            }
        try:
            return cls(
                scenario=Scenario.from_dict(payload["scenario"]),
                objective=CapacityObjective.from_dict(payload["objective"]),
                backend=str(payload["backend"]),
                method=str(payload["method"]),
                rel_tol=float(payload["rel_tol"]),
                max_rps=float(payload["max_rps"]),
                fail_rps=(
                    float(payload["fail_rps"])
                    if payload.get("fail_rps") is not None
                    else None
                ),
                capped=bool(payload["capped"]),
                below_cliff=bool(payload["below_cliff"]),
                bracket=AnalyticBracket.from_dict(payload["analytic"]),
                probes=[
                    CapacityProbe.from_dict(p) for p in payload["probes"]
                ],
                spot_check=spot,
                elapsed=float(payload.get("elapsed", 0.0)),
            )
        except KeyError as exc:
            raise ConfigError(f"capacity result missing key: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json_dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CapacityResult":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"cannot read capacity result {path}: {exc}"
            ) from exc
        return cls.from_dict(payload)

    def to_csv(self) -> str:
        """The per-probe trace as provenance-stamped CSV."""
        lines = [
            provenance_comment(),
            f"# max_rps={self.max_rps:.6g} objective={self.objective.describe()}"
            f" backend={self.backend}",
            "index,rps,backend,n_requests,value,ci_low,ci_high,status,"
            "decisive,escalations,n_alerts",
        ]
        trace = list(self.probes)
        if self.spot_check is not None:
            trace.extend(self.spot_check["probes"])
        for p in trace:
            lines.append(
                f"{p.index},{p.rps:.6g},{p.backend},{p.n_requests},"
                f"{p.value:.6g},{p.ci_low:.6g},{p.ci_high:.6g},{p.status},"
                f"{int(p.decisive)},{p.escalations},{p.n_alerts}"
            )
        return "\n".join(lines) + "\n"


def _probe_seed(scenario: Scenario, probe_index: int) -> int:
    """Deterministic per-probe seed: a pure function of (suite seed,
    probe index), so re-running a search replays bit-identically."""
    seq = np.random.SeedSequence([int(scenario.seed), int(probe_index)])
    return int(seq.generate_state(1, np.uint64)[0])


class _Prober:
    """Runs probes with CI-driven request-count escalation."""

    def __init__(
        self,
        scenario: Scenario,
        objective: CapacityObjective,
        *,
        base_requests: int,
        max_requests: int,
        windows: int,
    ) -> None:
        self.scenario = scenario
        self.objective = objective
        self.base_requests = base_requests
        self.max_requests = max_requests
        self.windows = windows
        self.probes: List[CapacityProbe] = []
        self.monitor = SLOMonitor([objective.rule()])

    def __call__(self, rps: float, backend: str) -> CapacityProbe:
        n = self.base_requests
        escalations = 0
        seed = _probe_seed(self.scenario, len(self.probes))
        while True:
            derived = self.scenario.replace(
                key_rate=_rps_to_key_rate(self.scenario, rps),
                seed=seed,
                n_requests=n,
                warmup_requests=max(n // 10, 1),
            )
            timeline = derived.timeline(backend, n_windows=self.windows)
            measurement = self.objective.measure(timeline)
            verdict = self.objective.decide(measurement)
            if verdict != "indeterminate" or n * 2 > self.max_requests:
                break
            n *= 2
            escalations += 1
        decisive = verdict != "indeterminate"
        passed = (
            verdict == "pass"
            if decisive
            else measurement.value <= self.objective.threshold
        )
        report = self.monitor.evaluate(timeline)
        attainment = report.attainment.get("capacity", math.nan)
        probe = CapacityProbe(
            index=len(self.probes),
            rps=float(rps),
            backend=backend,
            n_requests=n,
            seed=seed,
            value=measurement.value,
            ci_low=measurement.ci_low,
            ci_high=measurement.ci_high,
            status="pass" if passed else "fail",
            decisive=decisive,
            escalations=escalations,
            attainment=(
                float(attainment) if math.isfinite(attainment) else None
            ),
            n_alerts=len(report.alerts),
        )
        self.probes.append(probe)
        return probe


def find_capacity(
    scenario: Scenario,
    objective: CapacityObjective,
    *,
    backend: str = "fastpath-system",
    method: str = "relative-slope",
    rel_tol: float = 0.02,
    max_probes: int = 32,
    n_requests: Optional[int] = None,
    max_requests: Optional[int] = None,
    windows: int = 24,
    spot_check: bool = False,
    spot_backend: str = "simulate",
    spot_replicates: int = 3,
) -> CapacityResult:
    """Max sustainable RPS at the objective, by staged bisection.

    ``n_requests`` is the per-probe starting budget (defaults to the
    scenario's); an indeterminate probe doubles it up to
    ``max_requests`` (default ``8 x`` the base). The search stops when
    the pass/fail bracket is within ``rel_tol`` (relative) or after
    ``max_probes`` probes, and reports the last *passing* rate as
    ``max_rps``. ``capped`` means even the near-stability high anchor
    passed (the SLO never binds below saturation) and ``fail_rps`` is
    then ``None``.
    """
    if backend not in PROBE_BACKENDS:
        raise ConfigError(
            f"capacity probes need a simulation backend "
            f"(have {PROBE_BACKENDS}), got {backend!r}"
        )
    if spot_backend not in PROBE_BACKENDS:
        raise ConfigError(
            f"spot-check backend must be one of {PROBE_BACKENDS}, "
            f"got {spot_backend!r}"
        )
    if spot_replicates < 1:
        raise ValidationError(
            f"spot_replicates must be >= 1, got {spot_replicates}"
        )
    if not 0.0 < rel_tol < 1.0:
        raise ValidationError(f"rel_tol must be in (0, 1), got {rel_tol}")
    if max_probes < 3:
        raise ValidationError(f"max_probes must be >= 3, got {max_probes}")
    started = time.perf_counter()
    base_requests = int(n_requests or scenario.n_requests)
    if base_requests < 10:
        raise ValidationError(
            f"n_requests must be >= 10, got {base_requests}"
        )
    max_req = int(max_requests or 8 * base_requests)
    if max_req < base_requests:
        raise ValidationError(
            f"max_requests ({max_req}) must be >= n_requests "
            f"({base_requests})"
        )
    bracket = analytic_bracket(scenario, objective, method=method)
    probe = _Prober(
        scenario,
        objective,
        base_requests=base_requests,
        max_requests=max_req,
        windows=windows,
    )

    lo, hi = bracket.lo, bracket.hi
    floor = bracket.hi * 1e-4
    capped = False
    knee_probe: Optional[CapacityProbe] = None

    # Walk the low anchor down until it actually passes.
    result = probe(lo, backend)
    while not result.passed and lo > floor and len(probe.probes) < max_probes:
        hi = lo
        lo *= 0.5
        result = probe(lo, backend)
    if not result.passed:
        max_rps: float = 0.0
        fail_rps: Optional[float] = lo
    else:
        knee_probe = result
        if hi == bracket.hi:
            # The high anchor has not been probed yet — confirm it fails.
            result = probe(hi, backend)
            if result.passed:
                capped = True
                lo, knee_probe = hi, result
        while (
            not capped
            and (hi - lo) > rel_tol * hi
            and len(probe.probes) < max_probes
        ):
            mid = 0.5 * (lo + hi)
            result = probe(mid, backend)
            if result.passed:
                lo, knee_probe = mid, result
            else:
                hi = mid
        max_rps = lo
        fail_rps = None if capped else hi

    spot: Optional[Dict[str, object]] = None
    if spot_check and knee_probe is not None:
        reps = [probe(max_rps, spot_backend) for _ in range(spot_replicates)]
        del probe.probes[-len(reps):]  # reported under spot_check, not probes
        values = [rep.value for rep in reps]
        spot_value = sum(values) / len(values)
        if len(values) >= 2:
            sd = float(np.std(values, ddof=1))
            t = _t_quantile(0.5 * (1.0 + objective.confidence), len(values) - 1)
            half = t * sd / math.sqrt(len(values))
            spot_lo, spot_hi = spot_value - half, spot_value + half
        else:
            spot_lo, spot_hi = reps[0].ci_low, reps[0].ci_high
        agrees = (
            spot_lo <= knee_probe.ci_high and knee_probe.ci_low <= spot_hi
        )
        spot = {
            "probes": reps,
            "value": spot_value,
            "ci_low": spot_lo,
            "ci_high": spot_hi,
            "agrees": agrees,
        }

    return CapacityResult(
        scenario=scenario,
        objective=objective,
        backend=backend,
        method=method,
        rel_tol=rel_tol,
        max_rps=max_rps,
        fail_rps=fail_rps,
        capped=capped,
        below_cliff=max_rps < bracket.cliff_rps,
        bracket=bracket,
        probes=probe.probes,
        spot_check=spot,
        elapsed=time.perf_counter() - started,
    )
