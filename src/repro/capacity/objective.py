"""The capacity search's SLO predicate: one metric, one threshold, a CI.

A :class:`CapacityObjective` names the derived series the search bounds
(a latency quantile, the mean, an error-budget burn rate, or a stage
utilization — the same vocabulary as :class:`~repro.observability.slo`)
and knows how to *measure* it from a :class:`Timeline` with an
uncertainty interval, so the bisection can distinguish "this load
passes", "this load fails" and "this run is too noisy to tell" (the
trigger for adaptive request-count escalation near the knee).

Point estimates come from the merged run-level histogram; the interval
is the *wider* of two constructions:

* the iid interval — order-statistic rank interval
  ``q ± z·sqrt(q(1-q)/n)`` mapped through the histogram's quantile
  function for quantiles, ``± z·s/sqrt(n)`` for the mean, an
  Agresti-Coull binomial interval on the bad fraction for the burn
  rate;
* the batch-means interval — the same statistic computed per window,
  with a t-interval on the window series. Queue latencies are
  autocorrelated (congestion arrives in cycles), so near the knee the
  iid interval is too narrow; batch means over the timeline's windows
  capture that run-to-run variance, which is exactly what the
  bisection's escalation logic must react to.

Utilization is a deterministic ratio of accumulated busy time — no
sampling interval, always decisive.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, Optional

import numpy as np
from scipy import special

from ..errors import ConfigError, ValidationError
from ..observability.slo import BurnRateRule, SLORule
from ..observability.timeline import Timeline
from ..simulation.metrics import _t_quantile

__all__ = ["CapacityObjective", "Measurement"]

#: Merged-histogram latency metrics the objective can bound.
_LATENCY_METRICS = ("p50", "p95", "p99", "mean")


@functools.lru_cache(maxsize=64)
def _z_quantile(level: float) -> float:
    """Standard normal quantile, memoized: every probe of a search asks
    for the one its confidence level gives. ``special.ndtri`` is the
    kernel ``stats.norm.ppf`` calls."""
    return float(special.ndtri(level))


@dataclasses.dataclass(frozen=True)
class Measurement:
    """One CI-aware reading of an objective's metric."""

    value: float
    ci_low: float
    ci_high: float
    n: int

    def to_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CapacityObjective:
    """An SLO the capacity search holds the system to.

    ``threshold`` is in the metric's own units: seconds for the latency
    metrics, a busy fraction for ``utilization:<stage>``, and a burn
    *factor* for ``burn_rate`` (where ``latency_threshold`` defines a
    bad request and ``objective`` the attainment target, exactly like
    :class:`~repro.observability.slo.BurnRateRule`).
    """

    threshold: float
    metric: str = "p99"
    latency_threshold: Optional[float] = None
    objective: float = 0.99
    confidence: float = 0.95
    min_count: int = 5

    def __post_init__(self) -> None:
        if self.threshold <= 0.0:
            raise ValidationError(
                f"threshold must be > 0, got {self.threshold}"
            )
        base, _, stage = self.metric.partition(":")
        if stage:
            if base != "utilization":
                raise ValidationError(
                    f"unknown stage metric {base!r} (only "
                    "'utilization:<stage>' is supported)"
                )
        elif base not in _LATENCY_METRICS + ("burn_rate",):
            raise ValidationError(
                f"unknown capacity metric {base!r} "
                f"(have {list(_LATENCY_METRICS)}, 'burn_rate', "
                "or 'utilization:<stage>')"
            )
        if base == "burn_rate":
            if self.latency_threshold is None or self.latency_threshold <= 0:
                raise ValidationError(
                    "burn_rate objectives need a latency_threshold > 0"
                )
            if not 0.0 < self.objective < 1.0:
                raise ValidationError(
                    f"objective must be in (0, 1), got {self.objective}"
                )
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.min_count < 1:
            raise ValidationError(
                f"min_count must be >= 1, got {self.min_count}"
            )

    # ------------------------------------------------------------------

    @property
    def is_latency(self) -> bool:
        return self.metric in _LATENCY_METRICS

    def describe(self) -> str:
        return f"{self.metric} <= {self.threshold:g}"

    def rule(self):
        """The windowed SLO rule this objective corresponds to.

        Used for the per-probe alert/attainment telemetry — the
        bisection's pass/fail decision itself runs on :meth:`measure`'s
        run-level CI, not on per-window alerts.
        """
        if self.metric == "burn_rate":
            return BurnRateRule(
                name="capacity",
                latency_threshold=float(self.latency_threshold),
                objective=self.objective,
                factor=self.threshold,
                min_count=self.min_count,
            )
        return SLORule(
            name="capacity",
            metric=self.metric,
            threshold=self.threshold,
            min_count=self.min_count,
        )

    # ------------------------------------------------------------------

    def _window_series(self, timeline: Timeline) -> np.ndarray:
        """The statistic per window (batch means; filtered to windows
        with at least ``min_count`` completions)."""
        if self.metric == "mean":
            series = timeline.mean_latency()
        elif self.metric == "burn_rate":
            series = timeline.bad_fraction(self.latency_threshold) / (
                1.0 - self.objective
            )
        else:
            series = timeline.quantile_series(
                float(self.metric[1:]) / 100.0
            )
        series = np.where(
            timeline.completions >= self.min_count, series, math.nan
        )
        return series[np.isfinite(series)]

    def _batch_half_width(self, timeline: Timeline) -> float:
        """t-interval half-width of the per-window statistic's mean."""
        batches = self._window_series(timeline)
        if batches.size < 8:
            return 0.0  # too few windows: fall back to the iid interval
        t = _t_quantile(0.5 * (1.0 + self.confidence), batches.size - 1)
        return t * float(batches.std(ddof=1)) / math.sqrt(batches.size)

    def measure(self, timeline: Timeline) -> Measurement:
        """Read the metric and its confidence interval from a timeline."""
        z = _z_quantile(0.5 * (1.0 + self.confidence))
        base, _, stage = self.metric.partition(":")
        if stage:
            series = timeline.utilization(stage)
            finite = series[np.isfinite(series)]
            if finite.size == 0:
                raise ValidationError(
                    f"timeline has no finite {self.metric} windows"
                )
            value = float(finite.mean())
            return Measurement(value, value, value, int(finite.size))
        hist = timeline.overall_latency()
        n = int(hist.count)
        if n == 0:
            raise ValidationError("timeline recorded no completed requests")
        if base == "mean":
            value = float(hist.mean)
            half = z * float(hist.std) / math.sqrt(n)
            lo, hi = value - half, value + half
        elif base == "burn_rate":
            budget = 1.0 - self.objective
            bad = min(float(hist.count_above(self.latency_threshold)), n)
            # Agresti-Coull: the interval stays informative at 0 bad
            # requests instead of collapsing to a zero-width CI.
            center = (bad + 0.5 * z * z) / (n + z * z)
            half = z * math.sqrt(
                max(center * (1.0 - center), 0.0) / (n + z * z)
            )
            value = (bad / n) / budget
            lo = max(center - half, 0.0) / budget
            hi = min(center + half, 1.0) / budget
        else:
            level = float(base[1:]) / 100.0
            se = math.sqrt(level * (1.0 - level) / n)
            value = float(hist.quantile(level))
            lo = float(hist.quantile(max(level - z * se, 0.0)))
            hi = float(hist.quantile(min(level + z * se, 1.0)))
        batch_half = self._batch_half_width(timeline)
        lo = min(lo, value - batch_half)
        hi = max(hi, value + batch_half)
        return Measurement(value, lo, hi, n)

    def decide(self, measurement: Measurement) -> str:
        """``"pass"`` / ``"fail"`` when the CI clears the threshold,
        ``"indeterminate"`` when the threshold lies inside it."""
        if measurement.ci_high <= self.threshold:
            return "pass"
        if measurement.ci_low > self.threshold:
            return "fail"
        return "indeterminate"

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "metric": self.metric,
            "latency_threshold": self.latency_threshold,
            "objective": self.objective,
            "confidence": self.confidence,
            "min_count": self.min_count,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CapacityObjective":
        if not isinstance(payload, dict):
            raise ConfigError("capacity objective must be a JSON object")
        try:
            return cls(
                threshold=float(payload["threshold"]),
                metric=str(payload.get("metric", "p99")),
                latency_threshold=(
                    float(payload["latency_threshold"])
                    if payload.get("latency_threshold") is not None
                    else None
                ),
                objective=float(payload.get("objective", 0.99)),
                confidence=float(payload.get("confidence", 0.95)),
                min_count=int(payload.get("min_count", 5)),
            )
        except KeyError as exc:
            raise ConfigError(
                f"capacity objective missing key: {exc}"
            ) from exc
