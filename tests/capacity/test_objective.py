"""CapacityObjective: validation, CI-aware measurement, tri-state verdicts."""

import math

import pytest

from repro.capacity import CapacityObjective, Measurement
from repro.errors import ConfigError, ValidationError
from repro.experiments import Scenario
from repro.observability.slo import BurnRateRule, SLORule
from repro.units import kps, msec, usec


def small_scenario(**overrides):
    base = dict(
        key_rate=kps(10),
        burst_xi=0.15,
        concurrency_q=0.1,
        service_rate=kps(80),
        n_keys=10,
        network_delay=usec(20),
        miss_ratio=0.01,
        database_rate=1 / msec(1),
        seed=7,
        n_requests=600,
        warmup_requests=60,
    )
    base.update(overrides)
    return Scenario(**base)


class TestValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValidationError):
            CapacityObjective(0.0)
        with pytest.raises(ValidationError):
            CapacityObjective(-1.0)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError):
            CapacityObjective(usec(100), metric="p42.5x")

    def test_unknown_stage_prefix_rejected(self):
        with pytest.raises(ValidationError):
            CapacityObjective(0.5, metric="saturation:server-0")

    def test_burn_rate_needs_latency_threshold(self):
        with pytest.raises(ValidationError):
            CapacityObjective(1.0, metric="burn_rate")
        with pytest.raises(ValidationError):
            CapacityObjective(
                1.0,
                metric="burn_rate",
                latency_threshold=usec(100),
                objective=1.5,
            )

    def test_confidence_and_min_count_bounds(self):
        with pytest.raises(ValidationError):
            CapacityObjective(usec(100), confidence=1.0)
        with pytest.raises(ValidationError):
            CapacityObjective(usec(100), min_count=0)

    def test_utilization_metric_accepted(self):
        objective = CapacityObjective(0.7, metric="utilization:server-0")
        assert not objective.is_latency
        assert objective.describe() == "utilization:server-0 <= 0.7"


class TestRuleMapping:
    def test_latency_metric_maps_to_slo_rule(self):
        rule = CapacityObjective(usec(500), metric="p95").rule()
        assert isinstance(rule, SLORule)
        assert rule.metric == "p95"
        assert rule.threshold == pytest.approx(usec(500))

    def test_burn_rate_maps_to_burn_rule(self):
        rule = CapacityObjective(
            2.0,
            metric="burn_rate",
            latency_threshold=usec(500),
            objective=0.9,
        ).rule()
        assert isinstance(rule, BurnRateRule)
        assert rule.factor == pytest.approx(2.0)
        assert rule.objective == pytest.approx(0.9)


class TestMeasure:
    def test_quantile_measurement_brackets_value(self):
        timeline = small_scenario().timeline("fastpath-system", n_windows=16)
        measurement = CapacityObjective(usec(500)).measure(timeline)
        assert measurement.n > 0
        assert measurement.ci_low <= measurement.value <= measurement.ci_high
        assert measurement.value > 0.0

    def test_mean_interval_narrower_with_more_samples(self):
        objective = CapacityObjective(usec(500), metric="mean")
        few = objective.measure(
            small_scenario(n_requests=200, warmup_requests=20).timeline(
                "fastpath-system", n_windows=16
            )
        )
        many = objective.measure(
            small_scenario(n_requests=3200, warmup_requests=320).timeline(
                "fastpath-system", n_windows=16
            )
        )
        assert (many.ci_high - many.ci_low) < (few.ci_high - few.ci_low)

    def test_burn_rate_interval_informative_at_zero_bad(self):
        objective = CapacityObjective(
            1.0,
            metric="burn_rate",
            latency_threshold=1.0,  # one second: nothing is "bad"
            objective=0.99,
        )
        timeline = small_scenario().timeline("fastpath-system", n_windows=16)
        measurement = objective.measure(timeline)
        assert measurement.value == 0.0
        # Agresti-Coull keeps the upper edge off zero.
        assert measurement.ci_high > 0.0

    def test_utilization_is_deterministic_point(self):
        timeline = small_scenario().timeline("fastpath-system", n_windows=16)
        stage = timeline.stage_names[0]
        objective = CapacityObjective(0.7, metric=f"utilization:{stage}")
        measurement = objective.measure(timeline)
        assert measurement.ci_low == measurement.value == measurement.ci_high

    @pytest.mark.parametrize("metric", ["p99", "mean"])
    def test_memoized_quantiles_match_scipy(self, metric, monkeypatch):
        """The z and t quantiles are memoized: a second measurement
        calls no quantile kernel, and both equal the unmemoized interval."""
        from scipy import special, stats

        from repro.capacity import objective as module

        timeline = small_scenario().timeline("fastpath-system", n_windows=16)
        objective = CapacityObjective(usec(500), metric=metric, confidence=0.93)
        first = objective.measure(timeline)
        level = 0.5 * (1.0 + 0.93)
        assert module._z_quantile(level) == float(stats.norm.ppf(level))
        batches = objective._window_series(timeline)
        assert batches.size >= 8
        t = float(stats.t.ppf(level, batches.size - 1))
        assert objective._batch_half_width(timeline) == (
            t * float(batches.std(ddof=1)) / math.sqrt(batches.size)
        )

        def no_ppf(*args, **kwargs):
            raise AssertionError("ppf called again")

        monkeypatch.setattr(stats.norm, "ppf", no_ppf)
        monkeypatch.setattr(stats.t, "ppf", no_ppf)
        monkeypatch.setattr(special, "ndtri", no_ppf)
        monkeypatch.setattr(special, "stdtrit", no_ppf)
        assert objective.measure(timeline) == first

    def test_z_quantile_kernel_equals_scipy_stats(self):
        """``_z_quantile`` calls ``special.ndtri``, the kernel behind
        ``stats.norm.ppf``; a scipy release that parts the two fails here."""
        from scipy import stats

        from repro.capacity.objective import _z_quantile

        for level in (0.95, 0.975, 0.995):
            assert _z_quantile(level) == float(stats.norm.ppf(level)), level

    def test_empty_timeline_rejected(self):
        from repro.observability import Timeline

        empty = Timeline.empty(0.0, 0.1, 8)
        with pytest.raises(ValidationError):
            CapacityObjective(usec(500)).measure(empty)


class TestDecide:
    def test_tri_state(self):
        objective = CapacityObjective(usec(100))
        assert objective.decide(
            Measurement(usec(50), usec(40), usec(60), 100)
        ) == "pass"
        assert objective.decide(
            Measurement(usec(150), usec(140), usec(160), 100)
        ) == "fail"
        assert objective.decide(
            Measurement(usec(99), usec(80), usec(120), 100)
        ) == "indeterminate"


class TestRoundTrip:
    def test_dict_round_trip(self):
        objective = CapacityObjective(
            2.0,
            metric="burn_rate",
            latency_threshold=usec(500),
            objective=0.95,
            confidence=0.9,
            min_count=3,
        )
        assert CapacityObjective.from_dict(objective.to_dict()) == objective

    def test_from_dict_requires_threshold(self):
        with pytest.raises(ConfigError):
            CapacityObjective.from_dict({"metric": "p99"})
        with pytest.raises(ConfigError):
            CapacityObjective.from_dict("p99 <= 1")

    def test_nan_never_enters_measurement(self):
        timeline = small_scenario().timeline("fastpath-system", n_windows=16)
        for metric in ("p50", "p95", "p99", "mean"):
            measurement = CapacityObjective(usec(500), metric=metric).measure(
                timeline
            )
            assert math.isfinite(measurement.value)
            assert math.isfinite(measurement.ci_low)
            assert math.isfinite(measurement.ci_high)
