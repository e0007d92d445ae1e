"""Tests for metrics collection."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.simulation import LatencyRecorder, UtilizationMeter


class TestLatencyRecorder:
    def test_streaming_moments(self):
        recorder = LatencyRecorder()
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        recorder.record_many(data)
        assert recorder.count == 5
        assert recorder.mean == pytest.approx(3.0)
        assert recorder.variance == pytest.approx(np.var(data, ddof=1))
        assert recorder.std == pytest.approx(math.sqrt(recorder.variance))
        assert recorder.minimum == 1.0
        assert recorder.maximum == 5.0

    def test_single_observation_variance_zero(self):
        recorder = LatencyRecorder()
        recorder.record(2.0)
        assert recorder.variance == 0.0

    def test_quantiles_exact_when_unbounded(self):
        recorder = LatencyRecorder()
        recorder.record_many(np.arange(101, dtype=float))
        assert recorder.quantile(0.5) == pytest.approx(50.0)
        lo, hi = recorder.quantiles([0.1, 0.9])
        assert lo == pytest.approx(10.0)
        assert hi == pytest.approx(90.0)

    def test_reservoir_keeps_distribution(self, rng):
        recorder = LatencyRecorder(max_samples=2000, rng=rng)
        data = rng.exponential(1.0, 50_000)
        recorder.record_many(data)
        assert len(recorder.samples()) == 2000
        assert recorder.quantile(0.5) == pytest.approx(
            float(np.quantile(data, 0.5)), rel=0.1
        )
        # Streaming mean is exact regardless of the reservoir.
        assert recorder.mean == pytest.approx(float(data.mean()))

    def test_confidence_interval_contains_truth(self, rng):
        recorder = LatencyRecorder()
        recorder.record_many(rng.normal(10.0, 2.0, 10_000))
        low, high = recorder.confidence_interval()
        assert low < 10.0 < high
        assert high - low < 0.2

    def test_summary(self, rng):
        recorder = LatencyRecorder()
        recorder.record_many(rng.normal(5.0, 1.0, 1000))
        summary = recorder.summary()
        assert summary.count == 1000
        assert summary.ci_low < summary.mean < summary.ci_high
        assert summary.contains(summary.mean)
        assert summary.ci == (summary.ci_low, summary.ci_high)

    def test_errors_on_empty(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValidationError):
            _ = recorder.mean
        with pytest.raises(ValidationError):
            recorder.quantile(0.5)
        with pytest.raises(ValidationError):
            _ = recorder.minimum

    def test_rejects_nonfinite(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValidationError):
            recorder.record(float("nan"))
        with pytest.raises(ValidationError):
            recorder.record(float("inf"))

    def test_ci_needs_two_observations(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValidationError):
            recorder.confidence_interval()

    def test_rejects_bad_confidence(self):
        recorder = LatencyRecorder()
        recorder.record_many([1.0, 2.0])
        with pytest.raises(ValidationError):
            recorder.confidence_interval(1.0)

    def test_rejects_tiny_reservoir(self):
        with pytest.raises(ValidationError):
            LatencyRecorder(max_samples=1)


class TestVectorizedRecordMany:
    def test_matches_scalar_loop_exactly(self, rng):
        data = rng.exponential(1.0, 5000)
        batched = LatencyRecorder()
        batched.record_many(data)
        looped = LatencyRecorder()
        for value in data:
            looped.record(float(value))
        assert batched.count == looped.count
        assert batched.mean == pytest.approx(looped.mean, rel=1e-12)
        assert batched.variance == pytest.approx(looped.variance, rel=1e-9)
        assert batched.minimum == looped.minimum
        assert batched.maximum == looped.maximum

    def test_chunked_batches_match_single_batch(self, rng):
        data = rng.normal(5.0, 1.0, 3000)
        whole = LatencyRecorder()
        whole.record_many(data)
        chunked = LatencyRecorder()
        for chunk in np.array_split(data, 7):
            chunked.record_many(chunk)
        assert chunked.mean == pytest.approx(whole.mean, rel=1e-12)
        assert chunked.variance == pytest.approx(whole.variance, rel=1e-9)

    def test_reservoir_quantiles_on_large_stream(self):
        # Satellite acceptance: 100k-sample seeded stream through a
        # bounded reservoir; quantile estimates stay within tolerance of
        # the exact ones, streaming moments stay exact.
        rng = np.random.default_rng(20170327)
        recorder = LatencyRecorder(
            max_samples=10_000, rng=np.random.default_rng(1)
        )
        data = rng.lognormal(mean=-8.0, sigma=1.0, size=100_000)
        recorder.record_many(data)
        assert recorder.count == 100_000
        assert len(recorder.samples()) == 10_000
        assert recorder.mean == pytest.approx(float(data.mean()), rel=1e-12)
        assert recorder.std == pytest.approx(float(data.std(ddof=1)), rel=1e-9)
        for level, tolerance in [(0.5, 0.05), (0.9, 0.05), (0.99, 0.10)]:
            exact = float(np.quantile(data, level))
            assert recorder.quantile(level) == pytest.approx(exact, rel=tolerance)

    def test_record_many_rejects_nonfinite(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValidationError):
            recorder.record_many([1.0, float("nan"), 2.0])
        with pytest.raises(ValidationError):
            recorder.record_many(np.array([1.0, np.inf]))
        # The failed batch must not corrupt the stream.
        assert recorder.count == 0

    def test_empty_batch_is_noop(self):
        recorder = LatencyRecorder()
        recorder.record_many([])
        recorder.record_many(np.array([]))
        assert recorder.count == 0


class TestQuantilesOnePass:
    LEVELS = [0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 0.999, 1.0, 0.123456789]

    @pytest.mark.parametrize("size", [1, 2, 3, 600, 4000])
    def test_equals_per_level_quantile_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        recorder = LatencyRecorder()
        recorder.record_many(rng.exponential(0.003, size))
        together = recorder.quantiles(self.LEVELS)
        one_by_one = [recorder.quantile(k) for k in self.LEVELS]
        assert [v.hex() for v in together] == [v.hex() for v in one_by_one]
        assert all(type(v) is float for v in together)

    def test_no_levels(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        assert recorder.quantiles([]) == []

    @pytest.mark.parametrize("levels", [[1.5], [0.5, -0.1], [math.nan]])
    def test_bad_level_raises_as_quantile(self, levels):
        recorder = LatencyRecorder()
        recorder.record_many([1.0, 2.0, 3.0])
        bad = next(k for k in levels if not 0.0 <= k <= 1.0)
        with pytest.raises(ValidationError) as expected:
            recorder.quantile(bad)
        with pytest.raises(ValidationError) as raised:
            recorder.quantiles(levels)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("levels", [[0.5], [0.5, 2.0], [2.0, 0.5]])
    def test_empty_recorder_raises_as_quantile(self, levels):
        recorder = LatencyRecorder()
        with pytest.raises(ValidationError) as expected:
            recorder.quantile(levels[0])
        with pytest.raises(ValidationError) as raised:
            recorder.quantiles(levels)
        assert str(raised.value) == str(expected.value)

    def test_confidence_interval_memo_matches_scipy(self):
        from scipy import stats

        recorder = LatencyRecorder()
        recorder.record_many(np.arange(1.0, 41.0))
        for confidence in (0.9, 0.95, 0.95, 0.99):
            half = (
                float(stats.t.ppf(0.5 + confidence / 2.0, 39))
                * recorder.std
                / math.sqrt(40)
            )
            low, high = recorder.confidence_interval(confidence)
            assert (low, high) == (recorder.mean - half, recorder.mean + half)

    def test_t_quantile_kernel_equals_scipy_stats(self):
        """``_t_quantile`` calls ``special.stdtrit``, the kernel behind
        ``stats.t.ppf``; a scipy release that parts the two fails here."""
        from scipy import stats

        from repro.simulation.metrics import _t_quantile

        for level in (0.95, 0.975, 0.995):
            for df in (1, 2, 5, 29, 299, 3999, 10**6):
                expected = float(stats.t.ppf(level, df))
                assert _t_quantile(level, df) == expected, (level, df)


class TestUtilizationMeter:
    def test_full_busy(self):
        meter = UtilizationMeter()
        meter.server_started(0.0)
        meter.server_ran([4.0, 10.0], idle=True)
        assert meter.utilization(10.0) == pytest.approx(1.0)

    def test_half_busy(self):
        meter = UtilizationMeter()
        meter.server_started(0.0)
        meter.server_ran([5.0], idle=True)
        assert meter.utilization(10.0) == pytest.approx(0.5)

    def test_ongoing_busy_period_counted(self):
        meter = UtilizationMeter()
        meter.server_started(0.0)
        assert meter.utilization(4.0) == pytest.approx(1.0)

    def test_never_started(self):
        assert UtilizationMeter().utilization(10.0) == 0.0

    def test_stop_without_start_rejected(self):
        with pytest.raises(ValidationError):
            UtilizationMeter().server_ran([1.0], idle=True)

    def test_multiple_busy_periods(self):
        meter = UtilizationMeter()
        meter.server_started(0.0)
        meter.server_ran([2.0], idle=True)
        meter.server_started(4.0)
        meter.server_ran([5.0], idle=False)
        meter.server_ran([6.0], idle=True)
        assert meter.utilization(8.0) == pytest.approx(0.5)
