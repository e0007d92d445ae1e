"""Tests for the log-bucketed histogram, counter, gauge, and registry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.observability import Counter, Gauge, Histogram, MetricsRegistry


class TestBucketGeometry:
    def test_bucket_bounds_contain_value(self):
        hist = Histogram(min_value=1e-9, buckets_per_decade=50)
        rng = np.random.default_rng(3)
        for value in 10.0 ** rng.uniform(-8.5, 2.5, 500):
            lower, upper = hist.bucket_bounds(hist.bucket_index(value))
            assert lower <= value < upper

    def test_bucket_zero_starts_at_min_value(self):
        hist = Histogram(min_value=1e-6, buckets_per_decade=10)
        lower, upper = hist.bucket_bounds(0)
        assert lower == pytest.approx(1e-6)
        assert upper == pytest.approx(1e-6 * 10 ** 0.1)

    def test_buckets_per_decade(self):
        hist = Histogram(min_value=1.0, buckets_per_decade=5)
        # Exactly 5 buckets between 1 and 10.
        assert hist.bucket_index(1.0 + 1e-12) == 0
        assert hist.bucket_index(9.999) == 4
        assert hist.bucket_index(10.001) == 5

    def test_sub_min_values_clamp_into_bucket_zero(self):
        hist = Histogram(min_value=1e-6)
        assert hist.bucket_index(1e-12) == 0

    def test_relative_error_bounded(self):
        hist = Histogram(min_value=1e-9, buckets_per_decade=50)
        growth = 10 ** (1 / 50)
        for value in (3.7e-6, 1.1e-3, 0.42, 7.0):
            lower, upper = hist.bucket_bounds(hist.bucket_index(value))
            assert upper / lower == pytest.approx(growth)

    def test_zero_gets_dedicated_bucket(self):
        hist = Histogram()
        hist.record(0.0)
        hist.record(1.0)
        buckets = hist.buckets()
        assert buckets[0] == (0.0, 0.0, 1)
        assert hist.quantile(0.25) == 0.0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValidationError):
            Histogram(min_value=0.0)
        with pytest.raises(ValidationError):
            Histogram(buckets_per_decade=0)


class TestHistogramStats:
    def test_exact_moments(self):
        hist = Histogram()
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        hist.record_many(data)
        assert hist.count == 5
        assert hist.mean == pytest.approx(3.0)
        assert hist.std == pytest.approx(float(np.std(data, ddof=1)))
        assert hist.minimum == 1.0
        assert hist.maximum == 5.0

    def test_rejects_nonfinite_and_negative(self):
        hist = Histogram()
        with pytest.raises(ValidationError):
            hist.record(float("nan"))
        with pytest.raises(ValidationError):
            hist.record(float("inf"))
        with pytest.raises(ValidationError):
            hist.record(-1.0)

    def test_quantile_interpolation_within_bucket(self):
        # A single bucket with uniform interpolation: the k-th quantile
        # must move linearly between the bucket bounds.
        hist = Histogram(min_value=1.0, buckets_per_decade=1)
        for _ in range(100):
            hist.record(2.0)  # all land in the [1, 10) bucket
        q25, q75 = hist.quantile(0.25), hist.quantile(0.75)
        # Interpolated positions differ, but both are clamped to the
        # observed [min, max] = [2, 2].
        assert q25 == q75 == 2.0

    def test_quantiles_accurate_on_exponential(self):
        hist = Histogram(min_value=1e-9, buckets_per_decade=50)
        rng = np.random.default_rng(11)
        data = rng.exponential(1e-3, 100_000)
        hist.record_many(data)
        for k in (0.5, 0.9, 0.99):
            exact = float(np.quantile(data, k))
            assert hist.quantile(k) == pytest.approx(exact, rel=0.05)

    def test_quantile_clamped_to_observed_range(self):
        hist = Histogram()
        hist.record(5.0)
        assert hist.quantile(0.0) == 5.0
        assert hist.quantile(1.0) == 5.0

    def test_quantile_errors(self):
        hist = Histogram()
        with pytest.raises(ValidationError):
            hist.quantile(0.5)  # empty
        hist.record(1.0)
        with pytest.raises(ValidationError):
            hist.quantile(1.5)

    def test_summary_keys(self):
        hist = Histogram()
        assert hist.summary() == {"count": 0}
        hist.record_many([1.0, 2.0, 3.0])
        summary = hist.summary()
        for key in ("count", "mean", "std", "min", "max", "p50", "p95", "p99"):
            assert key in summary

    def test_reset(self):
        hist = Histogram()
        hist.record_many([1.0, 2.0])
        hist.reset()
        assert hist.count == 0
        assert hist.buckets() == []

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.record_many([1.0, 2.0])
        b.record_many([3.0, 4.0])
        a.merge(b)
        assert a.count == 4
        assert a.mean == pytest.approx(2.5)
        assert a.maximum == 4.0

    def test_merge_rejects_mismatched_geometry(self):
        with pytest.raises(ValidationError):
            Histogram(buckets_per_decade=10).merge(Histogram(buckets_per_decade=50))

    def test_dict_round_trip(self):
        hist = Histogram(min_value=1e-6, buckets_per_decade=20)
        rng = np.random.default_rng(7)
        hist.record_many(rng.exponential(1e-3, 1000))
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.summary() == hist.summary()
        assert clone.buckets() == hist.buckets()

    def test_record_many_matches_scalar_path(self):
        rng = np.random.default_rng(17)
        data = rng.exponential(1e-3, 2000)
        vectorized, scalar = Histogram(), Histogram()
        vectorized.record_many(data)
        for value in data:
            scalar.record(float(value))
        assert vectorized.buckets() == scalar.buckets()
        assert vectorized.count == scalar.count
        assert vectorized.mean == pytest.approx(scalar.mean, rel=1e-12)
        assert vectorized.std == pytest.approx(scalar.std, rel=1e-9)
        assert vectorized.minimum == scalar.minimum
        assert vectorized.maximum == scalar.maximum

    def test_count_above_exact_at_bucket_boundary(self):
        hist = Histogram(min_value=1.0, buckets_per_decade=1)
        hist.record_many([0.5, 2.0, 20.0, 200.0])  # buckets 0, 0, 1, 2
        lower, _ = hist.bucket_bounds(1)  # 10.0
        assert hist.count_above(lower) == 2
        assert hist.count_above(0.0) == 4
        assert hist.count_above(1e9) == 0

    def test_count_above_interpolates_straddling_bucket(self):
        hist = Histogram(min_value=1.0, buckets_per_decade=1)
        for _ in range(10):
            hist.record(2.0)  # all in the [1, 10) bucket
        # Halfway through the bucket: about half the mass is above.
        assert hist.count_above(5.5) == pytest.approx(5.0, abs=1.0)
        total = hist.count_above(1.0)
        assert 0 <= hist.count_above(5.5) <= total

    def test_count_above_monotone_nonincreasing(self):
        hist = Histogram()
        rng = np.random.default_rng(23)
        hist.record_many(rng.exponential(1e-3, 500))
        thresholds = np.logspace(-5, -1, 30)
        counts = [hist.count_above(t) for t in thresholds]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_merged_quantiles_match_joint_recording(self):
        rng = np.random.default_rng(29)
        data = rng.exponential(1e-3, 4000)
        joint, a, b = Histogram(), Histogram(), Histogram()
        joint.record_many(data)
        a.record_many(data[:1500])
        b.record_many(data[1500:])
        a.merge(b)
        assert a.buckets() == joint.buckets()
        assert a.mean == pytest.approx(joint.mean, rel=1e-12)
        for k in (0.5, 0.95, 0.99):
            assert a.quantile(k) == joint.quantile(k)


class TestHistogramQuantileProperty:
    """Hypothesis: every quantile within one bucket of numpy's answer."""

    @given(
        data=st.lists(
            st.floats(min_value=1e-7, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        level=st.floats(min_value=0.0, max_value=1.0),
        bpd=st.sampled_from([5, 20, 50]),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantile_within_one_bucket_of_numpy(self, data, level, bpd):
        hist = Histogram(min_value=1e-9, buckets_per_decade=bpd)
        hist.record_many(data)
        growth = 10.0 ** (1.0 / bpd)
        # Any defensible empirical quantile lies between the 'lower' and
        # 'higher' order statistics; the histogram may additionally be
        # off by one bucket's relative width in either direction.
        low = float(np.quantile(data, level, method="lower"))
        high = float(np.quantile(data, level, method="higher"))
        estimate = hist.quantile(level)
        assert low / growth - 1e-12 <= estimate <= high * growth + 1e-12


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Counter().inc(-1)

    def test_reset(self):
        counter = Counter()
        counter.inc(3)
        counter.reset()
        assert counter.value == 0

    def test_merge_sums(self):
        a, b = Counter(), Counter()
        a.inc(2)
        b.inc(5)
        a.merge(b)
        assert a.value == 7


class TestGauge:
    def test_tracks_extrema_and_mean(self):
        gauge = Gauge()
        for value in (3.0, 1.0, 2.0):
            gauge.set(value)
        assert gauge.value == 2.0
        assert gauge.minimum == 1.0
        assert gauge.maximum == 3.0
        assert gauge.mean == pytest.approx(2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Gauge().set(math.inf)

    def test_empty_gauge_errors(self):
        with pytest.raises(ValidationError):
            _ = Gauge().mean

    def test_merge_folds_extrema_and_keeps_latest(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        a.set(4.0)
        b.set(0.5)
        a.merge(b)
        assert a.value == 0.5  # other's last observation wins
        assert a.minimum == 0.5
        assert a.maximum == 4.0
        assert a.mean == pytest.approx((1.0 + 4.0 + 0.5) / 3)

    def test_merge_with_empty_keeps_value(self):
        a = Gauge()
        a.set(2.0)
        a.merge(Gauge())
        assert a.value == 2.0
        assert a.mean == pytest.approx(2.0)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.histogram("a.wait") is registry.histogram("a.wait")
        assert registry.counter("hits") is registry.counter("hits")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("x")
        with pytest.raises(ValidationError):
            registry.counter("x")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().get("missing")

    def test_names_sorted_and_iterable(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.histogram("a")
        assert registry.names() == ["a", "b"]
        assert list(registry) == ["a", "b"]
        assert "a" in registry

    def test_reset_all_keeps_references_valid(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        hist.record(1.0)
        registry.reset_all()
        assert hist.count == 0
        hist.record(2.0)  # old reference still feeds the registry
        assert registry.histogram("h").count == 1

    def test_snapshot_includes_histogram_summary(self):
        registry = MetricsRegistry()
        registry.histogram("h").record(1.0)
        registry.counter("c").inc(2)
        registry.gauge("g").set(0.5)
        snap = registry.snapshot()
        assert snap["h"]["type"] == "histogram"
        assert snap["h"]["summary"]["count"] == 1
        assert snap["c"] == {"type": "counter", "value": 2}
        assert snap["g"]["samples"] == 1

    def test_merge_folds_matching_metrics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").record(1.0)
        b.histogram("h").record(3.0)
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(0.5)
        a.merge(b)
        assert a.histogram("h").count == 2
        assert a.histogram("h").mean == pytest.approx(2.0)
        assert a.counter("c").value == 3
        # Metric only in `b` is created in `a` with b's state.
        assert a.gauge("g").value == 0.5
        # Merge does not mutate the source registry.
        assert b.histogram("h").count == 1

    def test_merge_adopts_other_geometry_for_new_names(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("h", min_value=1e-3, buckets_per_decade=7).record(1.0)
        a.merge(b)
        geometry = a.histogram("h").to_dict()
        assert geometry["min_value"] == pytest.approx(1e-3)
        assert geometry["buckets_per_decade"] == 7

    def test_merge_rejects_kind_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("x")
        b.counter("x")
        with pytest.raises(ValidationError):
            a.merge(b)


def _walk_quantile(hist, k):
    """The bucket walk :meth:`Histogram.quantile` replaces with bisection."""
    rank = k * hist.count
    seen = 0.0
    for lower, upper, count in hist.buckets():
        if seen + count >= rank:
            if upper == 0.0:
                return 0.0
            value = lower + (upper - lower) * ((rank - seen) / count)
            return min(max(value, hist.minimum), hist.maximum)
        seen += count
    return hist.maximum


def _walk_count_above(hist, threshold):
    """The full bucket walk behind :meth:`Histogram.count_above`."""
    total = 0.0
    for lower, upper, count in hist.buckets():
        if upper <= threshold:
            continue
        if lower >= threshold:
            total += count
        else:
            total += count * (upper - threshold) / (upper - lower)
    return total


LEVELS = (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0)
THRESHOLDS = (-1.0, 0.0, 5e-10, 1e-9, 2e-3, 0.01, 0.05, 3.0)


def _reads(hist):
    quantiles = [hist.quantile(k) for k in LEVELS] if hist.count else []
    return (
        [q.hex() for q in quantiles],
        [hist.count_above(t).hex() for t in THRESHOLDS],
        hist.buckets(),
    )


def _values(seed, n=500):
    """Latencies plus zeros and values at or below ``min_value``."""
    rng = np.random.default_rng(seed)
    values = rng.exponential(0.01, n)
    values[::17] = 0.0
    values[5::23] = 1e-9
    values[7::29] = 3e-10
    return values


class TestHistogramQueryCache:
    """Cached bucket walks answer exactly like a never-queried histogram."""

    def test_matches_full_bucket_walk(self):
        for seed in range(5):
            hist = Histogram()
            hist.record_many(_values(seed, n=50 + 300 * seed))
            for k in LEVELS + (0.3333, 0.987654):
                assert hist.quantile(k) == _walk_quantile(hist, k)
            for threshold in THRESHOLDS + (0.0123, 0.1):
                assert hist.count_above(threshold) == _walk_count_above(
                    hist, threshold
                )

    @pytest.mark.parametrize("mutator", ["record", "record_many", "merge", "reset"])
    def test_every_mutator_drops_the_cache(self, mutator):
        first, second = _values(1), _values(2, n=300)
        hist = Histogram()
        hist.record_many(first)
        before = _reads(hist)
        fresh = Histogram()
        fresh.record_many(first)
        assert before == _reads(fresh)

        if mutator == "record":
            for value in second[:40]:
                hist.record(value)
        elif mutator == "record_many":
            hist.record_many(second)
        elif mutator == "merge":
            other = Histogram()
            other.record_many(second)
            hist.merge(other)
        else:
            hist.reset()
            hist.record_many(second)

        fresh = Histogram()
        if mutator == "record":
            fresh.record_many(first)
            for value in second[:40]:
                fresh.record(value)
        elif mutator == "reset":
            fresh.record_many(second)
        else:
            fresh.record_many(first)
            fresh.record_many(second)
        after = _reads(hist)
        assert after == _reads(fresh)
        assert after != before

    def test_reset_to_empty(self):
        hist = Histogram()
        hist.record_many(_values(3))
        _reads(hist)
        hist.reset()
        assert hist.buckets() == []
        assert hist.count_above(0.0) == 0.0
        with pytest.raises(ValidationError):
            hist.quantile(0.5)

    def test_buckets_hands_out_a_copy(self):
        hist = Histogram()
        hist.record_many(_values(4))
        hist.buckets().clear()
        assert hist.buckets() == Histogram.from_dict(hist.to_dict()).buckets()


class TestRecordWindows:
    """The one-pass window fill equals per-window ``record_many``."""

    @staticmethod
    def _both(values, bounds):
        from repro.observability.metrics import _record_windows

        filled = [Histogram() for _ in range(len(bounds) - 1)]
        _record_windows(filled, values, np.asarray(bounds))
        expected = [Histogram() for _ in range(len(bounds) - 1)]
        for k, hist in enumerate(expected):
            if bounds[k + 1] > bounds[k]:
                hist.record_many(values[bounds[k] : bounds[k + 1]])
        return filled, expected

    def test_matches_per_window_record_many(self):
        values = _values(5, n=900)
        # Empty windows first, in the middle and last.
        bounds = [0, 0, 120, 121, 121, 400, 650, 900, 900]
        filled, expected = self._both(values, bounds)
        assert [h.to_dict() for h in filled] == [h.to_dict() for h in expected]
        for got, want in zip(filled, expected):
            assert _reads(got) == _reads(want)

    def test_zeros_only_and_clamped_only_windows(self):
        values = np.array([0.0, 0.0, 0.0, 1e-9, 5e-10, 1e-12, 0.5, 0.0])
        filled, expected = self._both(values, [0, 3, 6, 6, 8])
        assert [h.to_dict() for h in filled] == [h.to_dict() for h in expected]

    def test_all_empty(self):
        filled, expected = self._both(np.empty(0), [0, 0, 0])
        assert [h.to_dict() for h in filled] == [h.to_dict() for h in expected]

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_invalid_values_raise_as_record_many(self, bad):
        from repro.observability.metrics import _record_windows

        values = _values(6, n=60)
        values[45] = bad
        with pytest.raises(ValidationError) as expected:
            Histogram().record_many(values[40:60])
        with pytest.raises(ValidationError) as raised:
            _record_windows(
                [Histogram() for _ in range(3)], values, np.array([0, 40, 60, 60])
            )
        assert str(raised.value) == str(expected.value)
