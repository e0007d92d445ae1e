"""Tests for the Facebook/ETC statistical workload model."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.units import kps
from repro.workloads import FacebookWorkload


class TestDefaults:
    def test_published_headline_numbers(self):
        workload = FacebookWorkload.build()
        assert workload.pattern.rate == kps(62.5)
        assert workload.pattern.xi == 0.15
        assert workload.pattern.q == pytest.approx(0.1159)

    def test_size_models_positive_means(self):
        workload = FacebookWorkload.build()
        assert workload.key_size.mean == pytest.approx(31.0, rel=0.01)
        assert workload.value_size.mean == pytest.approx(330.0, rel=0.01)


class TestSampling:
    def test_sample_item_bytes(self, rng):
        workload = FacebookWorkload.build()
        key_bytes, value_bytes = workload.sample_item_bytes(rng)
        assert key_bytes >= 1
        assert value_bytes >= 1

    def test_key_rank_in_catalog(self, rng):
        workload = FacebookWorkload.build(n_items=100)
        for _ in range(50):
            assert 1 <= workload.sample_key_rank(rng) <= 100

    def test_head_concentration_is_skewed(self):
        workload = FacebookWorkload.build(n_items=100_000)
        assert workload.head_concentration(0.01) > 0.3


class TestTimestampGeneration:
    def test_duration_respected(self, rng):
        workload = FacebookWorkload.build()
        times = workload.generate_key_timestamps(0.05, rng)
        assert times.size > 0
        assert float(times.max()) < 0.05
        assert np.all(np.diff(times) >= 0)

    def test_rate_approximately_lambda(self, rng):
        workload = FacebookWorkload.build()
        duration = 0.5
        times = workload.generate_key_timestamps(duration, rng)
        assert times.size / duration == pytest.approx(kps(62.5), rel=0.1)

    def test_concurrent_keys_share_timestamps(self, rng):
        workload = FacebookWorkload.build()
        times = workload.generate_key_timestamps(0.2, rng)
        gaps = np.diff(times)
        assert np.mean(gaps == 0.0) == pytest.approx(
            workload.pattern.q, abs=0.05
        )

    def test_rejects_bad_duration(self, rng):
        with pytest.raises(ValidationError):
            FacebookWorkload.build().generate_key_timestamps(0.0, rng)


