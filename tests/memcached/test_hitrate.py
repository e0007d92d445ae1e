"""Tests for the Che approximation and cache sizing."""

import numpy as np
import pytest

from repro.distributions import Zipf
from repro.errors import ValidationError
from repro.memcached import (
    CacheStore,
    capacity_for_miss_ratio,
    che_characteristic_time,
    items_per_capacity_bytes,
    lru_hit_ratio,
    lru_miss_ratio,
    miss_ratio_curve,
)

UNIFORM_100 = [0.01] * 100


class TestCharacteristicTime:
    def test_occupancy_identity(self):
        probs = Zipf(500, 0.9).probabilities
        capacity = 100
        t_c = che_characteristic_time(probs, capacity)
        occupied = np.sum(-np.expm1(-probs * t_c))
        assert occupied == pytest.approx(capacity, rel=1e-6)

    def test_grows_with_capacity(self):
        probs = Zipf(500, 0.9).probabilities
        t1 = che_characteristic_time(probs, 50)
        t2 = che_characteristic_time(probs, 200)
        assert t2 > t1

    def test_rejects_capacity_out_of_range(self):
        with pytest.raises(ValidationError):
            che_characteristic_time(UNIFORM_100, 0)
        with pytest.raises(ValidationError):
            che_characteristic_time(UNIFORM_100, 100)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            che_characteristic_time([0.5, 0.6], 1)


class TestHitRatio:
    def test_uniform_popularity_hit_ratio_is_fill_fraction(self):
        # For uniform popularity the Che hit ratio ~ C / n.
        assert lru_hit_ratio(UNIFORM_100, 50) == pytest.approx(0.5, abs=0.03)

    def test_full_capacity_hits_everything(self):
        assert lru_hit_ratio(UNIFORM_100, 100) == 1.0

    def test_skew_beats_uniform(self):
        # Zipf head concentration -> a small cache hits much more.
        zipf = Zipf(1000, 1.0).probabilities
        assert lru_hit_ratio(zipf, 100) > lru_hit_ratio([1 / 1000] * 1000, 100)

    def test_monotone_curve(self):
        probs = Zipf(1000, 0.9).probabilities
        curve = miss_ratio_curve(probs, [50, 100, 200, 400, 800])
        assert all(a > b for a, b in zip(curve, curve[1:]))

    def test_hit_plus_miss_is_one(self):
        probs = Zipf(300, 0.8).probabilities
        assert lru_hit_ratio(probs, 60) + lru_miss_ratio(probs, 60) == pytest.approx(1.0)


class TestCapacityInversion:
    def test_roundtrip(self):
        probs = Zipf(1000, 0.95).probabilities
        capacity = capacity_for_miss_ratio(probs, 0.2)
        assert lru_miss_ratio(probs, capacity) == pytest.approx(0.2, abs=0.01)

    def test_tighter_target_needs_more_capacity(self):
        probs = Zipf(1000, 0.95).probabilities
        loose = capacity_for_miss_ratio(probs, 0.3)
        tight = capacity_for_miss_ratio(probs, 0.05)
        assert tight > loose

    def test_rejects_unreachable_target(self):
        with pytest.raises(ValidationError):
            capacity_for_miss_ratio(UNIFORM_100, 1e-12)

    def test_rejects_bad_target(self):
        with pytest.raises(ValidationError):
            capacity_for_miss_ratio(UNIFORM_100, 0.0)


class TestAgainstRealCache:
    def test_che_predicts_real_lru_miss_ratio(self, rng):
        """The executable CacheStore under Zipf IRM traffic should match
        the Che approximation within a few points."""
        n_items, zipf_s = 2000, 0.9
        value_size = 1000
        popularity = Zipf(n_items, zipf_s)
        store = CacheStore(4 << 20)  # 4 MiB
        # Measure the item capacity of this store for our item size.
        probe = 0
        while True:
            try:
                store.set(f"probe{probe}", bytes(value_size))
            except Exception:  # pragma: no cover - capacity probe
                break
            probe += 1
            if store.stats.evictions > 0:
                break
        capacity_items = len(store)
        store.flush_all()
        store.stats.evictions = 0

        # Warm thoroughly, then measure steady-state miss ratio.
        for _ in range(40_000):
            rank = int(popularity.sample(rng))
            key = f"item{rank}"
            if store.get(key) is None:
                store.set(key, bytes(value_size))
        store.stats.gets = store.stats.hits = store.stats.misses = 0
        for _ in range(40_000):
            rank = int(popularity.sample(rng))
            key = f"item{rank}"
            if store.get(key) is None:
                store.set(key, bytes(value_size))
        measured = store.miss_ratio()
        predicted = lru_miss_ratio(popularity.probabilities, capacity_items)
        assert measured == pytest.approx(predicted, abs=0.05)


class TestByteCapacity:
    def test_items_per_bytes(self):
        assert items_per_capacity_bytes(1 << 20, 1000.0) == pytest.approx(
            (1 << 20) / 1048.0
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            items_per_capacity_bytes(0, 100.0)
        with pytest.raises(ValidationError):
            items_per_capacity_bytes(1024, 0.0)
