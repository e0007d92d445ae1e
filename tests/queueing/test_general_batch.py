"""Tests for the general-batch-size queue extension."""

import numpy as np
import pytest

from repro.distributions import Exponential, FixedCount, GeneralizedPareto, Geometric
from repro.errors import StabilityError, ValidationError
from repro.queueing import (
    GIXM1Queue,
    GeneralBatchQueue,
    batch_collapse_error,
    geometric_reference,
)


class TestGeometricAgreement:
    def test_matches_gixm1_exactly(self):
        """For geometric batches the effective-exponential treatment is
        the paper's exact collapse — the two classes must agree."""
        gap = GeneralizedPareto(900.0, 0.15)
        general = geometric_reference(gap, 0.1, 1600.0)
        paper = GIXM1Queue(GeneralizedPareto(900.0, 0.15), 0.1, 1600.0)
        assert general.delta == pytest.approx(paper.delta, abs=1e-9)
        assert general.mean_queueing_time() == pytest.approx(
            paper.mean_queueing_time
        )
        assert general.mean_key_latency() == pytest.approx(
            paper.mean_key_latency
        )

    def test_geometric_cv2_is_one(self):
        gap = Exponential(900.0)
        queue = geometric_reference(gap, 0.3, 3000.0)
        assert queue.batch_service_cv2() == pytest.approx(1.0)

    def test_collapse_error_near_zero_for_geometric(self, rng):
        gap = Exponential(900.0)
        queue = geometric_reference(gap, 0.2, 2500.0)
        error = batch_collapse_error(queue, rng, n_keys=150_000)
        assert abs(error) < 0.05


class TestFixedBatches:
    def test_fixed_batch_cv2_below_one(self):
        # Erlang batch service: cv2 = 1/n < 1.
        queue = GeneralBatchQueue(Exponential(100.0), FixedCount(4), 1000.0)
        assert queue.batch_service_cv2() == pytest.approx(0.25)

    def test_effective_exponential_overestimates_for_fixed(self, rng):
        # Smoother-than-exponential service -> real queue is faster than
        # the effective-exponential approximation predicts.
        queue = GeneralBatchQueue(Exponential(150.0), FixedCount(4), 1000.0)
        error = batch_collapse_error(queue, rng, n_keys=200_000)
        assert error > 0.0

    def test_key_rate(self):
        queue = GeneralBatchQueue(Exponential(100.0), FixedCount(4), 1000.0)
        assert queue.key_arrival_rate == pytest.approx(400.0)
        assert queue.utilization == pytest.approx(0.4)


class TestExactLst:
    def test_batch_service_lst_geometric_closed_form(self):
        # For geometric X the true batch-service LST is the exponential
        # with rate (1-q) mu — verify through the PGF route.
        q, mu = 0.25, 800.0
        queue = geometric_reference(Exponential(100.0), q, mu)
        for s in (10.0, 100.0, 1000.0):
            expected = (1 - q) * mu / ((1 - q) * mu + s)
            assert queue.batch_service_lst(s) == pytest.approx(expected, rel=1e-9)

    def test_lst_at_zero_is_one(self):
        queue = GeneralBatchQueue(Exponential(100.0), FixedCount(2), 1000.0)
        assert queue.batch_service_lst(0.0) == pytest.approx(1.0)

    def test_lst_rejects_negative(self):
        queue = GeneralBatchQueue(Exponential(100.0), FixedCount(2), 1000.0)
        with pytest.raises(ValidationError):
            queue.batch_service_lst(-1.0)


class TestSimulation:
    def test_simulated_mean_matches_prediction_for_geometric(self, rng):
        gap = GeneralizedPareto(700.0, 0.2)
        queue = geometric_reference(gap, 0.15, 1500.0)
        latencies = queue.simulate_key_latencies(rng, 300_000)
        assert latencies.mean() == pytest.approx(
            queue.mean_key_latency(), rel=0.05
        )

    def test_requested_count(self, rng):
        queue = GeneralBatchQueue(Exponential(100.0), FixedCount(3), 1000.0)
        assert queue.simulate_key_latencies(rng, 5000).size == 5000

    @pytest.mark.parametrize(
        "n_keys, warmup_fraction",
        [(0, 0.05), (1000, 1.0), (1000, 1.5), (1000, -0.5)],
        ids=["no-keys", "warmup-1", "warmup-1.5", "warmup-negative"],
    )
    def test_rejects_bad_count(self, rng, n_keys, warmup_fraction):
        queue = GeneralBatchQueue(Exponential(100.0), FixedCount(3), 1000.0)
        with pytest.raises(ValidationError):
            queue.simulate_key_latencies(
                rng, n_keys, warmup_fraction=warmup_fraction
            )


class TestValidation:
    def test_rejects_unstable(self):
        with pytest.raises(StabilityError):
            GeneralBatchQueue(Exponential(300.0), FixedCount(4), 1000.0)

    def test_rejects_bad_service_rate(self):
        with pytest.raises(ValidationError):
            GeneralBatchQueue(Exponential(100.0), FixedCount(2), 0.0)
