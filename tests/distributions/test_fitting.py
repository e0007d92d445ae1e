"""Tests for the workload fitting pipeline."""

import numpy as np
import pytest

from repro.distributions import (
    GeneralizedPareto,
    Geometric,
    estimate_concurrency,
    fit_generalized_pareto,
    fit_workload_from_timestamps,
    lilliefors_exponential_distance,
)
from repro.errors import ValidationError


class TestFitGeneralizedPareto:
    def test_recovers_parameters(self, rng):
        truth = GeneralizedPareto(1000.0, 0.3)
        gaps = truth.sample(rng, 100_000)
        fit = fit_generalized_pareto(gaps)
        assert fit.xi == pytest.approx(0.3, abs=0.03)
        assert fit.arrival_rate == pytest.approx(1000.0, rel=0.05)

    def test_exponential_data_gives_small_xi(self, rng):
        gaps = rng.exponential(0.001, 50_000)
        fit = fit_generalized_pareto(gaps)
        assert fit.xi == pytest.approx(0.0, abs=0.03)

    def test_rejects_too_few(self):
        with pytest.raises(ValidationError):
            fit_generalized_pareto([1.0])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            fit_generalized_pareto([1.0, -1.0, 2.0])


class TestConcurrency:
    def test_counts_sub_window_gaps(self):
        gaps = [0.5e-6, 2e-6, 0.2e-6, 5e-6]
        assert estimate_concurrency(gaps) == pytest.approx(0.5)

    def test_custom_window(self):
        gaps = [0.5, 2.0, 0.2, 5.0]
        assert estimate_concurrency(gaps, window=1.0) == pytest.approx(0.5)

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            estimate_concurrency([1.0, 2.0], window=0.0)


class TestFullPipeline:
    def test_recovers_facebook_like_model(self, rng):
        # Build a synthetic trace: GPD batch gaps + geometric batches
        # landing at identical timestamps. The rate is kept moderate so
        # genuine batch gaps almost never fall below the 1 microsecond
        # concurrency window (at 62.5 Kps ~5% would, inflating q — a
        # real measurement artifact the fit inherits by design).
        lam, xi, q = 5_000.0, 0.15, 0.1
        gap = GeneralizedPareto((1 - q) * lam, xi)
        sizes = Geometric(q).sample(rng, 60_000)
        gaps = gap.sample(rng, 60_000)
        times = np.repeat(np.cumsum(gaps), sizes)
        fit = fit_workload_from_timestamps(times)
        assert fit.q == pytest.approx(q, abs=0.02)
        assert fit.xi == pytest.approx(xi, abs=0.05)
        assert fit.rate == pytest.approx(lam, rel=0.05)

    def test_gap_distribution_roundtrip(self, rng):
        lam = 1000.0
        gaps = rng.exponential(1.0 / lam, 20_000)
        times = np.cumsum(gaps)
        fit = fit_workload_from_timestamps(times)
        dist = fit.gap_distribution()
        assert dist.mean == pytest.approx(1.0 / fit.rate, rel=1e-9)

    def test_rejects_short_traces(self):
        with pytest.raises(ValidationError):
            fit_workload_from_timestamps([1.0, 2.0])


class TestDiagnostics:
    def test_ks_distance_small_for_exponential(self, rng):
        samples = rng.exponential(2.0, 10_000)
        assert lilliefors_exponential_distance(samples) < 0.02

    def test_ks_distance_large_for_bursty(self, rng):
        samples = GeneralizedPareto(1.0, 0.6).sample(rng, 10_000)
        assert lilliefors_exponential_distance(samples) > 0.05
