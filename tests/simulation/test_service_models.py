"""Tests for size-dependent service times."""

import math

import numpy as np
import pytest

from repro.distributions import Exponential, GeneralizedPareto, Uniform
from repro.errors import ValidationError
from repro.queueing import MG1Queue
from repro.simulation import (
    PoissonProcess,
    ServerSim,
    Simulator,
    SizeDependentService,
    exponential_assumption_error,
)
from repro.workloads import FacebookWorkload


class TestSizeDependentService:
    def test_mean_composition(self):
        sizes = Uniform(100.0, 300.0)  # mean 200 bytes
        service = SizeDependentService(sizes, 1e6, overhead=1e-5)
        assert service.mean == pytest.approx(1e-5 + 200.0 / 1e6)

    def test_variance_scales_with_bandwidth(self):
        sizes = Uniform(100.0, 300.0)
        service = SizeDependentService(sizes, 1e6)
        assert service.variance == pytest.approx(sizes.variance / 1e12)

    def test_cdf_shifted_and_scaled(self):
        sizes = Uniform(0.0, 1000.0)
        service = SizeDependentService(sizes, 1e6, overhead=1e-4)
        assert service.cdf(5e-5) == 0.0  # below the overhead floor
        assert service.cdf(1e-4 + 500.0 / 1e6) == pytest.approx(0.5)

    def test_quantile_inverts(self):
        sizes = Uniform(100.0, 300.0)
        service = SizeDependentService(sizes, 1e6, overhead=1e-5)
        assert service.cdf(service.quantile(0.7)) == pytest.approx(0.7)

    def test_laplace_factorization(self):
        sizes = Exponential(1.0 / 200.0)  # exponential sizes, mean 200 B
        service = SizeDependentService(sizes, 1e6, overhead=1e-5)
        s = 5000.0
        expected = math.exp(-s * 1e-5) * sizes.laplace(s / 1e6)
        assert service.laplace(s) == pytest.approx(expected)

    def test_sampling(self, rng):
        sizes = Uniform(100.0, 300.0)
        service = SizeDependentService(sizes, 1e6, overhead=1e-5)
        samples = service.sample(rng, 100_000)
        assert samples.min() >= 1e-5 + 100.0 / 1e6 - 1e-12
        assert samples.mean() == pytest.approx(service.mean, rel=0.01)

    def test_matching_rate_calibration(self):
        workload = FacebookWorkload.build()
        service = SizeDependentService.matching_rate(
            workload.value_size, 80_000.0, overhead_fraction=0.5
        )
        assert service.mean == pytest.approx(1.0 / 80_000.0, rel=1e-9)

    def test_rejects_bad_args(self):
        sizes = Uniform(1.0, 2.0)
        with pytest.raises(ValidationError):
            SizeDependentService(sizes, 0.0)
        with pytest.raises(ValidationError):
            SizeDependentService(sizes, 1.0, overhead=-1.0)
        with pytest.raises(ValidationError):
            SizeDependentService.matching_rate(sizes, 1.0, overhead_fraction=1.0)


class TestExponentialAssumptionError:
    def test_exact_for_exponential(self):
        assert exponential_assumption_error(
            Exponential(80_000.0), 50_000.0
        ) == pytest.approx(1.0)

    def test_smooth_service_overestimated_by_exponential(self):
        sizes = Uniform(190.0, 210.0)  # nearly deterministic
        service = SizeDependentService.matching_rate(sizes, 80_000.0)
        assert exponential_assumption_error(service, 50_000.0) < 1.0

    def test_heavy_sizes_underestimated(self):
        sizes = GeneralizedPareto(1.0 / 300.0, 0.45)  # heavy-tailed values
        service = SizeDependentService(sizes, 1e7)
        assert exponential_assumption_error(service, 1000.0) > 1.0

    def test_pk_ratio_matches_mg1(self):
        """The reported ratio is exactly the M/G/1-vs-M/M/1 wait ratio."""
        sizes = Uniform(100.0, 300.0)
        service = SizeDependentService.matching_rate(sizes, 80_000.0)
        lam = 50_000.0
        true_wait = MG1Queue(lam, service).mean_wait
        expo_wait = MG1Queue(lam, Exponential(1.0 / service.mean)).mean_wait
        assert exponential_assumption_error(service, lam) == pytest.approx(
            true_wait / expo_wait
        )


class TestInServerSim:
    def test_server_accepts_size_dependent_service(self, rng):
        sizes = Uniform(100.0, 300.0)
        service = SizeDependentService.matching_rate(sizes, 2000.0)
        sim = Simulator()
        sojourns = []
        server = ServerSim(
            sim, service, rng,
            on_complete=lambda context, arrival, start, finish: sojourns.append(
                finish - arrival
            ),
        )
        PoissonProcess(800.0, rng).start(
            sim, lambda t, size: server.offer_batch(t, size)
        )
        sim.run_until(100.0)
        measured = float(np.mean(sojourns))
        expected = MG1Queue(800.0, service).mean_sojourn
        assert measured == pytest.approx(expected, rel=0.1)
