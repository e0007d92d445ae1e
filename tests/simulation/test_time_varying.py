"""Tests for the non-homogeneous Poisson arrival process."""

import numpy as np
import pytest

from repro.distributions import Geometric
from repro.errors import ValidationError
from repro.queueing import GIM1Queue
from repro.simulation import ServerSim, Simulator, TimeVaryingPoissonProcess


class TestThinning:
    def test_constant_rate_reduces_to_poisson(self, rng):
        sim = Simulator()
        times = []
        process = TimeVaryingPoissonProcess(lambda t: 500.0, 500.0, rng)
        process.start(sim, lambda t, size: times.append(t))
        sim.run_until(20.0)
        assert len(times) == pytest.approx(10_000, rel=0.05)
        gaps = np.diff(times)
        # Exponential gaps: cv2 ~ 1.
        assert gaps.var() / gaps.mean() ** 2 == pytest.approx(1.0, abs=0.1)

    def test_sinusoidal_rate_modulates_counts(self, rng):
        sim = Simulator()
        times = []
        period = 10.0
        process = TimeVaryingPoissonProcess.sinusoidal(
            1000.0, 0.8, period, rng
        )
        process.start(sim, lambda t, size: times.append(t))
        sim.run_until(4 * period)
        times = np.asarray(times)
        # Count in the peak quarter vs trough quarter of each cycle.
        phase = (times % period) / period
        peak = np.sum((phase > 0.125) & (phase < 0.375))  # around sin max
        trough = np.sum((phase > 0.625) & (phase < 0.875))
        assert peak > 3 * trough

    def test_mean_rate_preserved(self, rng):
        sim = Simulator()
        times = []
        process = TimeVaryingPoissonProcess.sinusoidal(800.0, 0.5, 5.0, rng)
        process.start(sim, lambda t, size: times.append(t))
        sim.run_until(50.0)  # whole number of periods
        assert len(times) / 50.0 == pytest.approx(800.0, rel=0.05)

    def test_batches_supported(self, rng):
        sim = Simulator()
        sizes = []
        process = TimeVaryingPoissonProcess(
            lambda t: 300.0, 300.0, rng, batch_size=Geometric(0.5)
        )
        process.start(sim, lambda t, size: sizes.append(size))
        sim.run_until(10.0)
        assert np.mean(sizes) == pytest.approx(2.0, rel=0.1)

    def test_stop(self, rng):
        sim = Simulator()
        times = []
        process = TimeVaryingPoissonProcess(lambda t: 100.0, 100.0, rng)
        process.start(sim, lambda t, size: times.append(t))
        sim.run_until(1.0)
        process.stop()
        count = len(times)
        sim.run_until(2.0)
        assert len(times) <= count + 1

    def test_rejects_rate_above_max(self, rng):
        sim = Simulator()
        process = TimeVaryingPoissonProcess(lambda t: 200.0, 100.0, rng)
        process.start(sim, lambda t, size: None)
        with pytest.raises(ValidationError):
            sim.run_until(1.0)

    def test_rejects_negative_rate(self, rng):
        sim = Simulator()
        process = TimeVaryingPoissonProcess(lambda t: -1.0, 100.0, rng)
        process.start(sim, lambda t, size: None)
        with pytest.raises(ValidationError):
            sim.run_until(1.0)

    def test_rejects_bad_max_rate(self, rng):
        with pytest.raises(ValidationError):
            TimeVaryingPoissonProcess(lambda t: 1.0, 0.0, rng)

    def test_sinusoidal_validation(self, rng):
        with pytest.raises(ValidationError):
            TimeVaryingPoissonProcess.sinusoidal(100.0, 1.5, 10.0, rng)
        with pytest.raises(ValidationError):
            TimeVaryingPoissonProcess.sinusoidal(0.0, 0.5, 10.0, rng)

    def test_double_start_rejected(self, rng):
        sim = Simulator()
        process = TimeVaryingPoissonProcess(lambda t: 100.0, 100.0, rng)
        process.start(sim, lambda t, size: None)
        with pytest.raises(ValidationError):
            process.start(sim, lambda t, size: None)


class TestDiurnalLatency:
    def test_peak_latency_dominates(self, rng):
        """Diurnal load through a server: peak-phase sojourns must be
        worse than trough-phase — the motivation for provisioning to
        the peak, not the mean."""
        sim = Simulator()
        records = []
        server = ServerSim.exponential(
            sim, 1000.0, rng,
            on_complete=lambda context, arrival, start, finish: records.append(
                (arrival, finish - arrival)
            ),
        )
        period = 20.0
        process = TimeVaryingPoissonProcess.sinusoidal(
            700.0, 0.4, period, rng
        )
        process.start(sim, lambda t, size: server.offer_batch(t, size))
        sim.run_until(10 * period)
        times = np.array([r[0] for r in records])
        sojourns = np.array([r[1] for r in records])
        phase = (times % period) / period
        peak = sojourns[(phase > 0.125) & (phase < 0.375)].mean()
        trough = sojourns[(phase > 0.625) & (phase < 0.875)].mean()
        assert peak > 1.5 * trough


class TestQueueLengthPmf:
    def test_geometric_law(self):
        from repro.distributions import GeneralizedPareto

        queue = GIM1Queue(GeneralizedPareto(70.0, 0.2), 100.0)
        total = sum(queue.queue_length_pmf_at_arrivals(n) for n in range(500))
        assert total == pytest.approx(1.0, abs=1e-6)
        assert queue.queue_length_pmf_at_arrivals(0) == pytest.approx(
            1.0 - queue.sigma
        )

    def test_cdf_complements_pmf(self):
        from repro.distributions import Exponential

        queue = GIM1Queue(Exponential(60.0), 100.0)
        cdf = sum(queue.queue_length_pmf_at_arrivals(n) for n in range(5))
        assert queue.queue_length_cdf_at_arrivals(4) == pytest.approx(cdf)

    def test_mean_matches_geometric(self):
        from repro.distributions import Exponential

        queue = GIM1Queue(Exponential(60.0), 100.0)
        assert queue.mean_queue_length_at_arrivals() == pytest.approx(
            0.6 / 0.4
        )

    def test_rejects_bad_n(self):
        from repro.distributions import Exponential

        queue = GIM1Queue(Exponential(60.0), 100.0)
        with pytest.raises(ValidationError):
            queue.queue_length_pmf_at_arrivals(-1)

    def test_against_simulation(self, rng):
        """Arriving keys see a geometric number in system."""
        from repro.distributions import GeneralizedPareto

        lam, mu = 70.0, 100.0
        queue = GIM1Queue(GeneralizedPareto(lam, 0.2), mu)
        sim = Simulator()
        seen = []
        server = ServerSim.exponential(sim, mu, rng)

        def on_batch(t, size):
            seen.append(server.queue_length + (1 if server.busy else 0))
            server.offer_batch(t, size)

        from repro.simulation import BatchArrivalProcess
        from repro.distributions import FixedCount

        process = BatchArrivalProcess(
            GeneralizedPareto(lam, 0.2), FixedCount(1), rng
        )
        process.start(sim, on_batch)
        sim.run_until(2000.0)
        seen = np.asarray(seen)
        p0 = float(np.mean(seen == 0))
        assert p0 == pytest.approx(1.0 - queue.sigma, abs=0.03)
        assert seen.mean() == pytest.approx(
            queue.mean_queue_length_at_arrivals(), rel=0.1
        )
