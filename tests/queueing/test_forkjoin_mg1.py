"""Tests for the fork-join baselines and the M/G/1 queue."""

import pytest

from repro.core import fit_log_slope
from repro.distributions import Deterministic, Exponential, Hyperexponential
from repro.errors import StabilityError, ValidationError
from repro.queueing import (
    MG1Queue,
    SplitMergeBounds,
    nelson_tantawi_mean,
    varma_makowski_interpolation,
)


class TestMG1:
    def test_mm1_special_case(self):
        # Exponential service: P-K reduces to rho/(mu(1-rho)).
        queue = MG1Queue(60.0, Exponential(100.0))
        assert queue.mean_wait == pytest.approx(0.6 / (100.0 * 0.4))

    def test_md1_is_half_mm1_wait(self):
        lam = 60.0
        md1 = MG1Queue(lam, Deterministic(0.01))
        mm1 = MG1Queue(lam, Exponential(100.0))
        assert md1.mean_wait == pytest.approx(mm1.mean_wait / 2.0)

    def test_bursty_service_increases_wait(self):
        lam = 60.0
        smooth = MG1Queue(lam, Exponential(100.0))
        bursty = MG1Queue(lam, Hyperexponential.balanced_two_phase(0.01, 5.0))
        assert bursty.mean_wait > smooth.mean_wait

    def test_littles_law(self):
        queue = MG1Queue(50.0, Exponential(100.0))
        assert queue.mean_queue_length == pytest.approx(50.0 * queue.mean_sojourn)

    def test_rejects_unstable(self):
        with pytest.raises(StabilityError):
            MG1Queue(100.0, Exponential(100.0))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            MG1Queue(0.0, Exponential(1.0))


class TestNelsonTantawi:
    def test_n1_is_mm1_sojourn(self):
        assert nelson_tantawi_mean(1, 50.0, 100.0) == pytest.approx(1.0 / 50.0)

    def test_n2_exact_form(self):
        rho = 0.5
        expected = (12 - rho) / 8.0 / (100.0 - 50.0)
        assert nelson_tantawi_mean(2, 50.0, 100.0) == pytest.approx(expected)

    def test_grows_with_n(self):
        values = [nelson_tantawi_mean(n, 50.0, 100.0) for n in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_grows_with_rho(self):
        low = nelson_tantawi_mean(8, 30.0, 100.0)
        high = nelson_tantawi_mean(8, 80.0, 100.0)
        assert high > low

    def test_logarithmic_growth_in_n(self):
        # The classic fork-join result: E[T_N] = Theta(log N).
        ns = [4, 8, 16, 32, 64, 128]
        means = [nelson_tantawi_mean(n, 50.0, 100.0) for n in ns]
        slope = fit_log_slope(ns, means)
        assert slope > 0
        # Ratio of consecutive log-slopes should be stable (log-linear).
        mid = fit_log_slope(ns[:3], means[:3])
        assert slope == pytest.approx(mid, rel=0.2)

    def test_rejects_unstable(self):
        with pytest.raises(StabilityError):
            nelson_tantawi_mean(4, 100.0, 100.0)

    def test_rejects_fractional_n(self):
        with pytest.raises(ValidationError):
            nelson_tantawi_mean(1.5, 50.0, 100.0)


class TestVarmaMakowski:
    def test_light_traffic_limit(self):
        # As rho -> 0 the join time approaches H_N / mu.
        value = varma_makowski_interpolation(4, 0.001, 100.0)
        harmonic = (1 + 0.5 + 1 / 3 + 0.25) / 100.0
        assert value == pytest.approx(harmonic, rel=0.01)

    def test_diverges_near_saturation(self):
        assert varma_makowski_interpolation(4, 99.0, 100.0) > \
            varma_makowski_interpolation(4, 50.0, 100.0) * 10

    def test_rejects_unstable(self):
        with pytest.raises(StabilityError):
            varma_makowski_interpolation(4, 100.0, 100.0)


class TestSplitMergeBounds:
    def test_ordering(self):
        bounds = SplitMergeBounds(Exponential(100.0), 16)
        assert bounds.lower < bounds.upper_exact
        assert bounds.lower == pytest.approx(0.01)

    def test_upper_exact_is_harmonic_for_exponential(self):
        bounds = SplitMergeBounds(Exponential(1.0), 5)
        harmonic = 1 + 0.5 + 1 / 3 + 0.25 + 0.2
        assert bounds.upper_exact == pytest.approx(harmonic, rel=1e-6)

    def test_quantile_rule_close_to_exact(self):
        bounds = SplitMergeBounds(Exponential(1.0), 100)
        assert bounds.upper_quantile_rule == pytest.approx(
            bounds.upper_exact, rel=0.15
        )

    def test_as_tuple(self):
        bounds = SplitMergeBounds(Exponential(1.0), 3)
        low, high = bounds.as_tuple()
        assert low < high

    def test_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            SplitMergeBounds(Exponential(1.0), 0)


