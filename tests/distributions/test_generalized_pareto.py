"""Tests for the Generalized Pareto gap law (paper eq. (24))."""

import math

import numpy as np
import pytest
from scipy import integrate

from repro.distributions import Exponential, GeneralizedPareto
from repro.errors import ValidationError
from repro.queueing import delta_for_utilization


class TestParameterization:
    def test_mean_is_inverse_rate_for_all_xi(self):
        for xi in (0.0, 0.15, 0.5, 0.9):
            assert math.isclose(GeneralizedPareto(62500.0, xi).mean, 1 / 62500.0)

    def test_scale_matches_paper_form(self):
        dist = GeneralizedPareto(10.0, 0.2)
        assert math.isclose(dist.scale, 0.8 / 10.0)

    def test_cdf_matches_eq24(self):
        lam, xi = 62500.0, 0.15
        dist = GeneralizedPareto(lam, xi)
        t = 40e-6
        expected = 1.0 - (1.0 + xi * lam * t / (1.0 - xi)) ** (-1.0 / xi)
        assert math.isclose(dist.cdf(t), expected, rel_tol=1e-12)

    def test_xi_zero_is_exponential(self):
        gpd = GeneralizedPareto(100.0, 0.0)
        exp = Exponential(100.0)
        for t in (0.001, 0.01, 0.05):
            assert math.isclose(gpd.cdf(t), exp.cdf(t), rel_tol=1e-12)

    def test_variance_finite_below_half(self):
        assert math.isfinite(GeneralizedPareto(1.0, 0.49).variance)

    def test_variance_infinite_at_half(self):
        assert GeneralizedPareto(1.0, 0.5).variance == math.inf

    def test_rejects_xi_out_of_range(self):
        with pytest.raises(ValidationError):
            GeneralizedPareto(1.0, -0.1)
        with pytest.raises(ValidationError):
            GeneralizedPareto(1.0, 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            GeneralizedPareto(0.0, 0.1)

    def test_with_rate_preserves_xi(self):
        dist = GeneralizedPareto(10.0, 0.3).with_rate(20.0)
        assert dist.xi == 0.3
        assert dist.arrival_rate == 20.0


class TestShape:
    def test_heavier_tail_with_larger_xi(self):
        t = 5.0  # five mean gaps out
        light = GeneralizedPareto(1.0, 0.05)
        heavy = GeneralizedPareto(1.0, 0.8)
        assert heavy.survival(t) > light.survival(t)

    def test_quantile_inverts_cdf(self):
        dist = GeneralizedPareto(10.0, 0.3)
        for k in (0.01, 0.5, 0.99, 0.9999):
            assert math.isclose(dist.cdf(dist.quantile(k)), k, rel_tol=1e-10)

    def test_pdf_integrates_to_one(self):
        dist = GeneralizedPareto(2.0, 0.25)
        mass, _ = integrate.quad(dist.pdf, 0, np.inf)
        assert mass == pytest.approx(1.0, rel=1e-8)

    def test_pdf_negative_is_zero(self):
        assert GeneralizedPareto(1.0, 0.2).pdf(-0.5) == 0.0


class TestLaplace:
    @pytest.mark.parametrize("xi", [0.15, 0.5, 0.8])
    @pytest.mark.parametrize("s", [0.01, 0.5, 2.0, 50.0])
    def test_hyperu_matches_quadrature(self, xi, s):
        dist = GeneralizedPareto(1.0, xi)
        brute, _ = integrate.quad(
            lambda t: math.exp(-s * t) * dist.pdf(t), 0, np.inf, limit=400
        )
        assert dist.laplace(s) == pytest.approx(brute, rel=1e-7)

    @pytest.mark.parametrize("xi", [5e-10, 1e-8, 9e-7])
    @pytest.mark.parametrize("s", [0.01, 0.5, 2.0, 50.0])
    def test_small_shape_series_matches_quadrature(self, xi, s):
        # hyperu needs seconds per call at these shapes (and is off by
        # ~1e-9); the O(xi^3) series is exact to double precision.
        dist = GeneralizedPareto(1.0, xi)
        brute, _ = integrate.quad(
            lambda t: math.exp(-s * t) * dist.pdf(t), 0, np.inf, limit=400
        )
        assert dist.laplace(s) == pytest.approx(brute, rel=1e-12)

    def test_small_shape_root_is_near_poisson(self):
        # Through hyperu this root solve took over two minutes; the
        # delta of a near-exponential gap is rho + O(xi).
        assert delta_for_utilization(5.2e-10, 0.103) == pytest.approx(
            0.103, abs=1e-8
        )

    def test_laplace_at_zero(self):
        assert GeneralizedPareto(1.0, 0.3).laplace(0.0) == 1.0

    def test_laplace_decreasing_in_s(self):
        dist = GeneralizedPareto(1.0, 0.3)
        values = [dist.laplace(s) for s in (0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_laplace_slope_at_zero_is_minus_mean(self):
        dist = GeneralizedPareto(5.0, 0.2)
        h = 1e-6
        slope = (dist.laplace(h) - 1.0) / h
        assert slope == pytest.approx(-dist.mean, rel=1e-3)

    def test_laplace_rejects_negative(self):
        with pytest.raises(ValidationError):
            GeneralizedPareto(1.0, 0.2).laplace(-1.0)


class TestSampling:
    def test_sample_mean(self, rng):
        dist = GeneralizedPareto(100.0, 0.15)
        samples = dist.sample(rng, 300_000)
        assert samples.mean() == pytest.approx(0.01, rel=0.02)

    def test_sample_matches_cdf(self, rng):
        dist = GeneralizedPareto(1.0, 0.3)
        samples = dist.sample(rng, 100_000)
        for k in (0.25, 0.5, 0.9):
            assert np.quantile(samples, k) == pytest.approx(
                dist.quantile(k), rel=0.05
            )

    def test_scalar_sample(self, rng):
        value = GeneralizedPareto(1.0, 0.3).sample(rng)
        assert isinstance(value, float)

    def test_xi_zero_sampling(self, rng):
        samples = GeneralizedPareto(10.0, 0.0).sample(rng, 100_000)
        assert samples.mean() == pytest.approx(0.1, rel=0.02)
