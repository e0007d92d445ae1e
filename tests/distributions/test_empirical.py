"""Tests for the Empirical distribution."""

import math

import numpy as np
import pytest

from repro.distributions import Empirical
from repro.errors import ValidationError


class TestEmpirical:
    def test_moments(self):
        dist = Empirical([1.0, 2.0, 3.0, 4.0])
        assert dist.mean == 2.5
        assert dist.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))

    def test_cdf_steps(self):
        dist = Empirical([1.0, 2.0, 3.0, 4.0])
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(2.0) == 0.5
        assert dist.cdf(10.0) == 1.0

    def test_quantile(self):
        dist = Empirical([1.0, 2.0, 3.0, 4.0])
        assert dist.quantile(0.5) in (2.0, 3.0)

    def test_laplace_is_sample_average(self):
        data = [0.5, 1.5]
        dist = Empirical(data)
        expected = 0.5 * (math.exp(-0.5) + math.exp(-1.5))
        assert dist.laplace(1.0) == pytest.approx(expected)

    def test_sampling_stays_in_support(self, rng):
        data = [1.0, 2.0, 3.0]
        samples = Empirical(data).sample(rng, 100)
        assert set(np.unique(samples)) <= set(data)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Empirical([])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Empirical([1.0, -2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            Empirical([1.0, float("nan")])


