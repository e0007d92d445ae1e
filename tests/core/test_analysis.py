"""Tests for the quantitative analysis helpers (paper §5.2)."""

import math

import pytest

from repro.core import (
    DatabaseStage,
    fit_linear_slope,
    fit_log_slope,
    goodness_of_linear_fit,
    marginal_benefit_fewer_keys,
    marginal_benefit_lower_miss_ratio,
)
from repro.errors import ValidationError
from repro.units import msec


class TestFits:
    def test_linear_slope(self):
        assert fit_linear_slope([0, 1, 2], [1, 3, 5]) == pytest.approx(2.0)

    def test_log_slope(self):
        xs = [10, 100, 1000]
        ys = [5 + 2 * math.log(x) for x in xs]
        assert fit_log_slope(xs, ys) == pytest.approx(2.0)

    def test_log_slope_rejects_nonpositive_x(self):
        with pytest.raises(ValidationError):
            fit_log_slope([0, 1], [1, 2])

    def test_r2_perfect(self):
        assert goodness_of_linear_fit([0, 1, 2], [1, 3, 5]) == pytest.approx(1.0)

    def test_r2_poor_for_nonlinear(self):
        xs = list(range(1, 20))
        ys = [math.exp(x / 3) for x in xs]
        assert goodness_of_linear_fit(xs, ys) < 0.9

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            fit_linear_slope([1], [1])
        with pytest.raises(ValidationError):
            fit_linear_slope([1, 1], [1, 2])


class TestMarginalBenefits:
    def test_large_n_benefits_converge(self):
        # In the logarithmic regime halving N and halving r both save
        # ~ln(2)/muD — the paper's point is that N can be cut drastically
        # while r is already tiny, not that the marginal savings differ.
        database = DatabaseStage(1.0 / msec(1), 0.01)
        n = 10_000
        fewer = marginal_benefit_fewer_keys(database, n)
        lower = marginal_benefit_lower_miss_ratio(database, n)
        assert fewer == pytest.approx(lower, rel=0.01)
        assert fewer == pytest.approx(0.693 / 1000.0, rel=0.02)

    def test_small_n_prefers_lower_miss_ratio(self):
        database = DatabaseStage(1.0 / msec(1), 0.01)
        n = 4
        assert marginal_benefit_lower_miss_ratio(database, n) > \
            marginal_benefit_fewer_keys(database, n)

    def test_benefits_positive(self):
        database = DatabaseStage(1.0 / msec(1), 0.01)
        assert marginal_benefit_fewer_keys(database, 100) > 0
        assert marginal_benefit_lower_miss_ratio(database, 100) > 0

    def test_rejects_bad_factor(self):
        database = DatabaseStage(1.0 / msec(1), 0.01)
        with pytest.raises(ValidationError):
            marginal_benefit_fewer_keys(database, 100, factor=1.0)
        with pytest.raises(ValidationError):
            marginal_benefit_lower_miss_ratio(database, 100, factor=0.5)
