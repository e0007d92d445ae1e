"""Tests for RNG management, the Distribution base class and validators."""

import math

import numpy as np
import pytest

from repro.distributions import (
    Exponential,
    GeneralizedPareto,
    make_rng,
    require_positive,
    require_probability,
    require_weights,
    spawn_child,
    split_rng,
)
from repro.distributions.laplace import laplace_from_survival
from repro.errors import ValidationError


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_from_seed_sequence(self):
        seq = np.random.SeedSequence(42)
        gen = make_rng(seq)
        assert isinstance(gen, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSplitRng:
    def test_children_are_independent(self):
        parent = make_rng(3)
        a, b = split_rng(parent, 2)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_deterministic_given_parent_seed(self):
        a1, _ = split_rng(make_rng(3), 2)
        a2, _ = split_rng(make_rng(3), 2)
        assert np.array_equal(a1.random(5), a2.random(5))

    def test_zero_count(self):
        assert split_rng(make_rng(0), 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            split_rng(make_rng(0), -1)

    def test_spawn_child_tag_changes_stream(self):
        a = spawn_child(make_rng(5), tag=1)
        b = spawn_child(make_rng(5), tag=2)
        assert not np.array_equal(a.random(5), b.random(5))

    def test_split_independent_of_parent_consumption(self):
        # Regression: children used to be drawn from the parent's
        # stream, so consuming the parent before splitting reassigned
        # every component's stream.
        fresh = make_rng(3)
        consumed = make_rng(3)
        consumed.random(1000)
        for a, b in zip(split_rng(fresh, 4), split_rng(consumed, 4)):
            assert np.array_equal(a.random(10), b.random(10))

    def test_spawn_child_tag_independent_of_parent_consumption(self):
        fresh = spawn_child(make_rng(5), tag=7)
        consumed_parent = make_rng(5)
        consumed_parent.random(123)
        consumed = spawn_child(consumed_parent, tag=7)
        assert np.array_equal(fresh.random(10), consumed.random(10))

    def test_tagged_children_disjoint_from_split_children(self):
        parent = make_rng(11)
        split = split_rng(make_rng(11), 4)
        tagged = [spawn_child(parent, tag=t) for t in range(4)]
        split_draws = [g.random(5).tolist() for g in split]
        for child in tagged:
            assert child.random(5).tolist() not in split_draws

    def test_sequential_splits_do_not_collide(self):
        parent = make_rng(9)
        (first,) = split_rng(parent, 1)
        (second,) = split_rng(parent, 1)
        assert not np.array_equal(first.random(10), second.random(10))


class TestValidators:
    def test_require_positive(self):
        assert require_positive("x", 2) == 2.0
        with pytest.raises(ValidationError):
            require_positive("x", 0)

    def test_require_probability_closed(self):
        assert require_probability("p", 0.0) == 0.0
        assert require_probability("p", 1.0) == 1.0
        with pytest.raises(ValidationError):
            require_probability("p", 1.1)

    def test_require_probability_open(self):
        with pytest.raises(ValidationError):
            require_probability("p", 0.0, closed=False)

    def test_require_weights(self):
        weights = require_weights("w", [0.25, 0.75])
        assert weights.sum() == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            require_weights("w", [0.5, 0.6])
        with pytest.raises(ValidationError):
            require_weights("w", [])


class TestBaseDefaults:
    def test_default_quantile_bisection(self):
        # GPD at xi>0 has a closed-form quantile; compare against the
        # generic bisection by calling the base implementation.
        from repro.distributions.base import Distribution

        dist = GeneralizedPareto(1.0, 0.3)
        generic = Distribution.quantile(dist, 0.9)
        assert generic == pytest.approx(dist.quantile(0.9), rel=1e-6)

    def test_default_pdf_finite_difference(self):
        from repro.distributions.base import Distribution

        dist = Exponential(2.0)
        approx = Distribution.pdf(dist, 0.5)
        assert approx == pytest.approx(dist.pdf(0.5), rel=1e-3)

    def test_cv2(self):
        assert Exponential(1.0).cv2 == pytest.approx(1.0)

    def test_rate(self):
        assert Exponential(4.0).rate == pytest.approx(4.0)


class TestLaplaceUtilities:
    def test_survival_form_matches_closed_form(self):
        exp = Exponential(2.0)
        value = laplace_from_survival(exp.survival, 3.0, mean=exp.mean)
        assert value == pytest.approx(2.0 / 5.0, rel=1e-8)

    def test_rejects_negative_argument(self):
        exp = Exponential(2.0)
        with pytest.raises(ValidationError):
            laplace_from_survival(exp.survival, -1.0)
