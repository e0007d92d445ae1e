"""Tests for the windowed RNG pre-draw layer.

``RandomWindow`` vends values from vectorized windows drawn off a
dedicated generator. Its whole value rests on one contract:
``sample_window(rng, size)`` must be **bit-identical** to ``size``
scalar ``sample(rng)`` calls — then a stream consumed through a window
of any size produces exactly the per-event sequence, and the simulator
stays seeded-reproducible while dropping per-event Generator overhead.
"""

import numpy as np
import pytest

from repro.distributions import (
    DEFAULT_RNG_WINDOW,
    Deterministic,
    Exponential,
    FixedCount,
    GeneralizedPareto,
    Geometric,
    Lognormal,
    RandomWindow,
    TruncatedBinomial,
    Zipf,
    make_rng,
)
from repro.distributions.rng import FIRST_RNG_WINDOW, refill_sizes
from repro.errors import ValidationError

#: Distributions with hand-vectorized ``sample_window`` overrides plus
#: one (Lognormal) exercising the scalar-loop default.
DISTRIBUTIONS = [
    Exponential(1250.0),
    Deterministic(3.5e-4),
    Geometric(0.4),
    FixedCount(4),
    TruncatedBinomial(20, 0.3),
    Zipf(50, 1.3),
    GeneralizedPareto(rate=500.0, xi=0.0),
    GeneralizedPareto(rate=500.0, xi=0.15),
    Lognormal(mu=-7.0, sigma=0.5),
]


def dist_id(dist):
    return type(dist).__name__ + getattr(dist, "_test_suffix", "")


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=dist_id)
class TestSampleWindowContract:
    def test_bit_identical_to_scalar_draws(self, dist):
        scalar_rng = make_rng(20170327)
        window_rng = make_rng(20170327)
        scalar = [dist.sample(scalar_rng) for _ in range(257)]
        window = dist.sample_window(window_rng, 257)
        assert np.array_equal(np.asarray(scalar, dtype=float), window)

    def test_generator_state_matches_scalar_path(self, dist):
        scalar_rng = make_rng(5)
        window_rng = make_rng(5)
        for _ in range(100):
            dist.sample(scalar_rng)
        dist.sample_window(window_rng, 100)
        assert scalar_rng.random() == window_rng.random()


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=dist_id)
class TestWindowSizeInvariance:
    @pytest.mark.parametrize("size", [1, 3, 64])
    def test_get_sequence_independent_of_window_size(self, dist, size):
        scalar_rng = make_rng(11)
        windowed = RandomWindow.from_distribution(
            dist, make_rng(11), size=size
        )
        for _ in range(150):
            assert float(dist.sample(scalar_rng)) == windowed.get()


class TestRandomWindowMechanics:
    def test_take_crosses_refill_boundary(self):
        dist = Exponential(100.0)
        windowed = RandomWindow.from_distribution(dist, make_rng(3), size=8)
        reference = RandomWindow.from_distribution(dist, make_rng(3), size=8)
        taken = np.concatenate([windowed.take(5), windowed.take(5)])
        expected = np.array([reference.get() for _ in range(10)])
        assert np.array_equal(taken, expected)

    @pytest.mark.parametrize("counts", [(0, 3), (3, 5, 8), (20, 1), (8, 8, 8)])
    def test_take_equals_as_many_gets(self, counts):
        """Across refills, ``take(n)`` is the list ``n`` gets return,
        and the stream carries on where it stops."""
        windowed = RandomWindow.uniform(make_rng(5), size=8)
        reference = RandomWindow.uniform(make_rng(5), size=8)
        for count in counts:
            taken = windowed.take(count)
            assert isinstance(taken, list)
            assert taken == [reference.get() for _ in range(count)]
        assert windowed.get() == reference.get()
        assert windowed.remaining == reference.remaining

    def test_uniform_window_matches_scalar_random(self):
        scalar_rng = make_rng(9)
        window = RandomWindow.uniform(make_rng(9), size=16)
        for _ in range(50):
            assert scalar_rng.random() == window.get()

    def test_exponential_window_matches_scalar(self):
        scalar_rng = make_rng(13)
        window = RandomWindow.exponential(make_rng(13), 2.5, size=4)
        for _ in range(13):
            assert float(scalar_rng.exponential(2.5)) == window.get()

    def test_multinomial_window_matches_scalar(self):
        scalar_rng = make_rng(17)
        window = RandomWindow.multinomial(
            make_rng(17), 12, [0.5, 0.3, 0.2], size=6
        )
        for _ in range(20):
            expected = scalar_rng.multinomial(12, [0.5, 0.3, 0.2])
            assert np.array_equal(expected, window.get())

    def test_default_window_size(self):
        assert DEFAULT_RNG_WINDOW >= 1
        window = RandomWindow.uniform(make_rng(1))
        assert window.window_size == DEFAULT_RNG_WINDOW

    def test_invalid_size_rejected(self):
        with pytest.raises(ValidationError):
            RandomWindow.uniform(make_rng(1), size=0)


#: Windows over the simulator's stream kinds, each with the one long
#: draw of ``n`` values its sequence must equal.
WINDOW_KINDS = {
    "exponential": (
        lambda rng, size: RandomWindow.exponential(rng, 2.5, size),
        lambda rng, n: rng.exponential(2.5, n).tolist(),
    ),
    "uniform": (
        lambda rng, size: RandomWindow.uniform(rng, size),
        lambda rng, n: rng.random(n).tolist(),
    ),
    "multinomial": (
        lambda rng, size: RandomWindow.multinomial(rng, 12, [0.5, 0.3, 0.2], size),
        lambda rng, n: rng.multinomial(12, [0.5, 0.3, 0.2], size=n).tolist(),
    ),
}

#: Read patterns: gets, takes that straddle refills of every size in
#: the growth schedule (255 + 2 crosses the first, 700 the next ones),
#: and a mix of both.
READS = {
    "gets": [1] * 600,
    "takes": [255, 2, 700, 0, 1500, 3000, 5000],
    "mixed": [1, 3, 1, 300, 1, 1, 900, 2000, 1, 4200, 1],
}


@pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
@pytest.mark.parametrize("size", [1, 3, 256, 4096])
@pytest.mark.parametrize("reads", sorted(READS))
def test_reads_equal_one_long_draw(kind, size, reads):
    """Whatever the largest refill and however the reads straddle the
    growing refills, a window vends the values of one long draw."""
    make, draw = WINDOW_KINDS[kind]
    counts = READS[reads]
    window = make(make_rng(23), size)
    got = []
    for count in counts:
        if count == 1:
            got.append(window.get())
        else:
            got.extend(window.take(count))
    assert got == draw(make_rng(23), sum(counts))


class TestRefillSizes:
    def test_growth_schedule(self):
        sizes = refill_sizes()
        assert [next(sizes) for _ in range(8)] == [
            256, 256, 512, 1024, 2048, 4096, 4096, 4096
        ]
        assert FIRST_RNG_WINDOW == 256 and DEFAULT_RNG_WINDOW == 4096

    @pytest.mark.parametrize("largest", [1, 3, 256, 300, 4096])
    def test_capped_at_largest(self, largest):
        sizes = refill_sizes(largest)
        drawn = [next(sizes) for _ in range(12)]
        assert max(drawn) == largest
        assert drawn[0] == min(FIRST_RNG_WINDOW, largest)

    @pytest.mark.parametrize("used", [257, 300, 513, 1000, 4097, 9000, 30000])
    def test_draws_under_twice_what_a_reader_takes(self, used):
        """Past the first refill, the values drawn to serve ``used``
        reads are fewer than twice ``used``."""
        sizes = refill_sizes()
        drawn = 0
        while drawn < used:
            drawn += next(sizes)
        assert drawn < 2 * used

    def test_window_refills_grow(self):
        requested = []

        def fn(n):
            requested.append(n)
            return np.zeros(n)

        window = RandomWindow(fn)
        window.take(5000)
        assert requested == [256, 256, 512, 1024, 2048, 4096]
        assert window.window_size == DEFAULT_RNG_WINDOW
