"""Random-number-generator management.

All stochastic components take a :class:`numpy.random.Generator` explicitly
instead of touching global state, so experiments are reproducible and
parallel streams never collide. This module centralizes construction and
stream splitting.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Union

import numpy as np

from ..errors import ValidationError

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


#: Largest refill of a :class:`RandomWindow`, and of the simulator's
#: arrival and miss windows. Results are invariant to the window size
#: because each window consumes its own dedicated stream in order.
DEFAULT_RNG_WINDOW = 4096

#: First refill of a window: refills grow from here (see
#: :func:`refill_sizes`).
FIRST_RNG_WINDOW = 256


def refill_sizes(largest: int = DEFAULT_RNG_WINDOW) -> Iterator[int]:
    """Sizes of a window's successive refills: ``FIRST_RNG_WINDOW``
    values (at most ``largest``), then each refill as many as all
    before it, up to ``largest``.

    The values drawn so far double with each refill, so once a reader
    takes more than the first refill it has drawn fewer than twice the
    values it took, and a long run still draws ``largest`` at a time.
    """
    size = min(FIRST_RNG_WINDOW, largest)
    drawn = 0
    while True:
        yield size
        drawn += size
        size = min(drawn, largest)


class RandomWindow:
    """Pre-drawn window of random values with automatic refill.

    Replaces per-event scalar ``Generator`` calls on simulator hot paths:
    one vectorized draw of ``size`` values amortizes numpy's per-call
    overhead across the whole window, and :meth:`get` is a list index.

    The contract that makes this safe for seeded reproducibility: when
    ``fn(size)`` returns the same values as ``size`` successive scalar
    draws from the same stream (true for ``Generator.random``,
    ``Generator.exponential``, ``Generator.multinomial``, ... which fill
    vectorized output sequentially from one bit stream), the sequence
    :meth:`get` vends is bit-identical to the scalar calls it replaced —
    for *every* window size. Values are stored via ``ndarray.tolist()``
    so consumers receive plain Python floats/ints, exactly like
    ``float(rng.exponential(...))`` produced before.

    ``size`` is the largest refill; refills grow to it from
    :data:`FIRST_RNG_WINDOW` (:func:`refill_sizes`), so a short run
    draws little more than it reads.
    """

    __slots__ = ("_fn", "_size", "_sizes", "_values", "_index")

    def __init__(self, fn: Callable[[int], np.ndarray], size: Optional[int] = None) -> None:
        if size is None:
            size = DEFAULT_RNG_WINDOW
        if size < 1:
            raise ValidationError(f"window size must be >= 1, got {size}")
        self._fn = fn
        self._size = int(size)
        self._sizes = refill_sizes(self._size)
        self._values: list = []
        self._index = 0

    @property
    def window_size(self) -> int:
        """The largest refill."""
        return self._size

    @property
    def remaining(self) -> int:
        """Values left before the next refill."""
        return len(self._values) - self._index

    def get(self):
        """The next value (refilling the window when it runs dry)."""
        i = self._index
        if i >= len(self._values):
            self._values = np.asarray(self._fn(next(self._sizes))).tolist()
            i = 0
        self._index = i + 1
        return self._values[i]

    def take(self, count: int) -> list:
        """The next ``count`` values as a list: the values ``count``
        calls of :meth:`get` would return, refilling as they would."""
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        start = self._index
        stop = start + count
        if stop <= len(self._values):
            self._index = stop
            return self._values[start:stop]
        out = self._values[start:]
        while len(out) < count:
            self._values = np.asarray(self._fn(next(self._sizes))).tolist()
            grab = min(count - len(out), len(self._values))
            out.extend(self._values[:grab])
            self._index = grab
        return out

    # Convenience constructors for the common simulator streams. ------

    @classmethod
    def exponential(
        cls,
        rng: np.random.Generator,
        mean: float,
        size: Optional[int] = None,
    ) -> "RandomWindow":
        """Windowed ``rng.exponential(mean)`` draws (arrival gaps)."""
        return cls(lambda n: rng.exponential(mean, n), size)

    @classmethod
    def uniform(
        cls, rng: np.random.Generator, size: Optional[int] = None
    ) -> "RandomWindow":
        """Windowed ``rng.random()`` draws (Bernoulli thinning, misses)."""
        return cls(lambda n: rng.random(n), size)

    @classmethod
    def multinomial(
        cls,
        rng: np.random.Generator,
        n: int,
        pvals,
        size: Optional[int] = None,
    ) -> "RandomWindow":
        """Windowed ``rng.multinomial(n, pvals)`` rows (key routing)."""
        pvals = np.asarray(pvals, dtype=float)
        return cls(lambda w: rng.multinomial(n, pvals, size=w), size)

    @classmethod
    def from_distribution(
        cls, distribution, rng: np.random.Generator, size: Optional[int] = None
    ) -> "RandomWindow":
        """Windowed draws from a :class:`Distribution` (service times).

        Uses the distribution's :meth:`~Distribution.sample_window`
        (bit-identical-to-scalar contract) when available, falling back
        to a scalar loop for duck-typed distributions.
        """
        window = getattr(distribution, "sample_window", None)
        if window is not None:
            return cls(lambda n: window(rng, n), size)
        return cls(
            lambda n: np.asarray([distribution.sample(rng) for _ in range(n)]),
            size,
        )


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Build a :class:`numpy.random.Generator` from a flexible seed spec.

    Accepts ``None`` (OS entropy), an int seed, an existing generator
    (returned unchanged), or a :class:`numpy.random.SeedSequence`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.default_rng(seed)


def seed_sequence(rng: np.random.Generator) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` behind a generator.

    Spawning children from the seed sequence (rather than drawing seeds
    from the generator's stream) makes the children a pure function of
    the parent's *seed*: consuming random numbers from the parent before
    splitting no longer changes which child streams are handed out.
    """
    bit_generator = rng.bit_generator
    seq = getattr(bit_generator, "seed_seq", None)
    if seq is None:  # numpy < 1.24 spelled it _seed_seq
        seq = getattr(bit_generator, "_seed_seq", None)
    if isinstance(seq, np.random.SeedSequence):
        return seq
    # Exotic bit generator without a seed sequence: derive one from the
    # stream (the legacy, order-dependent behavior — unavoidable here).
    return np.random.SeedSequence(int(rng.integers(0, 2**63 - 1)))


def split_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Children are spawned from the parent's seed sequence, so two
    simulator components (e.g. one arrival process per server) never
    share a stream, and the assignment depends only on the parent seed
    and spawn order — not on how much of the parent stream was consumed
    beforehand.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    children = seed_sequence(rng).spawn(count)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def spawn_child(rng: np.random.Generator, tag: Optional[int] = None) -> np.random.Generator:
    """Derive a single child generator, optionally keyed by ``tag``.

    A tagged child (e.g. per server index) is a deterministic function
    of (parent seed, tag): tags extend the seed sequence's spawn key,
    offset far above the sequential spawn counter so they can never
    collide with :func:`split_rng` children of the same parent.
    """
    seq = seed_sequence(rng)
    if tag is None:
        child = seq.spawn(1)[0]
    else:
        child = np.random.SeedSequence(
            entropy=seq.entropy,
            spawn_key=tuple(seq.spawn_key) + (2**31 + int(tag),),
        )
    return np.random.Generator(np.random.PCG64(child))
