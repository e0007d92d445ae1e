"""Measurement collection: streaming moments, quantiles, CIs, utilization.

The paper reports means with confidence intervals (Table 3) and quantile
curves (Fig. 4); :class:`LatencyRecorder` supports both: Welford
streaming moments plus an optional bounded sample store for quantiles.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import List, Optional, Sequence

import numpy as np
from scipy import special

from ..errors import ValidationError


@dataclasses.dataclass(frozen=True)
class SummaryStats:
    """Summary of a latency sample: moments, CI, quantiles."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float

    @property
    def ci(self) -> tuple[float, float]:
        return self.ci_low, self.ci_high

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return self.ci_low <= value <= self.ci_high


@functools.lru_cache(maxsize=1024)
def _t_quantile(level: float, df: int) -> float:
    """Student-t quantile, memoized: every stage of a run shares its
    sample count, so a result asks for the same one several times.

    ``special.stdtrit`` is the kernel ``stats.t.ppf`` calls, so the value
    is the same without importing ``scipy.stats``."""
    return float(special.stdtrit(df, level))


class LatencyRecorder:
    """Streaming mean/variance plus (optionally capped) raw samples.

    With the default unbounded storage, quantiles are exact. For very
    long runs pass ``max_samples``: storage switches to uniform
    reservoir sampling, keeping quantile estimates unbiased. The stored
    samples are one float64 array, so quantiles read them without a
    conversion.
    """

    def __init__(
        self,
        *,
        max_samples: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if max_samples is not None and max_samples < 2:
            raise ValidationError(f"max_samples must be >= 2, got {max_samples}")
        self._max_samples = max_samples
        #: Reservoir draws; ``default_rng(0)`` is made on the first one.
        self._rng = rng
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: The stored samples are ``_store[:_stored]``; the array grows
        #: by doubling, up to ``max_samples``.
        self._store = np.empty(0)
        self._stored = 0

    def _reserve(self, size: int) -> None:
        """Room for ``size`` stored samples."""
        if size > self._store.size:
            capacity = max(size, 2 * self._store.size)
            if self._max_samples is not None:
                capacity = min(capacity, self._max_samples)
            grown = np.empty(capacity)
            grown[: self._stored] = self._store[: self._stored]
            self._store = grown

    def _reservoir_rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        return self._rng

    # ------------------------------------------------------------------

    def record(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"observation must be finite, got {value}")
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if self._max_samples is None or self._stored < self._max_samples:
            self._reserve(self._stored + 1)
            self._store[self._stored] = value
            self._stored += 1
        else:
            # Reservoir sampling: replace with probability cap/count.
            slot = int(self._reservoir_rng().integers(0, self._count))
            if slot < self._max_samples:
                self._store[slot] = value

    def record_many(self, values: Sequence[float]) -> None:
        """Add a batch of observations (vectorized).

        Equivalent to calling :meth:`record` per element — same
        validation, same streaming moments (merged with the Chan
        parallel-Welford update), same uniform-reservoir semantics —
        but one NumPy pass instead of a Python loop. Observations that
        are all equal keep that value as their mean and zero spread
        exactly, as the scalar updates do; a merged mean need not.
        """
        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return
        finite = np.isfinite(array)
        if not finite.all():
            bad = float(array[~finite][0])
            raise ValidationError(f"observation must be finite, got {bad}")
        n = int(array.size)
        batch_mean = float(array.mean())
        batch_m2 = float(np.square(array - batch_mean).sum())
        total = self._count + n
        delta = batch_mean - self._mean
        self._mean += delta * n / total
        self._m2 += batch_m2 + delta * delta * self._count * n / total
        self._min = min(self._min, float(array.min()))
        self._max = max(self._max, float(array.max()))
        if self._min == self._max:
            self._mean, self._m2 = self._min, 0.0
        start_count = self._count
        self._count = total
        cap = self._max_samples
        fill = n if cap is None else min(max(cap - self._stored, 0), n)
        if fill:
            self._reserve(self._stored + fill)
            self._store[self._stored : self._stored + fill] = array[:fill]
            self._stored += fill
        if fill == n:
            return
        # Reservoir step for the remainder: element with global index
        # c (1-based) replaces a uniform slot in [0, c) when slot < cap,
        # in order, so a later element wins a slot drawn twice.
        rest = array[fill:]
        counts = start_count + fill + 1 + np.arange(rest.size)
        draws = self._reservoir_rng().random(rest.size)
        slots = np.floor(draws * counts).astype(np.int64)
        accepted = slots < cap
        store = self._store
        for slot, value in zip(slots[accepted].tolist(), rest[accepted].tolist()):
            store[slot] = value

    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValidationError("no observations recorded")
        return self._mean

    @property
    def variance(self) -> float:
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise ValidationError("no observations recorded")
        return self._min

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise ValidationError("no observations recorded")
        return self._max

    def quantile(self, k: float) -> float:
        """Empirical k-th quantile from the stored samples."""
        if not 0.0 <= k <= 1.0:
            raise ValidationError(f"quantile level must be in [0, 1]: {k}")
        if not self._stored:
            raise ValidationError("no observations recorded")
        return float(np.quantile(self._store[: self._stored], k))

    def quantiles(self, ks: Sequence[float]) -> List[float]:
        """Several empirical quantiles at once.

        One ``np.quantile`` call for every level; each value equals
        :meth:`quantile` at its level bit for bit, and a bad level or an
        empty recorder raises as there.
        """
        levels = [float(k) for k in ks]
        for k in levels:
            if not 0.0 <= k <= 1.0:
                raise ValidationError(f"quantile level must be in [0, 1]: {k}")
            if not self._stored:
                raise ValidationError("no observations recorded")
        if not levels:
            return []
        if self._min == self._max:
            # Every observation, and so every quantile, is this value.
            return [self._min] * len(levels)
        return np.quantile(self._store[: self._stored], levels).tolist()

    def confidence_interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """t-based CI for the mean (the paper's Table 3 style)."""
        if not 0.0 < confidence < 1.0:
            raise ValidationError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        if self._count < 2:
            raise ValidationError("need at least two observations for a CI")
        half = _t_quantile(
            0.5 + confidence / 2.0, self._count - 1
        ) * self.std / math.sqrt(self._count)
        return self._mean - half, self._mean + half

    def summary(self, confidence: float = 0.95) -> SummaryStats:
        """Full summary used by benches and the CLI."""
        low, high = self.confidence_interval(confidence)
        return SummaryStats(
            count=self._count,
            mean=self.mean,
            std=self.std,
            ci_low=low,
            ci_high=high,
        )

    def samples(self) -> np.ndarray:
        """A copy of the stored (possibly subsampled) observations."""
        return self._store[: self._stored].copy()


def _served_back_to_back(starts: Sequence[float], rows: Sequence[list]) -> tuple:
    """``(start, finish, sizes)`` arrays of keys served back to back:
    row ``r`` holds the finishes of keys whose first started at
    ``starts[r]`` and each later one when the one before it finished."""
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    finish = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=float, count=int(sizes.sum())
    )
    start = np.empty_like(finish)
    start[1:] = finish[:-1]
    start[np.cumsum(sizes) - sizes] = starts
    return start, finish, sizes


#: Keys :meth:`UtilizationMeter.server_ran` lets pile up before a fold:
#: enough to amortize the numpy calls, few enough that the finish lists
#: held until then do not raise a run's peak memory.
_FOLD_KEYS = 1024


class UtilizationMeter:
    """Tracks busy time of a server to report measured utilization."""

    def __init__(self) -> None:
        self._busy = 0.0
        self._busy_since: Optional[float] = None
        self._start: Optional[float] = None
        # Runs not folded into _busy yet: each one's start and finishes.
        self._ran_starts: List[float] = []
        self._ran: List[list] = []
        self._ran_keys = 0

    def server_started(self, now: float) -> None:
        """Server transitioned idle -> busy."""
        if self._start is None:
            self._start = now
        self._busy_since = now

    def server_ran(self, finishes: Sequence[float], *, idle: bool) -> None:
        """Keys finished at ``finishes``, served back to back from the
        instant the server started or the last key before them finished;
        the server goes idle at the last finish when ``idle``.

        Busy time is folded later, about a thousand keys at a time,
        with one ``np.cumsum``: it adds the keys' ``finish - start`` in
        order, one after another, so ``busy`` is the float that adding
        each key's busy time as it finished would leave.
        """
        if self._busy_since is None:
            raise ValidationError("server was not busy")
        self._ran_starts.append(self._busy_since)
        self._ran.append(finishes)
        self._ran_keys += len(finishes)
        self._busy_since = None if idle else finishes[-1]
        if self._ran_keys >= _FOLD_KEYS:
            self._fold()

    def _fold(self) -> None:
        start, finish, _ = _served_back_to_back(self._ran_starts, self._ran)
        steps = np.empty(finish.size + 1)
        steps[0] = self._busy
        np.subtract(finish, start, out=steps[1:])
        self._busy = float(np.cumsum(steps)[-1])
        self._ran_starts.clear()
        self._ran.clear()
        self._ran_keys = 0

    def utilization(self, now: float) -> float:
        """Fraction of time busy over the observed span."""
        if self._start is None:
            return 0.0
        if self._ran:
            self._fold()
        busy = self._busy
        if self._busy_since is not None:
            busy += now - self._busy_since
        span = now - self._start
        if span <= 0:
            return 0.0
        return busy / span
