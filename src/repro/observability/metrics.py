"""Cheap always-on metric primitives: histograms, counters, gauges.

The paper's analysis decomposes latency per stage; validating that
decomposition on a live run needs per-stage distributions that are cheap
to record (O(1) per observation, no sample storage). :class:`Histogram`
is an HDR-style log-bucketed histogram — fixed relative error per
bucket, quantiles by interpolation — and :class:`MetricsRegistry` is the
namespace the simulator components publish into. Exact-moment paths
(Table 3 confidence intervals) keep using
:class:`~repro.simulation.metrics.LatencyRecorder`; these primitives
cover everything else.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ValidationError


@functools.lru_cache(maxsize=None)
def _bucket_bounds(log_min: float, bpd: int, index: int) -> Tuple[float, float]:
    """``[lower, upper)`` of bucket ``index``, memoized per geometry.

    Quantile and threshold queries walk every non-empty bucket on every
    call; the cache spares them two ``**`` per bucket while keeping the
    exact scalar expressions, so bounds stay bit-identical.
    """
    lower = 10.0 ** (log_min + index / bpd)
    upper = 10.0 ** (log_min + (index + 1) / bpd)
    return lower, upper


class Histogram:
    """Log-bucketed histogram with bounded relative error.

    Bucket ``i`` covers ``[min_value * g**i, min_value * g**(i+1))`` with
    ``g = 10 ** (1 / buckets_per_decade)``, so every recorded value is
    off by at most a factor ``g`` (~4.7% at the default resolution).
    Zero is tracked in a dedicated bucket; sub-``min_value`` positives
    clamp into bucket 0. Storage is a sparse dict, so wide dynamic
    ranges (nanoseconds to seconds) stay small.
    """

    def __init__(
        self,
        *,
        min_value: float = 1e-9,
        buckets_per_decade: int = 50,
    ) -> None:
        if min_value <= 0:
            raise ValidationError(f"min_value must be > 0, got {min_value}")
        if buckets_per_decade < 1:
            raise ValidationError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self._min_value = float(min_value)
        self._bpd = int(buckets_per_decade)
        self._log_min = math.log10(self._min_value)
        self._counts: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf
        # (buckets, cumulative counts, upper bounds), built on the first
        # query after a change and dropped by every mutator.
        self._walk: Optional[Tuple[list, list, list]] = None

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def record(self, value: float) -> None:
        """Add one observation (must be finite and >= 0)."""
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"observation must be finite, got {value}")
        if value < 0:
            raise ValidationError(f"observation must be >= 0, got {value}")
        self._walk = None
        self._count += 1
        self._sum += value
        self._sumsq += value * value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value == 0.0:
            self._zero += 1
            return
        index = self.bucket_index(value)
        self._counts[index] = self._counts.get(index, 0) + 1

    def record_many(self, values: Sequence[float]) -> None:
        """Add a batch of observations (vectorized).

        Buckets, count, min and max match calling :meth:`record` per
        value exactly — the numpy bucket computation reproduces the
        scalar boundary nudge. The sum and sum of squares are numpy
        pairwise sums, so mean and std agree with the scalar path only
        up to summation-order rounding. Array operations let
        windowed telemetry bulk-load thousands of latencies without a
        per-event Python loop.
        """
        import numpy as np

        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return
        if not np.isfinite(array).all():
            bad = array[~np.isfinite(array)][0]
            raise ValidationError(f"observation must be finite, got {bad}")
        if (array < 0).any():
            bad = array[array < 0][0]
            raise ValidationError(f"observation must be >= 0, got {bad}")
        self._walk = None
        self._count += int(array.size)
        self._sum += float(array.sum())
        self._sumsq += float(np.square(array).sum())
        self._min = min(self._min, float(array.min()))
        self._max = max(self._max, float(array.max()))
        positive = array[array > 0.0]
        self._zero += int(array.size - positive.size)
        if positive.size == 0:
            return
        index = self._bucket_indices(positive)
        base = int(index.min())
        counts = np.bincount(index - base)
        filled = np.flatnonzero(counts)
        for bucket, count in zip(
            (filled + base).tolist(), counts[filled].tolist()
        ):
            self._counts[bucket] = self._counts.get(bucket, 0) + count

    def _bucket_indices(self, positive):
        """:meth:`bucket_index` of every value of a positive array."""
        import numpy as np

        clamped = positive <= self._min_value
        index = np.zeros(positive.size, dtype=np.int64)
        free = ~clamped
        if free.any():
            vals = positive[free]
            idx = np.floor((np.log10(vals) - self._log_min) * self._bpd).astype(
                np.int64
            )
            # Same float-boundary nudge as the scalar bucket_index. The
            # bounds of every bucket ``idx`` names come from one table,
            # built with the same expression: entry ``i`` is the lower
            # bound of bucket ``base + i`` and the upper of the one below.
            base = int(idx.min())
            edges = 10.0 ** (
                self._log_min + np.arange(base, int(idx.max()) + 2) / self._bpd
            )
            offset = idx - base
            lower = edges[offset]
            upper = edges[offset + 1]
            down = vals < lower
            up = (~down) & (vals >= upper)
            index[free] = idx - down.astype(np.int64) + up.astype(np.int64)
        return index

    # ------------------------------------------------------------------
    # Bucket geometry.
    # ------------------------------------------------------------------

    def bucket_index(self, value: float) -> int:
        """Index of the bucket holding ``value`` (clamped at 0)."""
        if value <= self._min_value:
            return 0
        index = int(math.floor((math.log10(value) - self._log_min) * self._bpd))
        # Guard the float boundary: log10 rounding can land a value one
        # bucket high or low; nudge so bounds contain the value.
        lo, hi = self.bucket_bounds(index)
        if value < lo:
            return index - 1
        if value >= hi:
            return index + 1
        return index

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``[lower, upper)`` value bounds of bucket ``index``."""
        return _bucket_bounds(self._log_min, self._bpd, index)

    def buckets(self) -> List[Tuple[float, float, int]]:
        """Sorted non-empty ``(lower, upper, count)`` triples (zeros first)."""
        return list(self._bucket_walk()[0])

    def _bucket_walk(self) -> Tuple[list, list, list]:
        """The sorted buckets with their running counts and upper bounds.

        Built once per state: quantile and threshold queries bisect the
        running counts and the uppers instead of sorting the buckets
        again on every call.
        """
        if self._walk is None:
            out: List[Tuple[float, float, int]] = []
            if self._zero:
                out.append((0.0, 0.0, self._zero))
            for index in sorted(self._counts):
                lower, upper = self.bucket_bounds(index)
                out.append((lower, upper, self._counts[index]))
            self._walk = (
                out,
                list(itertools.accumulate(count for _, _, count in out)),
                [upper for _, upper, _ in out],
            )
        return self._walk

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValidationError("no observations recorded")
        return self._sum / self._count

    @property
    def std(self) -> float:
        if self._count < 2:
            return 0.0
        mean = self._sum / self._count
        var = max(0.0, (self._sumsq - self._count * mean * mean) / (self._count - 1))
        return math.sqrt(var)

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
        """Approximate k-th quantile by within-bucket interpolation."""
        if not 0.0 <= k <= 1.0:
            raise ValidationError(f"quantile level must be in [0, 1]: {k}")
        if self._count == 0:
            raise ValidationError("no observations recorded")
        rank = k * self._count
        buckets, cumulative, _ = self._bucket_walk()
        # The first bucket whose running count reaches the rank.
        at = bisect.bisect_left(cumulative, rank)
        if at == len(buckets):
            return self._max
        lower, upper, count = buckets[at]
        if upper == 0.0:  # the zero bucket
            return 0.0
        seen = cumulative[at] - count
        fraction = (rank - seen) / count
        value = lower + (upper - lower) * fraction
        return min(max(value, self._min), self._max)

    def quantiles(self, ks: Sequence[float]) -> List[float]:
        return [self.quantile(float(k)) for k in ks]

    def count_above(self, threshold: float) -> float:
        """Observations exceeding ``threshold``, at bucket resolution.

        The bucket straddling the threshold contributes a linearly
        interpolated fraction, mirroring :meth:`quantile`; the result is
        therefore a float. This powers burn-rate SLO rules (fraction of
        requests over the latency objective) without storing samples.
        """
        threshold = float(threshold)
        if not math.isfinite(threshold):
            raise ValidationError(f"threshold must be finite, got {threshold}")
        buckets, _, uppers = self._bucket_walk()
        # Skip the buckets wholly at or below the threshold; the rest
        # add up in bucket order, as a full walk would.
        first = bisect.bisect_right(uppers, threshold)
        total = 0.0
        for lower, upper, count in buckets[first:]:
            if lower >= threshold:
                total += count
            else:
                total += count * (upper - threshold) / (upper - lower)
        return total

    def summary(self) -> Dict[str, float]:
        """JSON-ready summary (count, moments, standard percentiles)."""
        if self._count == 0:
            return {"count": 0}
        return {
            "count": self._count,
            "mean": self.mean,
            "std": self.std,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    # ------------------------------------------------------------------
    # Lifecycle / persistence.
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop all observations (bucket geometry is kept)."""
        self._walk = None
        self._counts.clear()
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same geometry) into this one."""
        if (other._min_value, other._bpd) != (self._min_value, self._bpd):
            raise ValidationError("cannot merge histograms with different buckets")
        self._walk = None
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self._zero += other._zero
        self._count += other._count
        self._sum += other._sum
        self._sumsq += other._sumsq
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "min_value": self._min_value,
            "buckets_per_decade": self._bpd,
            "zero": self._zero,
            "counts": {str(index): count for index, count in sorted(self._counts.items())},
            "count": self._count,
            "sum": self._sum,
            "sumsq": self._sumsq,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Histogram":
        hist = cls(
            min_value=float(payload["min_value"]),
            buckets_per_decade=int(payload["buckets_per_decade"]),
        )
        hist._zero = int(payload["zero"])
        hist._counts = {
            int(index): int(count)
            for index, count in dict(payload["counts"]).items()
        }
        hist._count = int(payload["count"])
        hist._sum = float(payload["sum"])
        hist._sumsq = float(payload["sumsq"])
        hist._min = float(payload["min"]) if payload.get("min") is not None else math.inf
        hist._max = float(payload["max"]) if payload.get("max") is not None else -math.inf
        return hist


def _record_windows(
    hists: Sequence[Histogram], values: Sequence[float], bounds: Sequence[int]
) -> None:
    """``hists[k].record_many(values[bounds[k]:bounds[k + 1]])`` for every
    ``k``, with one bucket-index pass over all of ``values``.

    The histograms share one bucket geometry. Each window keeps the
    sums of its own slice, so every field matches the per-window calls
    bit for bit; invalid values raise exactly what those calls raise.
    """
    import numpy as np

    values = np.asarray(values, dtype=float).ravel()
    if not (np.isfinite(values).all() and (values >= 0.0).all()):
        for k, hist in enumerate(hists):
            hist.record_many(values[bounds[k] : bounds[k + 1]])
        return
    sizes = np.diff(bounds)
    window = np.repeat(np.arange(len(hists)), sizes)
    positive = values > 0.0
    n_positive = np.bincount(window[positive], minlength=len(hists))
    squares = np.square(values)
    for k, hist in enumerate(hists):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        if hi == lo:
            continue
        chunk = values[lo:hi]
        hist._walk = None
        hist._count += hi - lo
        hist._sum += float(chunk.sum())
        hist._sumsq += float(squares[lo:hi].sum())
        hist._min = min(hist._min, float(chunk.min()))
        hist._max = max(hist._max, float(chunk.max()))
        hist._zero += hi - lo - int(n_positive[k])
    if not positive.any():
        return
    index = hists[0]._bucket_indices(values[positive])
    # One (window, bucket) key per value: its counts come out window by
    # window, buckets ascending, as per-window calls add them.
    base = int(index.min())
    width = int(index.max()) - base + 1
    counts = np.bincount(window[positive] * width + (index - base))
    keys = np.flatnonzero(counts)
    windows, buckets = np.divmod(keys, width)
    for k, bucket, count in zip(
        windows.tolist(), (buckets + base).tolist(), counts[keys].tolist()
    ):
        table = hists[k]._counts
        table[bucket] = table.get(bucket, 0) + count


class Counter:
    """Monotonic event counter."""

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValidationError(f"counter increments must be >= 0, got {amount}")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def merge(self, other: "Counter") -> None:
        """Fold another counter into this one (sum of totals)."""
        self._value += other._value

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Point-in-time level that also tracks min/max/mean of its samples."""

    def __init__(self) -> None:
        self._value = 0.0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def set(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"gauge value must be finite, got {value}")
        self._value = value
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    @property
    def value(self) -> float:
        return self._value

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise ValidationError("gauge never set")
        return self._max

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise ValidationError("gauge never set")
        return self._min

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValidationError("gauge never set")
        return self._sum / self._count

    def reset(self) -> None:
        self.__init__()

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge's sample history into this one.

        The point-in-time ``value`` keeps the other gauge's last set
        when it has samples (merge order models observation order).
        """
        if other._count:
            self._value = other._value
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def to_dict(self) -> Dict[str, object]:
        if self._count == 0:
            return {"type": "gauge", "samples": 0}
        return {
            "type": "gauge",
            "value": self._value,
            "samples": self._count,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create namespace for the simulator's metrics.

    Components ask for a metric by dotted name (``server.0.wait``);
    re-asking returns the same object, so wiring does not need a central
    construction site. :meth:`snapshot` serializes everything for
    :class:`~repro.observability.report.RunReport`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, **kwargs: object):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValidationError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        metric = kind(**kwargs)
        self._metrics[name] = metric
        return metric

    def histogram(self, name: str, **kwargs: object) -> Histogram:
        return self._get_or_create(name, Histogram, **kwargs)

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def get(self, name: str):
        if name not in self._metrics:
            raise ValidationError(f"unknown metric: {name!r}")
        return self._metrics[name]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def reset_all(self) -> None:
        """Reset every metric in place (references stay valid)."""
        for metric in self._metrics.values():
            metric.reset()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, metric by metric.

        Names absent here are created with the other metric's geometry;
        names present in both must have the same kind (and, for
        histograms, the same bucket layout). This is the per-worker
        aggregation path: N workers record into private registries and
        the parent merges them exactly.
        """
        for name in other.names():
            theirs = other._metrics[name]
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = Histogram(
                        min_value=theirs._min_value,
                        buckets_per_decade=theirs._bpd,
                    )
                else:
                    mine = type(theirs)()
                self._metrics[name] = mine
            elif type(mine) is not type(theirs):
                raise ValidationError(
                    f"cannot merge metric {name!r}: "
                    f"{type(mine).__name__} vs {type(theirs).__name__}"
                )
            mine.merge(theirs)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Serializable view: histograms as summaries, plus raw state."""
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            payload = metric.to_dict()
            if isinstance(metric, Histogram):
                payload["summary"] = metric.summary()
            out[name] = payload
        return out
