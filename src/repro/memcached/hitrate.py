"""LRU hit-rate theory: the Che approximation and cache sizing.

The paper's §2.2 surveys systems (Cliffhanger, Dynacache, Mimir, ...)
that tune cache allocations from *hit-rate curves*. This module provides
those curves analytically for LRU under the independent reference model:

* :func:`che_characteristic_time` — the Che approximation's ``T_C``,
  the unique root of ``sum_i (1 - exp(-p_i T)) = C``;
* :func:`lru_hit_ratio` — hit ratio of an LRU cache of ``C`` items;
* :func:`miss_ratio_curve` — the full miss-ratio-vs-capacity curve;
* :func:`capacity_for_miss_ratio` — invert the curve: how many items
  must fit to reach a target ``r``.

This closes the loop between the executable cache and the latency
model: capacity -> (Che) -> miss ratio ``r`` -> (Theorem 1 part 3) ->
database latency.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..errors import ValidationError


def _validate_popularity(popularity: Sequence[float]) -> np.ndarray:
    probs = np.asarray(popularity, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValidationError("popularity must be a non-empty 1-D sequence")
    if np.any(probs < 0):
        raise ValidationError("popularity must be non-negative")
    total = float(probs.sum())
    if not math.isclose(total, 1.0, rel_tol=1e-6):
        raise ValidationError(f"popularity must sum to 1, got {total}")
    return probs


def che_characteristic_time(
    popularity: Sequence[float], capacity_items: float
) -> float:
    """The Che characteristic time ``T_C`` (in units of requests).

    Solves ``sum_i (1 - exp(-p_i T)) = C``. An item is in the cache iff
    it was referenced within the last ``T_C`` requests.
    """
    probs = _validate_popularity(popularity)
    n = probs.size
    if not 0 < capacity_items < n:
        raise ValidationError(
            f"capacity must be in (0, {n}) items, got {capacity_items}"
        )

    def occupied(t: float) -> float:
        return float(np.sum(-np.expm1(-probs * t))) - capacity_items

    # Bracket: at T = C the sum is < C (since 1 - e^-x < x); grow until
    # the occupied mass exceeds the capacity.
    lo = float(capacity_items)
    hi = lo
    for _ in range(200):
        hi *= 2.0
        if occupied(hi) > 0:
            break
    else:
        raise ValidationError("failed to bracket the Che fixed point")
    from scipy import optimize

    return float(optimize.brentq(occupied, lo, hi, xtol=1e-9, rtol=1e-12))


def lru_hit_ratio(popularity: Sequence[float], capacity_items: float) -> float:
    """Che-approximation hit ratio of an LRU cache of ``capacity_items``."""
    probs = _validate_popularity(popularity)
    if capacity_items >= probs.size:
        return 1.0
    t_c = che_characteristic_time(probs, capacity_items)
    return float(np.sum(probs * -np.expm1(-probs * t_c)))


def lru_miss_ratio(popularity: Sequence[float], capacity_items: float) -> float:
    """``r = 1 - hit ratio`` — the model's miss ratio from first principles."""
    return 1.0 - lru_hit_ratio(popularity, capacity_items)


def miss_ratio_curve(
    popularity: Sequence[float], capacities: Sequence[float]
) -> List[float]:
    """Miss ratio at each capacity — the Cliffhanger-style curve."""
    return [lru_miss_ratio(popularity, float(c)) for c in capacities]


def capacity_for_miss_ratio(
    popularity: Sequence[float], target_miss_ratio: float
) -> float:
    """Smallest capacity (items) achieving ``r <= target_miss_ratio``.

    Inverts the (monotone) Che curve by bisection on the capacity.
    """
    probs = _validate_popularity(popularity)
    if not 0.0 < target_miss_ratio < 1.0:
        raise ValidationError(
            f"target_miss_ratio must be in (0, 1), got {target_miss_ratio}"
        )
    n = probs.size
    if lru_miss_ratio(probs, n - 1e-9) > target_miss_ratio:
        raise ValidationError(
            "target miss ratio unreachable: even caching every item "
            "leaves compulsory misses above the target"
        )
    lo, hi = 1e-9 * n, float(n) - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lru_miss_ratio(probs, mid) <= target_miss_ratio:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-6 * n:
            break
    return hi


def items_per_capacity_bytes(
    capacity_bytes: int, mean_item_bytes: float, *, overhead_bytes: float = 48.0
) -> float:
    """Approximate item capacity of a byte budget (slab overhead included)."""
    if capacity_bytes <= 0:
        raise ValidationError(f"capacity_bytes must be > 0, got {capacity_bytes}")
    if mean_item_bytes <= 0:
        raise ValidationError(f"mean_item_bytes must be > 0, got {mean_item_bytes}")
    return capacity_bytes / (mean_item_bytes + overhead_bytes)
