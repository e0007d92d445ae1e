"""Fixed-point solver for the GI/M/1 root (paper eq. (6)).

The GI/M/1 queue's stationary waiting time is geometric with parameter
``sigma``, the unique root in ``(0, 1)`` of::

    sigma = L_A((1 - sigma) * mu)

where ``L_A`` is the LST of the inter-arrival distribution and ``mu`` the
service rate. The paper calls this root ``delta`` (with the batch service
rate ``(1 - q) * muS`` in place of ``mu``).

Existence/uniqueness hold iff the queue is stable (``rho < 1``):
``g(x) = L_A((1 - x) mu) - x`` satisfies ``g(0) > 0`` and ``g(1) = 0``
with ``g`` convex in ``x``, so the interior root is found by bracketed
Brent iteration, which is robust even when the LST itself is evaluated by
quadrature (Generalized Pareto arrivals).
"""

from __future__ import annotations

import collections
import math
from typing import Callable, Dict, Hashable, Tuple

from ..errors import ConvergenceError, StabilityError, ValidationError


def solve_gim1_root(
    laplace: Callable[[float], float],
    service_rate: float,
    *,
    arrival_rate: float | None = None,
    tol: float = 1e-12,
) -> float:
    """Solve ``sigma = L_A((1 - sigma) * mu)`` for ``sigma`` in ``(0, 1)``.

    Parameters
    ----------
    laplace:
        The inter-arrival LST ``s -> E[exp(-s A)]``.
    service_rate:
        The (effective) service rate ``mu``; for the paper's batch queue
        pass ``(1 - q) * muS``.
    arrival_rate:
        Optional arrival rate for an explicit stability pre-check. When
        omitted, stability is inferred from the fixed-point geometry.
    tol:
        Absolute tolerance on the root.

    Raises
    ------
    StabilityError
        If ``arrival_rate >= service_rate`` or no interior root exists.
    """
    if service_rate <= 0:
        raise ValidationError(f"service_rate must be > 0, got {service_rate}")
    if arrival_rate is not None:
        if arrival_rate <= 0:
            raise ValidationError(f"arrival_rate must be > 0, got {arrival_rate}")
        rho = arrival_rate / service_rate
        if rho >= 1.0:
            raise StabilityError(rho)

    def g(x: float) -> float:
        return laplace((1.0 - x) * service_rate) - x

    g0 = g(0.0)
    if g0 <= 0.0:
        # L_A(mu) <= 0 cannot happen for a valid LST; defensive check.
        raise ConvergenceError(
            f"invalid LST: L(mu) = {g0} <= 0 at sigma = 0", last_value=g0
        )

    # g(1) = L(0) - 1 = 0 always; we need the *interior* root, which exists
    # iff g'(1) > 0, i.e. -mu * L'(0) = mu * E[A] > 1, i.e. rho < 1.
    # Search for an upper bracket strictly below 1 where g goes negative.
    # Start a comfortable distance from 1: quadrature-evaluated LSTs carry
    # ~1e-12 absolute error, which would swamp g at 1 - 1e-12.
    hi = None
    for gap in (1e-4, 1e-6, 1e-8, 1e-10):
        candidate = 1.0 - gap
        if g(candidate) < 0.0:
            hi = candidate
            break
    if hi is None:
        # Either exactly critical or unstable: no interior crossing.
        implied_rho = math.nan
        if arrival_rate is not None:
            implied_rho = arrival_rate / service_rate
        raise StabilityError(
            implied_rho if math.isfinite(implied_rho) else 1.0,
            "no interior GI/M/1 root: the queue is at or beyond saturation",
        )

    from scipy import optimize

    try:
        root = optimize.brentq(g, 0.0, hi, xtol=tol, rtol=8.881784197001252e-16)
    except ValueError as exc:  # pragma: no cover - bracket guaranteed above
        raise ConvergenceError(f"brentq failed: {exc}") from exc
    root = float(root)
    if not 0.0 < root < 1.0:
        raise ConvergenceError(
            f"GI/M/1 root {root} escaped (0, 1)", last_value=root
        )
    return root


# ----------------------------------------------------------------------
# Memoized root lookups.
#
# Parameter sweeps (`repro sweep`, the figure benches, grid suites)
# rebuild Workload/ServerStage objects for every cell, and many cells
# share the exact same (gap law, effective service rate) pair — e.g. a
# miss-ratio sweep never changes the server stage at all. Solving the
# fixed point is cheap for closed-form LSTs but involves adaptive
# quadrature for Generalized Pareto gaps, so identical re-solves are
# worth skipping. Distributions advertise a hashable identity via
# ``Distribution.cache_token()``; callers that have one use this
# memoized front end, everyone else falls through to the plain solver.
# ----------------------------------------------------------------------

_ROOT_CACHE_MAX = 4096
_root_cache: "collections.OrderedDict[Tuple[Hashable, float, float], float]" = (
    collections.OrderedDict()
)
_root_cache_hits = 0
_root_cache_misses = 0


def solve_gim1_root_cached(
    cache_token: Hashable,
    laplace: Callable[[float], float],
    service_rate: float,
    *,
    arrival_rate: float | None = None,
    tol: float = 1e-12,
) -> float:
    """LRU-memoized :func:`solve_gim1_root`.

    ``cache_token`` must identify the inter-arrival *law* completely
    (same token => same ``laplace``); use
    ``Distribution.cache_token()``. Roots are cached per
    ``(token, service_rate, tol)`` with least-recently-used eviction
    beyond ``_ROOT_CACHE_MAX`` entries. Unstable inputs raise before
    anything is cached.
    """
    global _root_cache_hits, _root_cache_misses
    key = (cache_token, float(service_rate), float(tol))
    cached = _root_cache.get(key)
    if cached is not None:
        _root_cache.move_to_end(key)
        _root_cache_hits += 1
        return cached
    root = solve_gim1_root(
        laplace, service_rate, arrival_rate=arrival_rate, tol=tol
    )
    _root_cache_misses += 1
    _root_cache[key] = root
    if len(_root_cache) > _ROOT_CACHE_MAX:
        _root_cache.popitem(last=False)
    return root


def gim1_root_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the memoized root solver (for tests)."""
    return {
        "hits": _root_cache_hits,
        "misses": _root_cache_misses,
        "size": len(_root_cache),
        "maxsize": _ROOT_CACHE_MAX,
    }


def gim1_root_cache_clear() -> None:
    """Drop every cached root and reset the hit/miss counters."""
    global _root_cache_hits, _root_cache_misses
    _root_cache.clear()
    _root_cache_hits = 0
    _root_cache_misses = 0


def fixed_point_iterate(
    laplace: Callable[[float], float],
    service_rate: float,
    *,
    initial: float = 0.5,
    max_iter: int = 500,
    tol: float = 1e-12,
) -> float:
    """Plain Picard iteration for the same root.

    Kept as an independent implementation for cross-checking the Brent
    solver in tests; converges because the map is a contraction on the
    relevant interval for stable queues.
    """
    if not 0.0 < initial < 1.0:
        raise ValidationError(f"initial must be in (0, 1), got {initial}")
    x = initial
    for iteration in range(max_iter):
        nxt = laplace((1.0 - x) * service_rate)
        if not 0.0 <= nxt <= 1.0:
            raise ConvergenceError(
                f"iterate {nxt} escaped [0, 1]", last_value=nxt, iterations=iteration
            )
        if abs(nxt - x) <= tol:
            return nxt
        x = nxt
    raise ConvergenceError(
        f"fixed point did not converge in {max_iter} iterations",
        last_value=x,
        iterations=max_iter,
    )
