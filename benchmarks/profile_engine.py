"""Profile the event engine: where a closed-loop run spends real time.

Runs the standard speed scenario (the fig-11-style point from
``bench_speed_backends``) on the ``simulate`` backend twice:

1. with the house :class:`~repro.observability.EngineProfiler` attached,
   printing the per-callback-category breakdown (event counts, wall
   seconds, mean microseconds per event) — the view that attributes
   engine time to *scheduling sites* (arrivals, service completions,
   network hops, database callbacks);
2. under :mod:`cProfile`, printing the hottest functions by cumulative
   time — the view that catches interpreter-level overheads (scheduler
   pushes, RNG refills) the category profile folds into its callers —
   and three counts per generated key (warmup included): engine events
   (from the first run, which has the same seed), Python calls (every
   function cProfile sees, C built-ins included) and heap operations
   (``heapq`` push, pop, pushpop and heapify calls), with the engine
   events per generated request beside them.

A third section times the raw dispatch microbench from
``bench_speed_backends`` under cProfile, isolating the engine's batched
hot loop from the queueing model on top of it.

Run modes:

* ``python benchmarks/profile_engine.py`` — full profile (4000
  requests, 1M raw events).
* ``python benchmarks/profile_engine.py --quick`` — CI smoke (600
  requests, 200k raw events).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
from typing import Dict, Optional, Sequence

from repro.observability import Observability

from bench_speed_backends import _engine_run, speed_scenario
from helpers import print_series

#: Functions shown per cProfile section.
TOP_N = 15


def profile_categories(n_requests: int) -> int:
    """Per-callback-category engine profile on the speed scenario;
    returns the run's engine event count."""
    scenario = speed_scenario(n_requests)
    observability = Observability(trace=False, metrics=False, profile=True)
    scenario.run("simulate", observability=observability)
    stats = observability.profiler.stats()
    print_series(
        "Engine profile by callback category",
        ["category", "count", "wall_s", "mean_usec"],
        [
            [name, row["count"], row["wall_seconds"], row["mean_usec"]]
            for name, row in stats["categories"].items()
        ],
    )
    print(
        f"{stats['events']} events, {stats['wall_seconds']:.3f}s in "
        f"callbacks, {stats['events_per_second']:,.0f} events/s, "
        f"pending mean {stats['pending_mean']:.1f} / "
        f"max {stats['pending_max']}"
    )
    return stats["events"]


def _print_cprofile(profiler: cProfile.Profile, title: str) -> None:
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(TOP_N)
    print(f"\n== {title} ==")
    # Skip pstats' preamble ordering chatter; keep the table.
    lines = stream.getvalue().splitlines()
    for line in lines:
        if line.strip():
            print(line)


#: The ``heapq`` functions the engine's scheduler and drain call.
HEAP_FUNCTIONS = ("heappush", "heappop", "heappushpop", "heapify")


def per_key_counts(profiler: cProfile.Profile, keys: int) -> Dict[str, float]:
    """Python calls and heap operations per key of a profiled run."""
    calls = 0
    heap_ops: Dict[str, int] = {name: 0 for name in HEAP_FUNCTIONS}
    for (_, _, function), row in pstats.Stats(profiler).stats.items():
        calls += row[1]  # every call, recursive ones included
        for name in HEAP_FUNCTIONS:
            if function == f"<built-in method _heapq.{name}>":
                heap_ops[name] += row[1]
    counts = {"python_calls": calls / keys, "heap_ops": sum(heap_ops.values()) / keys}
    counts.update({name: count / keys for name, count in heap_ops.items()})
    return counts


def profile_cprofile(
    n_requests: int, n_events: int, engine_events: Optional[int] = None
) -> None:
    """cProfile the closed-loop run and the raw dispatch microbench.

    ``engine_events``, the event count of the same seeded run, is
    printed per generated request and per generated key when given."""
    scenario = speed_scenario(n_requests)
    profiler = cProfile.Profile()
    profiler.enable()
    scenario.run("simulate")
    profiler.disable()
    _print_cprofile(profiler, f"cProfile: closed loop ({n_requests} requests)")
    requests = scenario.n_requests + scenario.warmup_requests
    keys = requests * scenario.n_keys
    counts = per_key_counts(profiler, keys)
    events = "" if engine_events is None else f"{engine_events / keys:.3f} engine events, "
    if engine_events is not None:
        print(
            f"per generated request ({requests} requests): "
            f"{engine_events / requests:.2f} engine events"
        )
    print(
        f"per generated key ({keys} keys): {events}"
        f"{counts['python_calls']:.2f} Python calls, "
        f"{counts['heap_ops']:.3f} heap operations ("
        + ", ".join(f"{name} {counts[name]:.3f}" for name in HEAP_FUNCTIONS)
        + ")"
    )

    profiler = cProfile.Profile()
    profiler.enable()
    _engine_run(n_events, variant="engine-events")
    profiler.disable()
    _print_cprofile(profiler, f"cProfile: raw dispatch ({n_events} events)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 600 requests, 200k raw events",
    )
    args = parser.parse_args(argv)
    n_requests, n_events = (600, 200_000) if args.quick else (4_000, 1_000_000)
    engine_events = profile_categories(n_requests)
    profile_cprofile(n_requests, n_events, engine_events)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
