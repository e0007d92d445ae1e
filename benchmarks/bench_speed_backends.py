"""Backend speed trajectory: engine vs vectorized system fast path.

Times the three simulation backends (``simulate`` — the event engine,
``fastpath`` — the stationary pool sampler, ``fastpath-system`` — the
whole-system vectorized twin) on one stable fig-11-style point, plus the
*raw* event engine (batched dispatch, no queueing model) on a pure
dispatch microbench, and writes ``BENCH_speed.json`` at the repo root:

    {"<backend>": {"keys_per_sec": ..., "wall_s": ..., "n_keys": ...},
     "engine-events": {"events_per_sec": ..., "wall_s": ...}, ...}

``n_keys`` is the total number of key lookups the run pushed through the
pipeline (requests x N); ``keys_per_sec`` is the throughput the paper's
experiments actually care about when choosing a backend. The
``engine-events`` rows isolate the engine's event dispatch rate —
scheduler pop + clock advance + callback — bare, with a timeline-style
sink recording every event, and with the engine's per-request record
fed a full RECORD_FIELDS row per request; all three carry CI-enforced
floors (absolute rates plus the attr/sink overhead ratio). The
committed JSON is the perf trajectory: re-run the bench after engine
or fast-path changes and diff it.

The ``capacity`` row times one ``find_capacity`` cell of the perfbench
``capacity-sweep`` shape (the 4-server, N = 150 cluster at p99 <= 20 ms,
r = 1%, probes that never escalate) and reports wall time and minor page
faults (``ru_minflt``) per probe. It is report-only: no floor holds it.

The ``startup`` row times fresh processes end to end: ``import repro``
and ``repro simulate --requests 300`` at the default scenario, each
the median of three runs of wall time and peak RSS (the child's own
``ru_maxrss``). It is report-only too.

Run modes:

* ``python benchmarks/bench_speed_backends.py`` — full measurement
  (best of 3, 4000 requests / 1M events).
* ``python benchmarks/bench_speed_backends.py --quick`` — CI smoke
  (single repeat, 600 requests / 300k events; ``fastpath-system`` takes
  the best of five, and the engine runs five paired rounds of 3000
  requests: plain, timeline on, registry on, ``Observability()``
  defaults on) writing to ``--out``; still asserts the fast path's
  >= 10x speedup over the engine, the three observability-overhead
  floors and the engine dispatch-rate floors; the ``capacity`` row uses
  1000-request probes instead of 4000.
* ``pytest benchmarks/bench_speed_backends.py`` — same measurement via
  the house pytest-benchmark harness.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

import repro
from repro.capacity import CapacityObjective, find_capacity
from repro.experiments import Scenario
from repro.observability import Observability
from repro.observability.attribution import (
    _FLUSH_CHUNK,
    RECORD_FIELDS,
    _row_matrix,
)
from repro.simulation import Simulator
from repro.units import kps, msec, usec

from helpers import print_series

#: Backends being raced. ``estimate`` is excluded: closed-form bounds
#: answer a different question (and finish in microseconds).
#: ``simulate+timeline``, ``simulate+metrics`` and ``simulate+observed``
#: are the engine with windowed telemetry, the metrics registry or the
#: ``Observability()`` defaults (tracer and registry) on — their entries
#: exist to price the observability layer, not to race.
BACKENDS = (
    "simulate",
    "simulate+timeline",
    "simulate+metrics",
    "simulate+observed",
    "fastpath",
    "fastpath-system",
)

#: The engine with an observability collector on, each timed in paired
#: rounds against the plain engine.
OBSERVED_ENGINE = ("simulate+timeline", "simulate+metrics", "simulate+observed")

#: The fast path must beat the engine by at least this factor on
#: keys/sec — the contract that justifies its existence.
MIN_SPEEDUP = 10.0

#: Telemetry budget: the engine with a Timeline recording must keep at
#: least this fraction of the telemetry-off throughput (hot-path cost is
#: one tuple append per job; all window math is deferred to run end).
MIN_TIMELINE_RATIO = 0.9

#: Registry budget: the engine with the metrics registry alone on must
#: keep at least this fraction of the plain throughput. The queues log
#: one row per key and per batch, and every registry collector is
#: derived from those rows at run end. Five quick runs of this bench
#: read 0.78-1.03 on a shared 2-vCPU VM; two runs of the same bench with
#: each key recorded into its histograms as it finished read 0.32 and
#: 0.40.
MIN_METRICS_RATIO = 0.6

#: Default-observability budget: the engine with ``Observability()``
#: (the tracer and the registry) on must keep at least this fraction of
#: the plain throughput. The tracer adds one root per request at run
#: end and builds key spans only when they are read.
MIN_OBSERVED_RATIO = 0.6

#: Requests per engine-pair run in quick mode. The ratio above is read
#: from paired rounds: a 600-request engine run lasts about 60 ms, short
#: enough for host noise to swing one pair's ratio by a third.
QUICK_PAIR_REQUESTS = 3_000

#: Raw engine dispatch-rate floors (events/sec).
#: Batched dispatch drains homogeneous event runs without per-event
#: scheduler traffic, so the bare engine must clear 1M events/s; with a
#: per-event timeline-style sink appending ``(now, index)`` the floor
#: relaxes but stays within ~1.5x of the bare rate.
MIN_ENGINE_EVENTS_PER_SEC = 1_000_000.0
MIN_ENGINE_SINK_EVENTS_PER_SEC = 700_000.0

#: Per-request record budget: the engine's one per-request write is a
#: RECORD_FIELDS tuple append plus a length check that converts every
#: ``_FLUSH_CHUNK`` rows to float64 — it must retain at least this
#: fraction of the plain-sink dispatch rate. Every per-request view
#: (recorders, registry, timeline, attribution) is derived at run end.
MIN_ATTR_SINK_RATIO = 0.85

#: Raw-engine dispatch variants: bare counting callback, a
#: timeline-style sink recording every (time, index) pair, and the
#: same sink plus the per-request record on top.
ENGINE_VARIANTS = ("engine-events", "engine-events+sink", "engine-events+attr")

#: Key events per completed request in the record variant. The
#: engine emits one RECORD_FIELDS row + one chunk check per
#: *request*; a request in the speed scenario fans out to ``n_keys ==
#: 20`` key completions. The microbench rounds down to a power of two
#: — slightly harsher (more rows per event) and it keeps the per-event
#: completion test a single bitwise AND instead of a modulo, which at
#: 3M events/s is the difference between measuring the record and
#: measuring the detector.
ATTR_REQUEST_EVENTS = 16

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_speed.json"

#: The ``capacity`` row's objective and cell: one miss ratio of the
#: perfbench ``capacity-sweep`` workload.
CAPACITY_OBJECTIVE = CapacityObjective(threshold=msec(20), metric="p99")
CAPACITY_MISS_RATIO = 0.01


def speed_scenario(n_requests: int) -> Scenario:
    """Stable two-server miss-ratio point both simulators can hold."""
    return Scenario(
        key_rate=kps(40),
        n_servers=2,
        service_rate=kps(80),
        n_keys=20,
        network_delay=usec(20),
        miss_ratio=0.005,
        database_rate=1 / msec(1),
        n_requests=n_requests,
        warmup_requests=n_requests // 10,
        seed=20170327,
    )


def _run_once(scenario: Scenario, backend: str) -> float:
    if backend == "simulate+timeline":
        backend, options = "simulate", {"timeline": 48}
    elif backend == "simulate+metrics":
        backend, options = "simulate", {
            "observability": Observability(trace=False, metrics=True)
        }
    elif backend == "simulate+observed":
        backend, options = "simulate", {"observability": Observability()}
    else:
        options = {"pool_size": 50_000} if backend == "fastpath" else {}
    # No collection before the run: every backend's finished run is
    # freed by reference counting, so a gc.collect() here finds nothing
    # to collect.
    start = time.perf_counter()
    scenario.run(backend, **options)
    return time.perf_counter() - start


def measure(
    n_requests: int,
    repeats: int,
    backends: Sequence[str] = BACKENDS,
    *,
    pair_requests: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` wall time per backend on the same scenario.

    The plain engine and its observed entries (:data:`OBSERVED_ENGINE`)
    run ``pair_requests`` requests (default ``n_requests``) in at least
    five *paired* rounds (off, timeline, metrics, observed, off, ...): each
    observed entry's ratio to the plain engine is an enforced CI
    contract, and it is the best of the per-round paired ratios, as for
    ``attr_sink_ratio``. Adjacent runs share CPU frequency and cache
    state, so pairing cancels the drift that independent best-of walls
    keep. ``fastpath-system``, the numerator of the 10x contract, takes
    the best of at least five.
    """
    scenario = speed_scenario(n_requests)
    total_keys = n_requests * scenario.n_keys
    results = {}
    observed = [b for b in OBSERVED_ENGINE if b in backends and "simulate" in backends]
    for backend in backends:
        if backend == "simulate" and observed:
            pair = speed_scenario(pair_requests or n_requests)
            pair_keys = pair.n_requests * pair.n_keys
            walls = {name: [] for name in ["simulate", *observed]}
            for _ in range(max(repeats, 5)):
                for name, runs in walls.items():
                    runs.append(_run_once(pair, name))
            for name, runs in walls.items():
                results[name] = {
                    "keys_per_sec": pair_keys / min(runs),
                    "wall_s": min(runs),
                    "n_keys": pair_keys,
                }
            for name in observed:
                kind = name.split("+")[1]
                paired = sorted(
                    a / b for a, b in zip(walls["simulate"], walls[name])
                )
                results[name].update(
                    {
                        f"{kind}_overhead_ratio": paired[-1],
                        f"{kind}_paired_median": paired[len(paired) // 2],
                    }
                )
            continue
        if backend in observed:
            continue  # timed with the plain engine above
        # A quick fastpath-system run lasts milliseconds, so one timing
        # is mostly noise; it gets the engine pair's repeat count.
        reps = max(repeats, 5) if backend == "fastpath-system" else repeats
        wall = min(_run_once(scenario, backend) for _ in range(reps))
        results[backend] = {
            "keys_per_sec": total_keys / wall,
            "wall_s": wall,
            "n_keys": total_keys,
        }
    return results


def capacity_scenario() -> Scenario:
    """The perfbench ``capacity-sweep`` cluster at one miss ratio."""
    return Scenario(
        key_rate=kps(40),
        n_servers=4,
        service_rate=kps(80),
        n_keys=150,
        network_delay=usec(20),
        miss_ratio=CAPACITY_MISS_RATIO,
        database_rate=1 / msec(1),
        seed=20170327,
    )


def measure_capacity(n_requests: int, repeats: int) -> Dict[str, float]:
    """Wall time and minor page faults per probe of one capacity cell.

    Runs the seeded search ``repeats`` times with ``n_requests``-request
    probes that never escalate, so every search runs the same probes,
    and keeps the fastest. ``ru_minflt`` counts the process's minor
    page faults: first touches of freshly mapped memory.
    """
    scenario = capacity_scenario()
    best: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        gc.collect()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = find_capacity(
            scenario,
            CAPACITY_OBJECTIVE,
            n_requests=n_requests,
            max_requests=n_requests,
        )
        wall = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        row = {
            "wall_s_per_probe": wall / result.n_probes,
            "minflt_per_probe": faults / result.n_probes,
            "n_probes": result.n_probes,
            "probe_requests": n_requests,
            "max_rps": result.max_rps,
        }
        if best is None or row["wall_s_per_probe"] < best["wall_s_per_probe"]:
            best = row
    return best


#: Runs ``argv[1:]`` and prints its wall time, exit code and
#: ``ru_maxrss``. A child's ``ru_maxrss`` starts from the resident size
#: of the process that spawned it, so the timed command is spawned from
#: this bare interpreter rather than from the bench.
_LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
wall = time.perf_counter() - start
child.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([wall, child.returncode, usage.ru_maxrss]))
"""


def _fresh_process(args: Sequence[str]) -> Dict[str, float]:
    """Wall time and peak RSS of ``python <args>`` in a fresh process
    that imports this checkout's ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    wall, code, maxrss = json.loads(launched.stdout)
    if code:
        raise RuntimeError(f"{' '.join(args)} exited {code}")
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return {"wall_s": wall, "peak_rss_mb": maxrss / scale}


def measure_startup(n_requests: int = 300, repeats: int = 3) -> Dict[str, float]:
    """Median wall time and peak RSS of fresh-process ``import repro``
    and ``repro simulate --requests n_requests`` over ``repeats`` runs."""
    commands = {
        "import": ["-c", "import repro"],
        "simulate": ["-m", "repro.cli", "simulate", "--requests", str(n_requests)],
    }
    row: Dict[str, float] = {"simulate_requests": n_requests, "repeats": repeats}
    for name, args in commands.items():
        runs = [_fresh_process(args) for _ in range(repeats)]
        for field in ("wall_s", "peak_rss_mb"):
            row[f"{name}_{field}"] = statistics.median(r[field] for r in runs)
    return row


def _engine_run(n_events: int, *, variant: str) -> Dict[str, float]:
    """One raw-engine dispatch run: a pre-drawn sorted event batch.

    The batch models the windowed-arrivals fast path (one scheduler
    entry re-armed as it drains); a sprinkling of single events (0.1% of
    the batch) keeps the scheduler peek/push interleaving honest. The
    ``+attr`` variant is the ``+sink`` run plus the engine's
    per-request record on top: every :data:`ATTR_REQUEST_EVENTS`-th
    event also appends a ten-field RECORD_FIELDS tuple and checks the
    chunk length, converting a full chunk with ``_row_matrix`` exactly
    as ``MemcachedSystemSimulator._key_done`` does — the real
    once-per-request cadence — so the attr/sink events/sec ratio prices
    exactly what the record adds to a sinked engine run.
    """
    rng = np.random.default_rng(20170327)
    times = np.cumsum(rng.exponential(1.0, n_events)).tolist()
    sim = Simulator()
    if variant == "engine-events+sink":
        out = []

        def callback(index: int) -> None:
            out.append((sim.now, index))

    elif variant == "engine-events+attr":
        out = []
        rows = []
        chunks = []
        mask = ATTR_REQUEST_EVENTS - 1

        def callback(index: int) -> None:
            now = sim.now
            out.append((now, index))
            if not index & mask:  # this key completed its request
                rows.append(
                    (
                        index,  # request_id
                        now - 6.2e-5,  # born
                        now,  # completed
                        6.2e-5,  # total
                        4.0e-5,  # network
                        1.0e-5,  # server queue wait
                        2.2e-5,  # server stage max
                        0.0,  # db queue wait
                        0.0,  # db stage max
                        0.0,  # policy overhead
                    )
                )
                if len(rows) >= _FLUSH_CHUNK:
                    chunks.append(_row_matrix(rows, len(RECORD_FIELDS)))
                    rows.clear()

    else:
        fired = [0]

        def callback(index: int) -> None:
            fired[0] += 1

    sim.schedule_batch(times, callback)
    noop = lambda: None  # noqa: E731 — category marker for singles
    singles = np.sort(rng.uniform(0.0, times[-1], max(1, n_events // 1000)))
    for t in singles.tolist():
        sim.schedule_at(t, noop)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return {"wall_s": wall, "n_events": sim.events_processed}


def measure_engine(
    n_events: int, repeats: int
) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` raw dispatch rate per sink variant.

    The variants are timed *interleaved* (bare, sink, attr, bare, ...)
    with at least three rounds, and the enforced attr/sink ratio is the
    best of the *per-round paired* ratios: adjacent runs in a round
    share CPU frequency and cache state, so the pairing cancels machine
    drift that independent best-of walls would not (a sink run catching
    one fast frequency window must not fail the attribution budget).
    """
    rounds: Dict[str, list] = {name: [] for name in ENGINE_VARIANTS}
    for _ in range(max(repeats, 3)):
        for name in ENGINE_VARIANTS:
            rounds[name].append(_engine_run(n_events, variant=name))
    results = {}
    for name in ENGINE_VARIANTS:
        best = min(rounds[name], key=lambda run: run["wall_s"])
        results[name] = {
            "events_per_sec": best["n_events"] / best["wall_s"],
            "wall_s": best["wall_s"],
            "n_events": best["n_events"],
        }
    results["engine-events+attr"]["attr_sink_ratio"] = max(
        (sunk["wall_s"] / attr["wall_s"])
        * (attr["n_events"] / sunk["n_events"])
        for sunk, attr in zip(
            rounds["engine-events+sink"], rounds["engine-events+attr"]
        )
    )
    return results


def attr_sink_ratio(engine: Dict[str, Dict[str, float]]) -> float:
    """Dispatch rate retained when per-request record rows ride along.

    Prefers the paired per-round ratio :func:`measure_engine` stored
    (drift-cancelled); falls back to the best-of rates for payloads
    that predate it.
    """
    row = engine["engine-events+attr"]
    if "attr_sink_ratio" in row:
        return row["attr_sink_ratio"]
    return (
        row["events_per_sec"]
        / engine["engine-events+sink"]["events_per_sec"]
    )


def check_engine_floors(engine: Dict[str, Dict[str, float]]) -> Optional[str]:
    """The failed floor description, or ``None`` when all three hold."""
    bare = engine["engine-events"]["events_per_sec"]
    sunk = engine["engine-events+sink"]["events_per_sec"]
    if bare < MIN_ENGINE_EVENTS_PER_SEC:
        return (
            f"engine dispatch {bare:,.0f} events/s below the "
            f"{MIN_ENGINE_EVENTS_PER_SEC:,.0f} floor"
        )
    if sunk < MIN_ENGINE_SINK_EVENTS_PER_SEC:
        return (
            f"engine dispatch with sink {sunk:,.0f} events/s below the "
            f"{MIN_ENGINE_SINK_EVENTS_PER_SEC:,.0f} floor"
        )
    ratio = attr_sink_ratio(engine)
    if ratio < MIN_ATTR_SINK_RATIO:
        return (
            f"per-request record keeps only {ratio:.1%} of plain-sink "
            f"dispatch, below the {MIN_ATTR_SINK_RATIO:.0%} floor"
        )
    return None


def speedup(results: Dict[str, Dict[str, float]]) -> float:
    return (
        results["fastpath-system"]["keys_per_sec"]
        / results["simulate"]["keys_per_sec"]
    )


def timeline_ratio(results: Dict[str, Dict[str, float]]) -> float:
    """Engine throughput retained with windowed telemetry on: the best
    paired-round ratio :func:`measure` stored."""
    return results["simulate+timeline"]["timeline_overhead_ratio"]


def metrics_ratio(results: Dict[str, Dict[str, float]]) -> float:
    """Engine throughput retained with the metrics registry on: the
    best paired-round ratio :func:`measure` stored."""
    return results["simulate+metrics"]["metrics_overhead_ratio"]


def observed_ratio(results: Dict[str, Dict[str, float]]) -> float:
    """Engine throughput retained with the default observability bundle
    on: the best paired-round ratio :func:`measure` stored."""
    return results["simulate+observed"]["observed_overhead_ratio"]


def report(
    results: Dict[str, Dict[str, float]],
    out: Path,
    engine: Optional[Dict[str, Dict[str, float]]] = None,
    capacity: Optional[Dict[str, float]] = None,
    startup: Optional[Dict[str, float]] = None,
) -> None:
    print_series(
        "Backend speed (keys/sec, higher is better)",
        ["backend", "keys_per_sec", "wall_s", "n_keys"],
        [
            [name, row["keys_per_sec"], row["wall_s"], row["n_keys"]]
            for name, row in results.items()
        ],
    )
    print(f"fastpath-system speedup over engine: {speedup(results):.1f}x")
    if "simulate+timeline" in results:
        print(
            "engine throughput retained with timeline on: "
            f"{timeline_ratio(results):.1%} (best paired round; median "
            f"{results['simulate+timeline']['timeline_paired_median']:.1%})"
        )
    if "simulate+metrics" in results:
        print(
            "engine throughput retained with the metrics registry on: "
            f"{metrics_ratio(results):.1%} (best paired round; median "
            f"{results['simulate+metrics']['metrics_paired_median']:.1%})"
        )
    if "simulate+observed" in results:
        print(
            "engine throughput retained with Observability() defaults on: "
            f"{observed_ratio(results):.1%} (best paired round; median "
            f"{results['simulate+observed']['observed_paired_median']:.1%})"
        )
    payload: Dict[str, Dict[str, float]] = dict(results)
    if engine:
        print_series(
            "Raw engine dispatch (events/sec, higher is better)",
            ["variant", "events_per_sec", "wall_s", "n_events"],
            [
                [name, row["events_per_sec"], row["wall_s"], row["n_events"]]
                for name, row in engine.items()
            ],
        )
        print(
            "engine dispatch retained with per-request record rows: "
            f"{attr_sink_ratio(engine):.1%}"
        )
        payload.update(engine)
    if capacity:
        print(
            f"capacity cell: {capacity['n_probes']} probes of "
            f"{capacity['probe_requests']} requests, "
            f"{1e3 * capacity['wall_s_per_probe']:.1f} ms and "
            f"{capacity['minflt_per_probe']:,.0f} minor faults per probe"
        )
        payload["capacity"] = capacity
    if startup:
        print(
            f"startup (median of {startup['repeats']}): import repro "
            f"{startup['import_wall_s']:.2f} s, "
            f"{startup['import_peak_rss_mb']:.0f} MB; simulate "
            f"--requests {startup['simulate_requests']} "
            f"{startup['simulate_wall_s']:.2f} s, "
            f"{startup['simulate_peak_rss_mb']:.0f} MB"
        )
        payload["startup"] = startup
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: one repeat, 600 requests",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    n_requests, repeats = (600, 1) if args.quick else (4_000, 3)
    pair_requests = QUICK_PAIR_REQUESTS if args.quick else n_requests
    n_events = 300_000 if args.quick else 1_000_000
    probe_requests = 1_000 if args.quick else 4_000
    results = measure(n_requests, repeats, pair_requests=pair_requests)
    engine = measure_engine(n_events, max(repeats, 2))
    capacity = measure_capacity(probe_requests, max(repeats, 3))
    startup = measure_startup()
    report(results, args.out, engine, capacity, startup)
    if speedup(results) < MIN_SPEEDUP:
        print(f"FAIL: speedup below the {MIN_SPEEDUP:.0f}x contract")
        return 1
    if timeline_ratio(results) < MIN_TIMELINE_RATIO:
        print(
            "FAIL: timeline telemetry costs more than "
            f"{1 - MIN_TIMELINE_RATIO:.0%} of engine throughput"
        )
        return 1
    if metrics_ratio(results) < MIN_METRICS_RATIO:
        print(
            "FAIL: the metrics registry keeps less than "
            f"{MIN_METRICS_RATIO:.0%} of engine throughput"
        )
        return 1
    if observed_ratio(results) < MIN_OBSERVED_RATIO:
        print(
            "FAIL: Observability() defaults keep less than "
            f"{MIN_OBSERVED_RATIO:.0%} of engine throughput"
        )
        return 1
    failed_floor = check_engine_floors(engine)
    if failed_floor is not None:
        print(f"FAIL: {failed_floor}")
        return 1
    return 0


def test_backend_speed(benchmark, tmp_path):
    results = measure(
        600,
        repeats=1,
        backends=("simulate", *OBSERVED_ENGINE, "fastpath"),
        pair_requests=QUICK_PAIR_REQUESTS,
    )
    results["fastpath-system"] = {}
    scenario = speed_scenario(600)

    def fast_run():
        return scenario.run("fastpath-system")

    start = time.perf_counter()
    benchmark(fast_run)
    elapsed = time.perf_counter() - start
    try:
        wall = benchmark.stats.stats.min
    except AttributeError:  # --benchmark-disable: one plain call
        wall = elapsed
    results["fastpath-system"] = {
        "keys_per_sec": 600 * scenario.n_keys / wall,
        "wall_s": wall,
        "n_keys": 600 * scenario.n_keys,
    }
    engine = measure_engine(300_000, repeats=2)
    report(results, tmp_path / "BENCH_speed.json", engine)
    benchmark.extra_info.update(
        {name: row["keys_per_sec"] for name, row in results.items()}
    )
    benchmark.extra_info.update(
        {name: row["events_per_sec"] for name, row in engine.items()}
    )
    assert speedup(results) >= MIN_SPEEDUP
    assert timeline_ratio(results) >= MIN_TIMELINE_RATIO
    assert metrics_ratio(results) >= MIN_METRICS_RATIO
    assert check_engine_floors(engine) is None


if __name__ == "__main__":
    raise SystemExit(main())
