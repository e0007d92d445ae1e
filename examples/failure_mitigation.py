#!/usr/bin/env python
"""Fault injection & request policies: break the system, then fix it.

The paper's model describes the fault-free steady state. This example
injects the faults the model leaves out — declaratively, as a
:class:`repro.faults.FaultSchedule` — and then attaches the client-side
mitigation policies production Memcached deployments actually run:

1. An asymmetric slowdown window (server 0 drops to 35% of its service
   rate, a neighbour-rebuild or thermal event) wrecks the no-policy
   tail. Hedged requests — duplicate a slow key at a healthy server
   after a delay, keep the first answer — repair most of it; timeout
   with retry repairs some of it at a lower duplicate cost.
2. A database-overload window replays the paper's §5.1 transient: the
   database stage dominates T(N) inside the window and the system
   recovers after it closes. The run's per-request log
   (``results.request_log``) resolves the episode along the
   completion-time axis.

Everything here also runs from the CLI::

    repro simulate --faults '{"windows": [{"kind": "server-slowdown",
        "start": 0.25, "duration": 1.0, "factor": 0.35, "server": 0}]}' \
        --hedge-delay 300

Run:  python examples/failure_mitigation.py
"""

from repro.experiments import Scenario
from repro.faults import (
    DatabaseOverload,
    FaultSchedule,
    ServerSlowdown,
    trajectory,
    window_effect,
)
from repro.policies import RequestPolicy
from repro.units import format_duration, kps, usec

#: Two servers at 31% base utilization, 20 keys per request — small
#: enough that the event engine replays every scenario in seconds.
BASE = Scenario(
    key_rate=kps(25),
    n_servers=2,
    service_rate=kps(80),
    n_keys=20,
    network_delay=usec(20),
    miss_ratio=0.01,
    database_rate=2_000.0,
    seed=7,
    n_requests=3_000,
    warmup_requests=300,
)

#: Simulated horizon of the run (requests / request rate).
HORIZON = BASE.n_requests * BASE.n_keys / (BASE.key_rate * BASE.n_servers)


def act_one_mitigation() -> None:
    print("Act 1 — slowdown window, with and without mitigation")
    print(f"  server 0 at 35% rate during "
          f"[{0.15 * HORIZON:.2f}s, {0.75 * HORIZON:.2f}s)")
    faults = FaultSchedule.single(
        ServerSlowdown(
            start=0.15 * HORIZON,
            duration=0.6 * HORIZON,
            factor=0.35,
            server=0,
        )
    )
    policies = {
        "no policy": None,
        "hedge @ 300us": RequestPolicy.hedged(usec(300)),
        "timeout 1ms, 2 retries": RequestPolicy.timeout_retry(
            usec(1000), max_retries=2
        ),
    }
    for name, policy in policies.items():
        result = BASE.replace(faults=faults, policy=policy).run("simulate")
        print(
            f"  {name:>22}: mean {format_duration(result.total.mean):>8}  "
            f"p99 {format_duration(result.p99):>8}"
        )
    print("  hedging reroutes the duplicate to the healthy server, so the")
    print("  window barely shows in the tail; retries pay the timeout first.")


def act_two_transient() -> None:
    print("\nAct 2 — the §5.1 overloaded-database transient")
    window = DatabaseOverload(
        start=0.3 * HORIZON, duration=0.15 * HORIZON, factor=0.25
    )
    print(f"  database at 25% rate during "
          f"[{window.start:.2f}s, {window.end:.2f}s)")
    system = BASE.replace(
        faults=FaultSchedule.single(window)
    ).simulator()
    results = system.run(
        n_requests=BASE.n_requests, warmup_requests=BASE.warmup_requests
    )
    effect = window_effect(
        results.request_log,
        window_start=window.start,
        window_end=window.end,
        stage="database",
        settle=0.08 * HORIZON,
    )
    for phase in ("before", "during", "after"):
        print(f"  E[TD] {phase:>6}: {format_duration(effect[phase]):>8}")
    print("  completion-time trajectory (mean TD per bucket):")
    points = trajectory(results.request_log, n_buckets=12)
    peak = max(p.mean_database for p in points)
    for p in points:
        bar = "#" * int(round(40 * p.mean_database / peak))
        marker = "  <- window" if window.start <= p.midpoint < window.end else ""
        print(
            f"    t={p.midpoint:5.2f}s  "
            f"{format_duration(p.mean_database):>8}  {bar}{marker}"
        )
    print("  latency climbs inside the window and drains right after —")
    print("  the fault is an episode, not a new steady state.")


def main() -> None:
    act_one_mitigation()
    act_two_transient()


if __name__ == "__main__":
    main()
