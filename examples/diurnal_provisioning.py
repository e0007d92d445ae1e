#!/usr/bin/env python
"""Diurnal load: provision to the peak, and the cliff makes it worse.

Production key rates follow daily curves. The cliff rule (paper §5.3
rule 1) interacts badly with that: a cluster sized so the *mean* load
sits comfortably below rhoS(xi) can spend hours past the cliff at peak.
This example

1. drives a simulated server with a sinusoidal-rate arrival process
   (Lewis-Shedler thinning) and shows per-phase latency,
2. compares the latency predicted by the naive mean-rate model against
   per-phase Theorem 1 evaluations,
3. computes the capacity needed so that even the PEAK stays below the
   cliff.

Run:  python examples/diurnal_provisioning.py
"""

import math

import numpy as np

from repro.core import ServerStage, WorkloadPattern
from repro.queueing import cliff_utilization
from repro.simulation import ServerSim, Simulator, TimeVaryingPoissonProcess
from repro.units import format_duration, kps


def main() -> None:
    rng = np.random.default_rng(9)
    mu_s = kps(80)
    mean_rate = kps(48)      # 60% mean utilization: "looks safe"
    amplitude = 0.35         # +-35% daily swing -> 81% at peak
    # Compressed "day" for the simulation. One second is still ~800x the
    # queue's relaxation time at peak, so each phase is quasi-static,
    # and 10 days stay under half a million keys (seconds, not minutes).
    period = 1.0

    cliff = cliff_utilization(0.0)  # Poisson process here, xi = 0
    print(f"Server: muS = 80 Kps, mean load 48 Kps (60%), "
          f"swing +-{amplitude:.0%}")
    print(f"Cliff utilization (xi = 0): {cliff:.0%}")
    print(f"Peak utilization: {(1 + amplitude) * 0.6:.0%}  <-- past the cliff")
    print()

    print("Simulating 10 'days' of sinusoidal load through one server...")
    sim = Simulator()
    records = []
    server = ServerSim.exponential(
        sim, mu_s, rng,
        on_complete=lambda context, arrival, start, finish: records.append(
            (arrival, finish - arrival)
        ),
    )
    process = TimeVaryingPoissonProcess.sinusoidal(
        mean_rate, amplitude, period, rng
    )
    process.start(sim, lambda t, size: server.offer_batch(t, size))
    sim.run_until(10 * period)

    times = np.array([r[0] for r in records])
    sojourns = np.array([r[1] for r in records])
    phases = (times % period) / period

    print("\nPer-phase per-key latency (simulated vs per-phase M/M/1):")
    for lo, hi, label in [
        (0.125, 0.375, "peak  "),
        (0.375, 0.625, "fall  "),
        (0.625, 0.875, "trough"),
        (0.875, 1.125, "rise  "),
    ]:
        if hi <= 1.0:
            mask = (phases > lo) & (phases < hi)
        else:
            mask = (phases > lo) | (phases < hi - 1.0)
        measured = sojourns[mask].mean()
        mid_phase = (lo + hi) / 2 % 1.0
        rate = mean_rate * (1 + amplitude * math.sin(2 * math.pi * mid_phase))
        predicted = 1.0 / (mu_s - rate)
        print(f"  {label}: sim {format_duration(measured):>8}   "
              f"M/M/1 at phase rate {format_duration(predicted):>8}")

    naive = 1.0 / (mu_s - mean_rate)
    print(f"\nNaive mean-rate model: {format_duration(naive)} — "
          f"underestimates the peak by "
          f"{sojourns[(phases > 0.125) & (phases < 0.375)].mean() / naive:.1f}x")

    print("\nCapacity so the PEAK stays below the cliff:")
    needed = mean_rate * (1 + amplitude) / cliff
    print(f"  required muS >= {needed / 1e3:.0f} Kps "
          f"(vs 80 Kps for the mean-only rule at {cliff:.0%})")
    stage_ok = ServerStage(
        WorkloadPattern.poisson(mean_rate * (1 + amplitude)), needed
    )
    print(f"  at that capacity the peak-phase E[TS(150)] <= "
          f"{format_duration(stage_ok.mean_latency_bounds(150).upper)}")


if __name__ == "__main__":
    main()
