"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine-plain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

With ``--trace 0`` the run prints every end-to-end metric of
``BENCHMARK.json``; set-up is measured in ``SETUP_PROBES`` extra fresh
processes plus the workload's own, and reported as their median. With
``--trace 1`` it prints every per-layer metric instead (see
``layers.py``). Each result, with its provenance and the quartiles of
every metric, is also written under ``perfbench/results/``. The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.

``--selftest`` runs every workload at a tiny size, traced and untraced,
and checks the separation counts and that every metric named in
``BENCHMARK.json`` is printed with its unit.

The benchmark builds nothing: it runs ``repro`` from the checkout's
``src`` directory and exits non-zero, printing no result, where that
directory is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from layers import UNLISTED_UNITS

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
RESULTS = ROOT / "perfbench" / "results"
WORKLOAD_NAMES = ("engine-plain", "engine-observed", "capacity-sweep")

#: Extra set-up-only processes per untraced run (the workload's own
#: process adds one more sample).
SETUP_PROBES = 3

#: A worker must finish within this many seconds beyond ``--seconds``
#: (the last round and the checks overrun the budget).
WORKER_SLACK_S = 60
PROBE_TIMEOUT_S = 20


class WorkerError(RuntimeError):
    """A worker process failed or printed no result."""


def run_worker(args, timeout: float, *, echo: bool) -> dict:
    """Run ``worker.py`` with ``args``; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps it
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartile_row(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: int,
            size: str = "full", setup_probes: int = SETUP_PROBES):
    """Run one workload; return (result line, full record)."""
    spec = load_spec()
    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = []
    if not trace:
        for _ in range(setup_probes):
            probe = run_worker(common + ["--setup-only"], PROBE_TIMEOUT_S, echo=False)
            setups.append(probe["setup_s"])
    out = run_worker(
        common + ["--seconds", str(seconds), "--trace", str(trace)],
        seconds + WORKER_SLACK_S,
        echo=True,
    )
    setups.append(out["setup_s"])
    times = out["op_times"]
    if trace:
        values = dict(out["metrics"])
        quart = {}
    else:
        op_s = quartile_row(times)
        values = {
            "setup_s": statistics.median(setups),
            "keys_per_s": sum(out["op_keys"]) / sum(times),
            "op_s.p50": op_s["median"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        quart = {
            "setup_s": quartile_row(setups),
            "keys_per_s": quartile_row(
                k / t for k, t in zip(out["op_keys"], times) if t > 0
            ),
            "op_s.p50": op_s,
            "peak_rss_mb": quartile_row([out["peak_rss_mb"]]),
        }
    missing = sorted(set(units) - set(values))
    problems = (list(out["failures"]) + out["run_problems"]
                + list(out.get("separation", [])))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    correct = out["failed"] == 0 and not problems
    result = {
        "correct": correct,
        "attempted": out["ops"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "result": result,
        "fail_ratio": out["failed"] / out["ops"],
        "problems": problems,
        "quartiles": quart,
        "unlisted_metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in UNLISTED_UNITS.items()
            if name in values
        },
        "runs": {"ops": out["ops"], "setup_samples": len(setups)},
        "op_times": out["op_times"],
        "op_keys": out["op_keys"],
        "setup_times": setups,
        "provenance": {
            **out["provenance"],
            "python": platform.python_version(),
            "cpu_model": out["cpu_model"],
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    return result, record


def print_summary(record: dict) -> None:
    result = record["result"]
    print(f"{record['workload']} seed {record['seed']}: "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"fail_ratio {record['fail_ratio']:g} fraction")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    for name, metric in record["unlisted_metrics"].items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']} (not listed)")
    for problem in record["problems"]:
        print(f"  problem: {problem.strip().splitlines()[-1]}")


def selftest() -> int:
    """Tiny traced and untraced runs of every workload."""
    spec = load_spec()
    failures = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result, record = measure(workload, 1, 0.5, trace, "tiny", setup_probes=1)
            print_summary(record)
            group = "per_layer" if trace else "end_to_end"
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{workload}: {metric['name']} not printed "
                                    f"with unit {metric['unit']}")
            if not result["correct"]:
                failures.append(f"{workload} trace={trace}: {record['problems']}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(record)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(f"result written: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
