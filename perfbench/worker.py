"""One benchmark workload in one fresh process (see ``run.py``).

The process issues ops back to back, one caller, no pool and no
threads (a closed loop). Set-up time starts at the top of this file,
before ``import repro``, and ends where the first timed op starts, so
it includes the import every CLI call pays. Each op is timed on its
own; its output checks run after the timer stops. The run ends at the
first whole round of ops after ``--seconds`` (capacity-sweep rounds
cover every miss ratio once, so every run weighs the cells alike).

With ``--trace 1`` the first third of the time runs untraced, the rest
under the per-layer spans of ``layers.py``; the ratio of their mean op
times is the tracing overhead. The last line of standard output is one
JSON object for ``run.py``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"
sys.path.insert(0, str(ROOT / "src"))


def run_ops(workload, first_index, seconds, *, min_ops, trace=None):
    """Ops in whole rounds until ``seconds`` have passed; one record each.

    A record is ``(op seconds, recorded keys, problems)``; an op that
    raises or fails a check has problems and counts as failed.
    """
    from repro.queueing import gim1_root_cache_clear, gim1_root_cache_info

    records = []
    index = first_index
    started = time.perf_counter()
    while True:
        for _ in range(workload.round_size):
            # Each op starts from a collected heap and an empty GI/M/1
            # root cache, as a fresh CLI call does; the previous op's
            # garbage and roots are not charged or credited to this one.
            outcome = None
            gc.collect()
            gim1_root_cache_clear()
            if trace is not None:
                trace.install()
            began = time.perf_counter()
            try:
                outcome = workload.run(index)
            except Exception:
                problems = [traceback.format_exc(limit=4)]
            elapsed = time.perf_counter() - began
            if trace is not None:
                trace.uninstall()
                cache = gim1_root_cache_info()
                trace.counts["root_cache.hits"] += cache["hits"]
                trace.counts["root_cache.misses"] += cache["misses"]
            keys = 0
            if outcome is not None:
                try:
                    keys = workload.keys(outcome)
                    problems = workload.check(index, outcome)
                except Exception:
                    problems = [traceback.format_exc(limit=4)]
            records.append((elapsed, keys, problems))
            index += 1
        if time.perf_counter() - started >= seconds and len(records) >= min_ops:
            return records


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def separation(workload_name, metrics):
    """Counts that must be zero where a workload bypasses a layer."""
    expect = {"engine.events": ("capacity-sweep",),
              "lindley.calls": ("engine-plain", "engine-observed"),
              "obs.spans": ("engine-plain",),
              "obs.hist_records": ("engine-plain",)}
    return [
        f"{name} = {metrics[name]:g} on {workload_name}, expected 0"
        for name, workloads in expect.items()
        if workload_name in workloads and metrics[name] != 0
    ]


def print_accounting(trace, n_ops):
    """Per-layer self time against the outermost spans' wall time."""
    wall = sum(trace.roots.values()) / n_ops
    print(f"traced wall per op: {wall:.4f} s, outermost spans:")
    for (layer, name), seconds in sorted(trace.roots.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<40} {seconds / n_ops:.4f} s")
    print("self time per layer (per op):")
    for layer, seconds in trace.layers().items():
        share = seconds / n_ops / wall if wall else 0.0
        print(f"  {layer:<16} {seconds / n_ops:.4f} s {share:6.1%}")
    rest = sum(
        seconds for (layer, _), seconds in trace.roots_self.items()
        if layer == "experiments"
    ) / n_ops
    print(f"unattributed remainder (outermost dispatch spans' own time): "
          f"{rest:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from repro.observability import json_dumps, provenance

    out = {"setup_s": setup_s}
    if not args.trace:
        records = run_ops(workload, 0, args.seconds, min_ops=3)
    else:
        from layers import layer_metrics, repro_trace

        plain = run_ops(workload, 0, args.seconds / 3, min_ops=2)
        trace, stats = repro_trace()
        rest = max(args.seconds - sum(r[0] for r in plain), 0.0)
        records = run_ops(workload, len(plain), rest, min_ops=1, trace=trace)
        n = len(records)
        metrics = layer_metrics(
            trace, stats, n_ops=n,
            keys_generated=n * workload.generated_keys_per_op,
            root_cache=(trace.counts["root_cache.hits"],
                        trace.counts["root_cache.misses"]),
        )
        overhead = statistics.mean(r[0] for r in records) / statistics.mean(
            r[0] for r in plain)
        metrics["trace.overhead_ratio"] = overhead
        print_accounting(trace, n)
        print(f"tracing overhead: traced op {overhead:.2f}x untraced "
              f"({n} traced, {len(plain)} untraced ops)")
        out["separation"] = separation(workload.name, metrics)
        out["metrics"] = metrics
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{workload.name}-seed{args.seed}-spans.json"
        spans.write_text(json_dumps({
            **trace.to_dict(),
            "callback_categories": dict(stats.categories),
            "provenance": provenance(),
        }))
        print(f"spans written: {spans.relative_to(ROOT)}")
        records = plain + records

    failures = [p for r in records for p in r[2]]
    out.update(
        run_problems=workload.run_check(),
        ops=len(records),
        failed=sum(1 for r in records if r[2]),
        failures=failures[:5],
        op_times=[r[0] for r in records],
        op_keys=[r[1] for r in records],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        provenance=provenance(),
        cpu_model=cpu_model(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
