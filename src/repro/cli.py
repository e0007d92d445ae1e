"""Command-line interface.

Subcommands map to the paper's workflows::

    repro estimate     Theorem 1 bounds for one configuration
    repro simulate     closed-loop system simulation
    repro capacity     max sustainable RPS under an SLO (staged bisection)
    repro monitor      windowed telemetry + SLO dashboard for one run
    repro sweep        one-factor sweeps through the factor registry
    repro experiment   multi-factor grids on the parallel runner
    repro cliff-table  reproduce Table 4
    repro validate     theory-vs-simulation comparison (Table 3 style)
    repro recommend    the §5.3 configuration advisor
    repro report       inspect a saved run report (JSON artifact)
    repro trace        print slowest-request span trees from a report

All rates are entered in Kps (thousand keys per second) and times in
microseconds, matching the paper's units; output is aligned text.
``estimate``, ``simulate``, ``monitor``, ``validate``, ``sweep``, and
``experiment`` accept a ``--json`` flag (before or after the subcommand) for
machine-readable output through the shared run-report serializer.

Parameter parsing funnels through one object:
:func:`_scenario_from_args` builds a
:class:`~repro.experiments.Scenario`, and every subcommand derives its
models/simulators from it. ``sweep`` and ``experiment`` expand the
scenario over the factor registry and execute on the (optionally
process-parallel, resumable) :class:`~repro.experiments.ExperimentRunner`.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .capacity import CapacityObjective, capacity_curve, find_capacity
from .core import (
    ClusterModel,
    DatabaseStage,
    WorkloadPattern,
    advise,
)
from .core.stages import ServerStage
from .errors import ConfigError, ReproError
from .faults import FaultSchedule
from .policies import RequestPolicy, hedge_delay_from_quantile
from .experiments import (
    BACKENDS,
    DEFAULT_POOL_SIZE,
    Grid,
    Scenario,
    Suite,
    SuiteResult,
    factor_names,
    get_factor,
    options_from_args,
    run_suite,
    sweep_suite,
    validate_options,
)
from .observability import (
    GROUPS,
    STAGES,
    BurnRateRule,
    Observability,
    RunReport,
    SLOMonitor,
    SLORule,
    Span,
    Timeline,
    json_dumps,
    provenance,
    provenance_comment,
)
from .queueing import PAPER_TABLE_4, cliff_table
from .units import kps, to_kps, to_msec, to_usec, usec


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rate", type=float, default=62.5, help="per-server key rate in Kps"
    )
    parser.add_argument("--xi", type=float, default=0.15, help="burst degree")
    parser.add_argument(
        "--concurrency", type=float, default=0.1, help="concurrency probability q"
    )
    parser.add_argument(
        "--service-rate", type=float, default=80.0, help="server rate muS in Kps"
    )
    parser.add_argument(
        "--n-keys", type=int, default=150, help="keys per end-user request (N)"
    )
    parser.add_argument(
        "--network-delay", type=float, default=20.0, help="network latency in us"
    )
    parser.add_argument(
        "--miss-ratio", type=float, default=0.01, help="cache miss ratio r"
    )
    parser.add_argument(
        "--db-latency", type=float, default=1000.0, help="mean DB service in us"
    )


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the runner-backed subcommands (sweep/experiment)."""
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="estimate",
        help="how each cell is evaluated (default: estimate)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, help="replications per grid point"
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (results are identical for any N)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="checkpoint directory (one JSON per cell)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed cells from --out and run only the rest",
    )
    parser.add_argument("--servers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--requests", type=int, default=2000, help="requests per simulated cell"
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=DEFAULT_POOL_SIZE,
        help="fastpath per-server latency pool size",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one progress line per completed cell to stderr",
    )


def _add_timeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeline",
        default=None,
        metavar="PATH",
        help="record windowed telemetry and write the Timeline JSON here",
    )
    parser.add_argument(
        "--timeline-windows",
        type=int,
        default=60,
        metavar="K",
        help="windows the run is sliced into (default 60)",
    )


def _add_fault_policy_args(parser: argparse.ArgumentParser) -> None:
    """Fault-injection and request-policy flags (simulation backends)."""
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "fault schedule: inline JSON object ('{\"windows\": [...]}') "
            "or a path to a JSON file"
        ),
    )
    parser.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        metavar="US",
        help="hedge slow key fetches after this delay in us",
    )
    parser.add_argument(
        "--hedge-quantile",
        type=float,
        default=None,
        metavar="Q",
        help=(
            "set the hedge delay at this per-key latency quantile "
            "(e.g. 0.95; mutually exclusive with --hedge-delay)"
        ),
    )
    parser.add_argument(
        "--key-timeout",
        type=float,
        default=None,
        metavar="US",
        help="per-key timeout in us before abandoning and retrying",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="retry budget used with --key-timeout (default 1)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=2.0,
        help="timeout multiplier applied per retry (default 2.0)",
    )
    parser.add_argument(
        "--no-cancel-on-winner",
        action="store_true",
        help="let losing hedged attempts run to completion",
    )


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of aligned text",
    )


def _wants_json(args: argparse.Namespace) -> bool:
    """``--json`` before or after the subcommand both count."""
    return bool(getattr(args, "json", False)) or bool(
        getattr(args, "json_global", False)
    )


def _faults_from_args(args: argparse.Namespace) -> Optional[FaultSchedule]:
    """Parse ``--faults`` (inline JSON object or a JSON file path)."""
    spec = getattr(args, "faults", None)
    if spec is None:
        return None
    text = spec.strip()
    if text.startswith("{"):
        return FaultSchedule.from_json(text)
    return FaultSchedule.load(text)


def _policy_from_args(args: argparse.Namespace) -> Optional[RequestPolicy]:
    """Build the request policy from ``--hedge-*``/``--key-timeout`` flags."""
    hedge_delay = getattr(args, "hedge_delay", None)
    hedge_quantile = getattr(args, "hedge_quantile", None)
    timeout = getattr(args, "key_timeout", None)
    if hedge_delay is not None and hedge_quantile is not None:
        raise ConfigError(
            "--hedge-delay and --hedge-quantile are mutually exclusive"
        )
    if hedge_quantile is not None:
        workload = WorkloadPattern(
            rate=kps(args.rate), xi=args.xi, q=args.concurrency
        )
        hedge: Optional[float] = hedge_delay_from_quantile(
            workload, kps(args.service_rate), hedge_quantile
        )
    elif hedge_delay is not None:
        hedge = usec(hedge_delay)
    else:
        hedge = None
    if hedge is None and timeout is None:
        return None
    return RequestPolicy(
        timeout=usec(timeout) if timeout is not None else None,
        max_retries=(
            int(getattr(args, "max_retries", 1)) if timeout is not None else 0
        ),
        backoff=float(getattr(args, "retry_backoff", 2.0)),
        hedge_delay=hedge,
        cancel_on_winner=not getattr(args, "no_cancel_on_winner", False),
    )


def _database_rate(args: argparse.Namespace) -> float:
    """Database service rate from ``--db-latency`` (mean, in us)."""
    if args.db_latency <= 0:
        raise ConfigError(f"--db-latency must be > 0 us, got {args.db_latency}")
    return 1.0 / usec(args.db_latency)


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """Build the unified :class:`Scenario` from CLI flags.

    Converts the CLI's paper units (Kps, microseconds) into the
    library's internal units; flags a subcommand does not define fall
    back to the scenario defaults.
    """
    requests = getattr(args, "requests", None)
    if requests is None:  # no --requests flag, or capacity's auto budget
        requests = 2000
    return Scenario(
        key_rate=kps(args.rate),
        burst_xi=args.xi,
        concurrency_q=args.concurrency,
        n_servers=int(getattr(args, "servers", 1)),
        service_rate=kps(args.service_rate),
        n_keys=args.n_keys,
        network_delay=usec(args.network_delay),
        miss_ratio=args.miss_ratio,
        database_rate=_database_rate(args),
        seed=int(getattr(args, "seed", 0)),
        n_requests=requests,
        warmup_requests=requests // 10,
        faults=_faults_from_args(args),
        policy=_policy_from_args(args),
    )


def _print_rows(header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    widths = [
        max(len(str(cell)) for cell in [head] + [row[i] for row in rows])
        for i, head in enumerate(header)
    ]
    def fmt(row: Sequence[object]) -> str:
        return "  ".join(str(cell).rjust(width) for cell, width in zip(row, widths))
    print(fmt(header))
    print(fmt(["-" * width for width in widths]))
    for row in rows:
        print(fmt(row))


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.config is not None:
        scenario = Scenario.load(args.config)
    else:
        scenario = _scenario_from_args(args)
    model = scenario.latency_model()
    n_keys = scenario.n_keys
    estimate = model.estimate(n_keys)
    if _wants_json(args):
        print(
            json_dumps(
                {
                    "kind": "repro-estimate",
                    "n_keys": n_keys,
                    "estimate": estimate,
                    "total_lower": estimate.total_lower,
                    "total_upper": estimate.total_upper,
                    "dominant_stage": estimate.dominant_stage,
                    "server_utilization": model.server_stage.utilization,
                    "delta": model.server_stage.delta,
                }
            )
        )
        return 0
    print(estimate)
    print(f"dominant stage: {estimate.dominant_stage}")
    print(f"server utilization: {model.server_stage.utilization:.1%}")
    print(f"delta: {model.server_stage.delta:.4f}")
    return 0


def _save_timeline(args: argparse.Namespace, timeline) -> None:
    """Write ``--timeline PATH`` (the JSON carries its own provenance)."""
    timeline.save(args.timeline)
    if not _wants_json(args):
        print(f"timeline written: {args.timeline}")


def cmd_simulate(args: argparse.Namespace) -> int:
    """One dispatch path for every backend: flags assemble into the
    typed options registry and :meth:`Scenario.run` does the rest."""
    scenario = _scenario_from_args(args)
    backend = "simulate" if args.backend == "engine" else args.backend
    want_json = _wants_json(args)
    want_report = args.report is not None
    if backend != "simulate" and (args.trace or args.profile or want_report):
        # --trace/--profile/--report assemble the engine-only
        # `observability` option; validating it against the chosen
        # backend yields the registry's uniform misdirected-option
        # error instead of a silent drop.
        validate_options(backend, {"observability": True})
    options = options_from_args(backend, args)
    result = scenario.run(backend, **options)
    if args.timeline is not None:
        _save_timeline(args, result.timeline)
    observability = options.get("observability")
    report = None
    if backend == "simulate" and (want_report or want_json):
        report = RunReport.from_simulation(
            result.raw,
            observability,
            config={
                "servers": args.servers,
                "rate_kps": args.rate,
                "service_rate_kps": args.service_rate,
                "n_keys": args.n_keys,
                "network_delay_us": args.network_delay,
                "miss_ratio": args.miss_ratio,
                "db_latency_us": args.db_latency,
                "requests": args.requests,
                "seed": args.seed,
            },
        )
    if want_report:
        report.save(args.report)
    if want_json:
        print(report.to_json() if report is not None else json_dumps(result.to_dict()))
        return 0
    rows = []
    for label, stage in [
        ("T(N)", result.total),
        ("TS(N)", result.server),
        ("TD(N)", result.database),
        ("TN(N)", result.network),
    ]:
        rows.append(
            [
                label,
                f"{to_usec(stage.mean):.1f}",
                f"[{to_usec(stage.ci_low):.1f}, {to_usec(stage.ci_high):.1f}]",
            ]
        )
    _print_rows(["stage", "mean (us)", "95% CI (us)"], rows)
    print(f"measured miss ratio: {result.measured_miss_ratio:.4f}")
    if result.server_utilizations:
        print(
            "server utilizations: "
            + ", ".join(f"{u:.1%}" for u in result.server_utilizations)
        )
    if observability is not None and observability.tracer is not None:
        slowest = observability.tracer.slowest(3)
        if slowest:
            worst = ", ".join(f"{to_usec(span.duration):.0f}" for span in slowest)
            print(f"slowest requests (us): {worst}")
    if want_report:
        print(f"report written: {args.report}")
    return 0


# ----------------------------------------------------------------------
# Monitor: sparkline dashboard + SLO evaluation over one run's timeline.
# ----------------------------------------------------------------------

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[float]) -> str:
    """Eight-level terminal sparkline; undefined (NaN) windows show '·'."""
    data = np.asarray(values, dtype=float)
    finite = data[np.isfinite(data)]
    if finite.size == 0:
        return "·" * data.size
    low = float(finite.min())
    span = float(finite.max()) - low
    chars = []
    for value in data:
        if not np.isfinite(value):
            chars.append("·")
        elif span <= 0.0:
            chars.append(_SPARK_LEVELS[3])
        else:
            level = (float(value) - low) / span * (len(_SPARK_LEVELS) - 1)
            chars.append(_SPARK_LEVELS[int(round(level))])
    return "".join(chars)


def _print_dashboard(timeline: Timeline) -> None:
    """The ``repro monitor`` terminal view of one run's windowed series."""
    print(
        f"timeline: {timeline.n_windows} windows x "
        f"{to_msec(timeline.window):.2f} ms, "
        f"{int(round(float(timeline.completions.sum())))} completions"
    )
    series: List[Tuple[str, np.ndarray, str]] = [
        ("arrival rate (Kps)", to_kps(timeline.arrival_rate()), "{:.1f}"),
        ("occupancy (reqs)", timeline.occupancy(), "{:.1f}"),
        ("p50 (us)", to_usec(timeline.quantile_series(0.50)), "{:.0f}"),
        ("p99 (us)", to_usec(timeline.quantile_series(0.99)), "{:.0f}"),
    ]
    for name in timeline.stage_names:
        series.append((f"util {name}", timeline.utilization(name), "{:.2f}"))
    rows = []
    for label, values, fmt in series:
        finite = values[np.isfinite(values)]
        span = (
            f"{fmt.format(float(finite.min()))} .. "
            f"{fmt.format(float(finite.max()))}"
            if finite.size
            else "-"
        )
        rows.append([label, _sparkline(values), span])
    _print_rows(["series", "per-window", "min .. max"], rows)


def _monitor_rules(args: argparse.Namespace, timeline: Timeline) -> List[object]:
    """SLO rules from the ``--slo-*``/``--burn-*`` flags.

    With no flags at all, a default rule alerts when a window's p99
    exceeds 5x the whole-run median — a scale-free "this window is an
    outage relative to this run" detector.
    """
    rules: List[object] = []
    if args.slo_p99 is not None:
        rules.append(
            SLORule(
                name="p99-threshold",
                metric="p99",
                threshold=usec(args.slo_p99),
                min_count=args.min_count,
            )
        )
    if args.slo_util is not None:
        if not timeline.stage_names:
            raise ConfigError(
                "--slo-util needs per-stage telemetry, which this "
                "backend's timeline does not carry"
            )
        for name in timeline.stage_names:
            rules.append(
                SLORule(
                    name=f"util-{name}",
                    metric=f"utilization:{name}",
                    threshold=args.slo_util,
                )
            )
    if args.burn_threshold is not None:
        rules.append(
            BurnRateRule(
                name="burn-rate",
                latency_threshold=usec(args.burn_threshold),
                objective=args.burn_objective,
                factor=args.burn_factor,
                min_count=args.min_count,
            )
        )
    if not rules:
        overall = timeline.overall_latency()
        if not overall.count:
            raise ConfigError("the run completed no requests to monitor")
        rules.append(
            SLORule(
                name="p99-auto",
                metric="p99",
                threshold=5.0 * overall.quantile(0.50),
                min_count=args.min_count,
            )
        )
    return rules


def cmd_monitor(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    backend = "simulate" if args.backend == "engine" else args.backend
    timeline = scenario.timeline(backend, n_windows=args.windows)
    rules = _monitor_rules(args, timeline)
    report = SLOMonitor(rules).evaluate(timeline)
    latency_rules = {
        rule.name
        for rule in rules
        if isinstance(rule, SLORule) and rule.metric in ("p50", "p95", "p99", "mean")
    }
    if args.csv is not None:
        timeline.to_csv(args.csv)
    failed = bool(args.fail_on_alert and report.alerts)
    payload = None
    if args.out is not None or _wants_json(args):
        payload = {
            "kind": "repro-monitor",
            "backend": backend,
            "timeline": timeline.to_dict(),
            "slo": report.to_dict(),
            "verdict": report.verdict(),
            "provenance": provenance(),
        }
    if args.out is not None:
        Path(args.out).write_text(json_dumps(payload))
    if _wants_json(args):
        print(json_dumps(payload))
        return 1 if failed else 0
    _print_dashboard(timeline)
    for name in sorted(report.attainment):
        value = report.attainment[name]
        shown = f"{value:.1%}" if math.isfinite(value) else "-"
        print(f"attainment {name}: {shown}")
    if report.alerts:
        print("alerts:")
        for alert in report.alerts:
            peak = (
                f"{to_usec(alert.peak):.1f}us"
                if alert.rule in latency_rules
                else f"{alert.peak:.3g}"
            )
            print(
                f"  {alert.rule}  {alert.start:.3f}s..{alert.end:.3f}s  "
                f"peak {peak}  ({alert.n_windows} windows)"
            )
    else:
        print("alerts: none")
    law = report.littles_law
    max_err = float(law["max_relative_error"])
    if math.isfinite(max_err):
        print(
            f"littles law: max rel err {max_err:.2%} "
            f"over {law['n_valid']} windows"
        )
    else:
        print("littles law: too few samples per window to check")
    if args.csv is not None:
        print(f"csv written: {args.csv}")
    if args.out is not None:
        print(f"monitor report written: {args.out}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Capacity: SLO-driven "max RPS" staged bisection + knee curves.
# ----------------------------------------------------------------------


def _capacity_objective(args: argparse.Namespace) -> CapacityObjective:
    """One :class:`CapacityObjective` from the ``--slo-*``/``--burn-*``
    flags. At most one objective flag may be given; with none, the
    default is ``p99 <= 20 ms`` (the baseline knee the README documents).
    """
    given = [
        flag
        for flag, value in (
            ("--slo-p99", args.slo_p99),
            ("--slo-p95", args.slo_p95),
            ("--slo-mean", args.slo_mean),
            ("--burn-threshold", args.burn_threshold),
            ("--slo-util", args.slo_util),
        )
        if value is not None
    ]
    if len(given) > 1:
        raise ConfigError(f"capacity takes exactly one objective, got {given}")
    common = {"confidence": args.confidence, "min_count": args.min_count}
    if args.slo_p95 is not None:
        return CapacityObjective(usec(args.slo_p95), metric="p95", **common)
    if args.slo_mean is not None:
        return CapacityObjective(usec(args.slo_mean), metric="mean", **common)
    if args.burn_threshold is not None:
        return CapacityObjective(
            args.burn_factor,
            metric="burn_rate",
            latency_threshold=usec(args.burn_threshold),
            objective=args.burn_objective,
            **common,
        )
    if args.slo_util is not None:
        stage, sep, rho = args.slo_util.partition("=")
        threshold = math.nan
        if sep and stage:
            try:
                threshold = float(rho)
            except ValueError:
                pass
        if not math.isfinite(threshold):
            raise ConfigError(
                f"bad --slo-util spec {args.slo_util!r} "
                "(expected STAGE=RHO, e.g. server-0=0.7)"
            )
        return CapacityObjective(
            threshold, metric=f"utilization:{stage}", **common
        )
    p99 = args.slo_p99 if args.slo_p99 is not None else 20_000.0
    return CapacityObjective(usec(p99), metric="p99", **common)


def _objective_value(objective: CapacityObjective, value: float) -> str:
    """Format an objective reading in its natural units."""
    if objective.is_latency:
        return f"{to_usec(value):.1f}"
    return f"{value:.3f}"


def _capacity_sweep(
    args: argparse.Namespace,
    scenario: Scenario,
    objective: CapacityObjective,
    backend: str,
) -> int:
    """``repro capacity --sweep NAME=SPEC``: the knee curve mode."""
    factor, values = _parse_factor_spec(args.sweep)
    curve = capacity_curve(
        scenario,
        objective,
        factor,
        values,
        backend=backend,
        method=args.method,
        rel_tol=args.rel_tol,
        max_probes=args.max_probes,
        n_requests=args.requests,
        max_requests=args.max_requests,
        windows=args.windows,
        spot_check=args.spot_check,
        spot_replicates=args.spot_replicates,
        workers=args.parallel,
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
        on_progress=_progress_printer if args.progress else None,
    )
    if args.out is not None:
        curve.save(args.out)
    if args.csv is not None:
        Path(args.csv).write_text(curve.to_csv())
    if _wants_json(args):
        print(json_dumps(curve.to_dict()))
        return 0
    print(f"objective: {objective.describe()}  backend: {backend}")
    # The grid keys coordinates by the factor's *label* (e.g. "mu" ->
    # "mu_kps"), which may differ from the sweep spec's name.
    label = next(
        key for key in curve.suite.cells[0].coords if key != "replicate"
    )
    rows = []
    for cell in curve.suite.cells:
        if cell.error is not None:
            rows.append(
                [f"{cell.coords[label]:.4g}", "-", "-", "-", cell.error]
            )
            continue
        rows.append(
            [
                f"{cell.coords[label]:.4g}",
                f"{cell.metrics['max_rps']:.1f}",
                f"{cell.metrics['cliff_rps']:.1f}",
                "yes" if cell.metrics["below_cliff"] else "no",
                f"{int(cell.metrics['n_probes'])}",
            ]
        )
    _print_rows(
        [label, "max rps", "cliff rps", "below cliff", "probes"], rows
    )
    print(
        f"{curve.suite.n_cells} searches: {curve.suite.executed} executed, "
        f"{curve.suite.resumed} resumed, {curve.suite.elapsed:.2f}s"
    )
    if args.out is not None:
        print(f"capacity curve written: {args.out}")
    if args.csv is not None:
        print(f"csv written: {args.csv}")
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    backend = "simulate" if args.backend == "engine" else args.backend
    objective = _capacity_objective(args)
    if args.sweep is not None:
        return _capacity_sweep(args, scenario, objective, backend)
    result = find_capacity(
        scenario,
        objective,
        backend=backend,
        method=args.method,
        rel_tol=args.rel_tol,
        max_probes=args.max_probes,
        n_requests=args.requests,
        max_requests=args.max_requests,
        windows=args.windows,
        spot_check=args.spot_check,
        spot_replicates=args.spot_replicates,
    )
    if args.out is not None:
        result.save(args.out)
    if args.csv is not None:
        Path(args.csv).write_text(result.to_csv())
    if _wants_json(args):
        print(json_dumps(result.to_dict()))
        return 0
    bracket = result.bracket
    unit = " (us)" if objective.is_latency else ""
    print(
        f"objective: {objective.describe()}  backend: {result.backend}  "
        f"method: {result.method}"
    )
    print(
        f"analytic: cliff {bracket.cliff_rps:.1f} rps "
        f"(rho {bracket.cliff_rho:.3f}), stability {bracket.stability_rps:.1f} "
        f"rps ({bracket.binding} binds), bracket "
        f"[{bracket.lo:.1f}, {bracket.hi:.1f}]"
    )
    rows = [
        [
            probe.index,
            f"{probe.rps:.1f}",
            probe.backend,
            probe.n_requests,
            _objective_value(objective, probe.value),
            f"[{_objective_value(objective, probe.ci_low)}, "
            f"{_objective_value(objective, probe.ci_high)}]",
            probe.status + ("" if probe.decisive else "?"),
            probe.escalations,
        ]
        for probe in result.probes
    ]
    _print_rows(
        ["#", "rps", "backend", "requests", f"value{unit}", f"CI{unit}",
         "status", "esc"],
        rows,
    )
    if result.capped:
        print(
            f"max rps at SLO: {result.max_rps:.1f} "
            "(capped: the SLO never binds below the stability limit)"
        )
    elif result.max_rps == 0.0:
        print(
            f"max rps at SLO: 0 (unattainable: even {result.fail_rps:.2f} "
            "rps misses the objective)"
        )
    else:
        print(
            f"max rps at SLO: {result.max_rps:.1f}  "
            f"(first failing {result.fail_rps:.1f}, "
            f"rel_tol {result.rel_tol:.0%})"
        )
    print(f"below analytic cliff: {'yes' if result.below_cliff else 'no'}")
    if result.spot_check is not None:
        spot = result.spot_check
        print(
            f"engine spot-check ({len(spot['probes'])} replicates): "
            f"{_objective_value(objective, spot['value'])}{unit} "
            f"[{_objective_value(objective, spot['ci_low'])}, "
            f"{_objective_value(objective, spot['ci_high'])}] -- "
            + ("agrees" if result.agrees else "DISAGREES")
        )
    if args.out is not None:
        print(f"capacity report written: {args.out}")
    if args.csv is not None:
        print(f"csv written: {args.csv}")
    return 0


def _explain_csv(path: str, attr, tail) -> None:
    """Stage table as CSV with the provenance comment header."""
    import csv

    means = attr.means()
    shares = attr.mean_shares()
    with open(path, "w", newline="") as handle:
        handle.write(provenance_comment() + "\r\n")
        writer = csv.writer(handle)
        writer.writerow(
            ["stage", "mean_seconds", "mean_share", f"tail_share_q{tail.quantile:g}"]
        )
        for stage in STAGES:
            writer.writerow(
                [stage, means[stage], shares[stage], tail.shares[stage]]
            )


def _print_waterfall(record, rank: int) -> None:
    """One slowest-request critical-path bar chart."""
    print(
        f"slowest #{rank}  request {int(record.request_id)}  "
        f"total {to_usec(record.total):.1f}us  (born {record.born:.4f}s)"
    )
    for stage, value in record.waterfall():
        width = int(round(32 * max(value, 0.0) / record.total)) if record.total else 0
        print(
            f"  {stage:<14} {to_usec(value):>9.1f}us  |{'#' * width}"
        )


def cmd_explain(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    backend = "simulate" if args.backend == "engine" else args.backend
    # The analytic reference is part of every explain output and it
    # rejects untenable (unstable fault-free) scenarios — compute it
    # before paying for the simulation so bad configs fail fast.
    reference = scenario.attribution_reference()
    result = scenario.run(backend, attribution=True)
    attr = result.attribution
    if attr is None or attr.count == 0:
        print("no requests completed; nothing to attribute")
        return 1
    tail = attr.tail(args.quantile)
    ref_shares = {
        group: reference[group] / reference["total"] for group in GROUPS
    }
    sim_group_shares = attr.group_shares()

    if args.csv is not None:
        _explain_csv(args.csv, attr, tail)
    payload = None
    if args.out is not None or _wants_json(args):
        payload = {
            "kind": "repro-explain",
            "backend": backend,
            "scenario": scenario.to_dict(),
            "attribution": attr.to_dict(),
            "tail": tail.to_dict(),
            "reference": reference,
            "reference_shares": ref_shares,
            "provenance": provenance(),
        }
    if args.out is not None:
        Path(args.out).write_text(json_dumps(payload))
    if _wants_json(args):
        print(json_dumps(payload))
        return 0

    means = attr.means()
    shares = attr.mean_shares()
    print(
        f"latency provenance — {backend} backend, "
        f"{attr.count} requests attributed"
    )
    print(
        f"mean total {to_usec(attr.mean_total()):.1f}us   "
        f"tail threshold {to_usec(tail.threshold):.1f}us "
        f"(q={tail.quantile:g}, {tail.n_tail} requests)"
    )
    print()
    ranked = sorted(STAGES, key=lambda stage: -abs(shares[stage]))
    _print_rows(
        ["stage", "mean (us)", "mean share", f"q{tail.quantile:g} share"],
        [
            [
                stage,
                f"{to_usec(means[stage]):.2f}",
                f"{shares[stage]:+.1%}",
                f"{tail.shares[stage]:+.1%}",
            ]
            for stage in ranked
        ],
    )
    print()
    print(
        f"dominant tail stage: {tail.dominant} "
        f"({tail.shares[tail.dominant]:.1%} of q{tail.quantile:g} latency)"
    )
    print()
    for rank, record in enumerate(attr.slowest[: args.top], 1):
        _print_waterfall(record, rank)
        print()
    print("group shares vs fault-free analytic reference:")
    _print_rows(
        ["group", "simulated", "analytic", "diff"],
        [
            [
                group,
                f"{sim_group_shares[group]:+.1%}",
                f"{ref_shares[group]:+.1%}",
                f"{(sim_group_shares[group] - ref_shares[group]) * 100:+.1f}pp",
            ]
            for group in GROUPS
        ],
    )
    if args.csv is not None:
        print(f"csv written: {args.csv}")
    if args.out is not None:
        print(f"explain report written: {args.out}")
    return 0


def _backend_options(args: argparse.Namespace) -> dict:
    """Per-backend runner options from CLI flags (one registry scan)."""
    return options_from_args(getattr(args, "backend", "estimate"), args)


def _progress_printer(result, done: int, total: int) -> None:
    """``--progress`` line per completed cell (stderr, parent process)."""
    status = "ok" if result.ok else "FAILED"
    detail = "resumed" if result.resumed else f"{result.elapsed:.2f}s"
    print(f"[{done}/{total}] cell {result.index} {status} ({detail})", file=sys.stderr)


def _execute_suite(args: argparse.Namespace, suite: Suite) -> SuiteResult:
    """Run a suite with the CLI's parallel/checkpoint/resume flags."""
    return run_suite(
        suite,
        workers=getattr(args, "parallel", None),
        checkpoint_dir=getattr(args, "out", None),
        resume=bool(getattr(args, "resume", False)),
        on_progress=(
            _progress_printer if getattr(args, "progress", False) else None
        ),
    )


#: Metrics shown (in us) per backend by ``sweep``/``experiment`` tables.
_DISPLAY_METRICS = {
    "estimate": ("mean", "ci_low", "ci_high"),
    "simulate": ("mean", "p95", "p99"),
    "fastpath": ("mean", "p95", "p99"),
    "fastpath-system": ("mean", "p95", "p99"),
}


def _print_suite(args: argparse.Namespace, result: SuiteResult) -> int:
    """Aggregated suite table (replicate means) + run accounting."""
    if _wants_json(args):
        print(json_dumps(result.to_dict()))
        return 0
    metrics = _DISPLAY_METRICS[result.backend]
    coord_labels = [
        label for label in result.cells[0].coords if label != "replicate"
    ]
    aggregates = {metric: result.aggregate(metric) for metric in metrics}
    rows = [
        [f"{value:.4g}" for value in key]
        + [f"{to_usec(aggregates[metric][key]):.1f}" for metric in metrics]
        for key in aggregates[metrics[0]]
    ]
    _print_rows(coord_labels + [f"{m} (us)" for m in metrics], rows)
    print(
        f"{result.n_cells} cells: {result.executed} executed, "
        f"{result.resumed} resumed, {result.elapsed:.2f}s"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    factor = get_factor(args.factor)
    values = [float(v) for v in np.linspace(args.start, args.stop, args.points)]
    suite = sweep_suite(
        _scenario_from_args(args),
        args.factor,
        values,
        backend=args.backend,
        seeds=args.seeds,
        **_backend_options(args),
    )
    result = _execute_suite(args, suite)
    if args.backend != "estimate" or args.seeds > 1:
        return _print_suite(args, result)
    # Classic one-factor table: the Theorem 1 bounds the paper plots
    # for this axis (server-stage bounds for server factors, the
    # eq. (23) point estimate for the database factor).
    lower_key, upper_key = factor.sweep_metrics
    lower = result.series(lower_key)
    upper = result.series(upper_key)
    if _wants_json(args):
        print(
            json_dumps(
                {
                    "kind": "repro-sweep",
                    "parameter": factor.label,
                    "values": values,
                    "lower": lower,
                    "upper": upper,
                }
            )
        )
        return 0
    rows = [
        [f"{value:.4g}", f"{to_usec(lo):.1f}", f"{to_usec(up):.1f}"]
        for value, lo, up in zip(values, lower, upper)
    ]
    _print_rows([factor.label, "lower (us)", "upper (us)"], rows)
    return 0


def _parse_factor_spec(spec: str) -> Tuple[str, List[float]]:
    """``NAME=START:STOP:POINTS`` or ``NAME=v1,v2,...`` -> (name, values)."""
    name, sep, rhs = spec.partition("=")
    name = name.strip()
    if not sep or not name or not rhs:
        raise ReproError(
            f"bad factor spec {spec!r} "
            "(expected NAME=START:STOP:POINTS or NAME=v1,v2,...)"
        )
    try:
        if ":" in rhs:
            start_s, stop_s, points_s = rhs.split(":")
            points = int(points_s)
            if points < 1:
                raise ReproError(f"factor {name!r} needs >= 1 points")
            values = [
                float(v) for v in np.linspace(float(start_s), float(stop_s), points)
            ]
        else:
            values = [float(v) for v in rhs.split(",")]
    except ValueError as exc:
        raise ReproError(f"bad factor spec {spec!r}: {exc}") from exc
    return name, values


def cmd_experiment(args: argparse.Namespace) -> int:
    axes = dict(_parse_factor_spec(spec) for spec in args.factor)
    grid = Grid(_scenario_from_args(args), axes, seeds=args.seeds)
    suite = Suite(
        args.name, grid, backend=args.backend, options=_backend_options(args)
    )
    return _print_suite(args, _execute_suite(args, suite))


def cmd_cliff_table(args: argparse.Namespace) -> int:
    xis = [round(0.05 * i, 2) for i in range(20)]
    ours = cliff_table(xis, method=args.method)
    rows = [
        [f"{xi:.2f}", f"{ours[xi]:.0%}", f"{PAPER_TABLE_4[xi]:.0%}"]
        for xi in xis
    ]
    _print_rows(["xi", "ours", "paper"], rows)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .core import validate_configuration

    scenario = _scenario_from_args(args)
    report = validate_configuration(
        scenario.latency_model(),
        n_keys=scenario.n_keys,
        n_requests=scenario.n_requests,
        pool_size=args.pool_size,
        seed=scenario.seed,
    )
    if _wants_json(args):
        print(
            json_dumps(
                {
                    "kind": "repro-validate",
                    "n_keys": report.n_keys,
                    "n_requests": report.n_requests,
                    "all_consistent": report.all_consistent,
                    "stages": report.stages,
                }
            )
        )
        return 0 if report.all_consistent else 1
    rows = []
    for stage in report.stages:
        if stage.theory_lower == stage.theory_upper:
            theory = f"{to_usec(stage.theory_lower):.1f}"
        else:
            theory = (
                f"{to_usec(stage.theory_lower):.1f}.."
                f"{to_usec(stage.theory_upper):.1f}"
            )
        rows.append(
            [
                stage.stage,
                theory,
                f"{to_usec(stage.simulated):.1f}",
                "ok" if stage.consistent else "INCONSISTENT",
            ]
        )
    _print_rows(["stage", "theory (us)", "simulated (us)", "verdict"], rows)
    if not report.all_consistent:
        print(
            "warning: simulation outside the documented Theorem 1 slack "
            "(see EXPERIMENTS.md)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_config_template(args: argparse.Namespace) -> int:
    print(Scenario.paper_section_5_1().to_json())
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from .workloads import KeyTrace

    trace = KeyTrace.load_csv(args.trace)
    fit = trace.fit_workload(window=usec(args.window))
    print(f"trace      : {trace.n_keys} keys over {trace.duration:.3f}s")
    print(f"key rate   : {fit.rate / 1e3:.2f} Kps")
    print(f"burst xi   : {fit.xi:.3f}")
    print(f"concurrency: {fit.q:.3f}")
    if args.service_rate is not None:
        workload = WorkloadPattern(rate=fit.rate, xi=fit.xi, q=fit.q)
        stage = ServerStage(workload, kps(args.service_rate))
        bounds = stage.mean_latency_bounds(args.n_keys)
        print(
            f"E[TS({args.n_keys})] at muS = {args.service_rate} Kps: "
            f"[{to_usec(bounds.lower):.1f}, {to_usec(bounds.upper):.1f}] us "
            f"(utilization {stage.utilization:.1%})"
        )
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    model = scenario.tail_model()
    rows = []
    for level in (0.5, 0.9, 0.95, 0.99, 0.999):
        bounds = model.request_quantile_bounds(level, scenario.n_keys)
        rows.append(
            [
                f"p{level * 100:g}",
                f"{to_usec(bounds.lower):.1f}",
                f"{to_usec(bounds.upper):.1f}",
            ]
        )
    _print_rows(["percentile", "lower (us)", "upper (us)"], rows)
    if scenario.miss_ratio > 0:
        exact = model.database_mean_exact(scenario.n_keys)
        print(f"exact E[TD(N)] (vs eq. 23): {to_usec(exact):.1f} us")
    return 0


def cmd_miss_curve(args: argparse.Namespace) -> int:
    from .distributions import Zipf
    from .memcached import miss_ratio_curve

    popularity = Zipf(args.items, args.zipf_s)
    capacities = np.unique(
        np.logspace(
            np.log10(max(args.items * 0.001, 1.0)),
            np.log10(args.items * 0.9),
            args.points,
        ).astype(int)
    )
    curve = miss_ratio_curve(popularity.probabilities, capacities)
    rows = [
        [int(c), f"{r:.4f}", f"{to_usec(DatabaseStage(_database_rate(args), max(r, 1e-12)).mean_latency(args.n_keys)):.1f}"]
        for c, r in zip(capacities, curve)
    ]
    _print_rows(["capacity (items)", "miss ratio r", "E[TD(N)] (us)"], rows)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report = RunReport.load(args.path)
    if _wants_json(args):
        print(report.to_json())
        return 0
    if report.config:
        print("config:")
        for key in sorted(report.config):
            print(f"  {key}: {report.config[key]}")
    rows = []
    for stage, count, mean, p50, p95, p99 in report.stage_rows():
        rows.append(
            [
                stage,
                count,
                f"{to_usec(mean):.1f}",
                f"{to_usec(p50):.1f}" if p50 is not None else "-",
                f"{to_usec(p95):.1f}" if p95 is not None else "-",
                f"{to_usec(p99):.1f}" if p99 is not None else "-",
            ]
        )
    if rows:
        _print_rows(
            ["stage", "count", "mean (us)", "p50 (us)", "p95 (us)", "p99 (us)"],
            rows,
        )
    for key in ("requests_completed", "keys_processed", "measured_miss_ratio"):
        if key in report.meta:
            print(f"{key}: {report.meta[key]}")
    if report.timeline is not None:
        timeline = Timeline.from_dict(report.timeline)
        print(
            f"timeline: {timeline.n_windows} windows x "
            f"{to_msec(timeline.window):.2f} ms"
        )
        print(
            f"  p99 (us)     {_sparkline(to_usec(timeline.quantile_series(0.99)))}"
        )
        print(f"  arrival rate {_sparkline(timeline.arrival_rate())}")
        law = timeline.littles_law()
        max_err = float(law["max_relative_error"])
        if math.isfinite(max_err):
            print(
                f"  littles law: max rel err {max_err:.2%} "
                f"over {law['n_valid']} windows"
            )
    if report.profile:
        profile = report.profile
        print(
            f"event loop: {profile.get('events')} events, "
            f"{profile.get('wall_seconds', 0.0):.3f}s wall, "
            f"{profile.get('events_per_second', 0.0):,.0f} events/s, "
            f"max pending {profile.get('pending_max')}"
        )
        categories = profile.get("categories") or {}
        for name, stats in list(categories.items())[:5]:
            print(
                f"  {name}: {stats['count']} calls, "
                f"{stats['wall_seconds'] * 1e3:.1f} ms, "
                f"{stats['mean_usec']:.1f} us/call"
            )
    print(f"metrics: {len(report.metrics)}  slow traces: {len(report.slowest)}")
    return 0


def _print_span(span: Span, root_start: float, depth: int) -> None:
    indent = "  " * depth
    duration = f"{to_usec(span.duration):.1f}us" if span.finished else "?"
    offset = to_usec(span.start - root_start)
    attrs = ""
    if span.attributes:
        attrs = "  " + " ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
    print(f"{indent}{span.name}  +{offset:.1f}us  {duration}{attrs}")
    for child in span.children:
        _print_span(child, root_start, depth + 1)


def cmd_trace(args: argparse.Namespace) -> int:
    report = RunReport.load(args.path)
    spans = report.slowest_spans()[: args.top]
    if not spans:
        print("report contains no traces (run simulate with --trace)")
        return 1
    if _wants_json(args):
        print(json_dumps([span.to_dict() for span in spans]))
        return 0
    for rank, span in enumerate(spans, 1):
        print(
            f"#{rank}  {span.name}  {to_usec(span.duration):.1f}us  "
            + " ".join(
                f"{key}={value}" for key, value in sorted(span.attributes.items())
            )
        )
        for child in span.children:
            _print_span(child, span.start, 1)
        print()
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    if args.hottest_share is not None:
        cluster = ClusterModel.hot_cold(
            scenario.n_servers,
            scenario.service_rate,
            hottest_share=args.hottest_share,
        )
    else:
        cluster = scenario.cluster()
    database = DatabaseStage(scenario.database_rate, scenario.miss_ratio)
    report = advise(
        workload=scenario.workload(),
        cluster=cluster,
        total_key_rate=kps(args.total_rate),
        n_keys=scenario.n_keys,
        database=database,
    )
    print(report)
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memcached latency model (ICDCS 2017 reproduction)",
    )
    parser.add_argument(
        "--json",
        dest="json_global",
        action="store_true",
        help="emit machine-readable JSON (estimate/simulate/validate/sweep)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="Theorem 1 latency bounds")
    _add_workload_args(p_est)
    _add_json_flag(p_est)
    p_est.add_argument(
        "--config", default=None,
        help="JSON experiment config (overrides the flag-based workload)",
    )
    p_est.set_defaults(func=cmd_estimate)

    p_cfg = sub.add_parser(
        "config-template", help="print the §5.1 config as JSON"
    )
    p_cfg.set_defaults(func=cmd_config_template)

    p_sim = sub.add_parser("simulate", help="closed-loop system simulation")
    _add_workload_args(p_sim)
    _add_fault_policy_args(p_sim)
    _add_json_flag(p_sim)
    p_sim.add_argument(
        "--backend",
        choices=["engine", "fastpath", "fastpath-system"],
        default="engine",
        help=(
            "event engine (default; supports tracing/reports), the "
            "per-key Lindley fast path, or the vectorized whole-system "
            "fast path"
        ),
    )
    p_sim.add_argument(
        "--pool-size",
        type=int,
        default=None,
        help="fastpath backend: per-server latency pool size",
    )
    p_sim.add_argument("--servers", type=int, default=4)
    p_sim.add_argument("--requests", type=int, default=2000)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument(
        "--trace",
        action="store_true",
        help="collect per-request span trees (slowest kept, see --slowest)",
    )
    p_sim.add_argument(
        "--profile",
        action="store_true",
        help="profile the event loop (wall time per callback category)",
    )
    p_sim.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write a JSON run report (enables metrics + profiling)",
    )
    p_sim.add_argument(
        "--slowest",
        type=int,
        default=10,
        help="how many slowest-request traces to retain (default 10)",
    )
    _add_timeline_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_mon = sub.add_parser(
        "monitor", help="windowed telemetry + SLO dashboard for one run"
    )
    _add_workload_args(p_mon)
    _add_fault_policy_args(p_mon)
    _add_json_flag(p_mon)
    p_mon.add_argument(
        "--backend",
        choices=["engine", "fastpath-system"],
        default="engine",
        help="which simulation backend records the timeline",
    )
    p_mon.add_argument("--servers", type=int, default=4)
    p_mon.add_argument("--requests", type=int, default=4000)
    p_mon.add_argument("--seed", type=int, default=1)
    p_mon.add_argument(
        "--windows",
        type=int,
        default=48,
        help="windows the run is sliced into (default 48)",
    )
    p_mon.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        metavar="US",
        help="alert when a window's p99 exceeds this latency in us "
        "(default: 5x the whole-run median, if no other rule is given)",
    )
    p_mon.add_argument(
        "--slo-util",
        type=float,
        default=None,
        metavar="RHO",
        help="alert when any stage's utilization exceeds this fraction",
    )
    p_mon.add_argument(
        "--burn-threshold",
        type=float,
        default=None,
        metavar="US",
        help="error-budget rule: a request is 'bad' above this latency (us)",
    )
    p_mon.add_argument(
        "--burn-objective",
        type=float,
        default=0.99,
        help="fraction of requests that must meet --burn-threshold",
    )
    p_mon.add_argument(
        "--burn-factor",
        type=float,
        default=1.0,
        help="burn-rate multiple that fires the alert (default 1.0)",
    )
    p_mon.add_argument(
        "--min-count",
        type=int,
        default=5,
        help="latency rules skip windows with fewer completions (default 5)",
    )
    p_mon.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the monitor report (timeline + SLO evaluation) as JSON",
    )
    p_mon.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="export the per-window series as CSV",
    )
    p_mon.add_argument(
        "--fail-on-alert",
        action="store_true",
        help="exit 1 when any SLO alert fires",
    )
    p_mon.set_defaults(func=cmd_monitor)

    p_cap = sub.add_parser(
        "capacity",
        help="max sustainable RPS under an SLO (staged bisection)",
    )
    _add_workload_args(p_cap)
    _add_fault_policy_args(p_cap)
    _add_json_flag(p_cap)
    p_cap.add_argument(
        "--backend",
        choices=["engine", "fastpath", "fastpath-system"],
        default="fastpath-system",
        help="backend the bisection probes (default: fastpath-system)",
    )
    p_cap.add_argument("--servers", type=int, default=4)
    p_cap.add_argument("--seed", type=int, default=1)
    p_cap.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help="starting request budget per probe (default: 2000; "
        "indeterminate probes double it)",
    )
    p_cap.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="escalation ceiling per probe (default: 8x the base budget)",
    )
    p_cap.add_argument(
        "--windows",
        type=int,
        default=24,
        help="timeline windows per probe (batch-means CI input, default 24)",
    )
    p_cap.add_argument(
        "--rel-tol",
        type=float,
        default=0.02,
        help="stop when the pass/fail bracket is this tight (default 0.02)",
    )
    p_cap.add_argument(
        "--max-probes",
        type=int,
        default=32,
        help="total probe budget (default 32)",
    )
    p_cap.add_argument(
        "--method",
        default="relative-slope",
        choices=["relative-slope", "iso-delta", "absolute-slope"],
        help="Proposition 2 cliff detector anchoring the bracket",
    )
    p_cap.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        metavar="US",
        help="objective: p99 latency bound in us (default 20000 when no "
        "other objective flag is given)",
    )
    p_cap.add_argument(
        "--slo-p95",
        type=float,
        default=None,
        metavar="US",
        help="objective: p95 latency bound in us",
    )
    p_cap.add_argument(
        "--slo-mean",
        type=float,
        default=None,
        metavar="US",
        help="objective: mean latency bound in us",
    )
    p_cap.add_argument(
        "--slo-util",
        default=None,
        metavar="STAGE=RHO",
        help="objective: a stage's busy fraction bound (e.g. server-0=0.7)",
    )
    p_cap.add_argument(
        "--burn-threshold",
        type=float,
        default=None,
        metavar="US",
        help="objective: error-budget burn rate; a request is 'bad' above "
        "this latency (us)",
    )
    p_cap.add_argument(
        "--burn-objective",
        type=float,
        default=0.99,
        help="fraction of requests that must meet --burn-threshold",
    )
    p_cap.add_argument(
        "--burn-factor",
        type=float,
        default=1.0,
        help="burn-rate multiple the search holds the system under",
    )
    p_cap.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="probe confidence level (default 0.95)",
    )
    p_cap.add_argument(
        "--min-count",
        type=int,
        default=5,
        help="windows with fewer completions are excluded (default 5)",
    )
    p_cap.add_argument(
        "--spot-check",
        action="store_true",
        help="replicate the found knee on the event engine and test "
        "backend agreement",
    )
    p_cap.add_argument(
        "--spot-replicates",
        type=int,
        default=3,
        help="independent engine runs pooled by the spot-check (default 3)",
    )
    p_cap.add_argument(
        "--sweep",
        default=None,
        metavar="NAME=START:STOP:POINTS",
        help="knee-curve mode: one capacity search per factor value "
        "(NAME=v1,v2,... also accepted)",
    )
    p_cap.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --sweep (results identical for any N)",
    )
    p_cap.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="--sweep checkpoint directory (one JSON per search)",
    )
    p_cap.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed --sweep searches from --checkpoint",
    )
    p_cap.add_argument(
        "--progress",
        action="store_true",
        help="print one progress line per completed search to stderr",
    )
    p_cap.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the capacity result (or curve) as JSON",
    )
    p_cap.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="export the probe trace (or knee curve) as CSV",
    )
    p_cap.set_defaults(func=cmd_capacity)

    p_expl = sub.add_parser(
        "explain",
        help="per-request latency provenance: stage shares + root cause",
    )
    _add_workload_args(p_expl)
    _add_fault_policy_args(p_expl)
    _add_json_flag(p_expl)
    p_expl.add_argument(
        "--backend",
        choices=["engine", "fastpath-system"],
        default="engine",
        help="which simulation backend records the attribution",
    )
    p_expl.add_argument("--servers", type=int, default=4)
    p_expl.add_argument("--requests", type=int, default=2000)
    p_expl.add_argument("--seed", type=int, default=1)
    p_expl.add_argument(
        "--quantile",
        type=float,
        default=0.99,
        help="tail quantile the stage shares are conditioned on (default 0.99)",
    )
    p_expl.add_argument(
        "--top",
        type=int,
        default=3,
        help="slowest-request waterfalls to print (default 3)",
    )
    p_expl.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the explain report (attribution + reference) as JSON",
    )
    p_expl.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="export the ranked stage table as CSV",
    )
    p_expl.set_defaults(func=cmd_explain)

    p_sweep = sub.add_parser(
        "sweep", help="one-factor sweeps (factor registry + runner)"
    )
    _add_workload_args(p_sweep)
    _add_fault_policy_args(p_sweep)
    _add_json_flag(p_sweep)
    p_sweep.add_argument("factor", choices=list(factor_names()))
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=11)
    _add_runner_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser(
        "experiment", help="multi-factor experiment grids (parallel runner)"
    )
    _add_workload_args(p_exp)
    _add_fault_policy_args(p_exp)
    _add_json_flag(p_exp)
    p_exp.add_argument(
        "--factor",
        action="append",
        required=True,
        metavar="NAME=START:STOP:POINTS",
        help="sweep axis (repeatable); NAME=v1,v2,... also accepted",
    )
    p_exp.add_argument("--name", default="experiment", help="suite name")
    _add_runner_args(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_cliff = sub.add_parser("cliff-table", help="reproduce Table 4")
    p_cliff.add_argument(
        "--method",
        default="relative-slope",
        choices=["relative-slope", "iso-delta", "absolute-slope"],
    )
    p_cliff.set_defaults(func=cmd_cliff_table)

    p_val = sub.add_parser("validate", help="theory vs fast-path simulation")
    _add_workload_args(p_val)
    _add_json_flag(p_val)
    p_val.add_argument("--requests", type=int, default=20000)
    p_val.add_argument("--pool-size", type=int, default=500_000)
    p_val.add_argument("--seed", type=int, default=1)
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("report", help="inspect a saved run report")
    p_rep.add_argument("path", help="JSON file written by simulate --report")
    _add_json_flag(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_trc = sub.add_parser(
        "trace", help="print slowest-request span trees from a run report"
    )
    p_trc.add_argument("path", help="JSON file written by simulate --report")
    p_trc.add_argument(
        "--top", type=int, default=10, help="how many traces to print"
    )
    _add_json_flag(p_trc)
    p_trc.set_defaults(func=cmd_trace)

    p_fit = sub.add_parser("fit", help="fit (lambda, xi, q) from a trace CSV")
    p_fit.add_argument("trace", help="CSV written by KeyTrace.save_csv")
    p_fit.add_argument(
        "--window", type=float, default=1.0, help="concurrency window in us"
    )
    p_fit.add_argument(
        "--service-rate", type=float, default=None,
        help="optional muS (Kps) to also print Theorem 1 bounds",
    )
    p_fit.add_argument("--n-keys", type=int, default=150)
    p_fit.set_defaults(func=cmd_fit)

    p_tail = sub.add_parser("tail", help="request latency percentiles")
    _add_workload_args(p_tail)
    p_tail.set_defaults(func=cmd_tail)

    p_curve = sub.add_parser(
        "miss-curve", help="LRU miss-ratio curve (Che approximation)"
    )
    p_curve.add_argument("--items", type=int, default=100_000)
    p_curve.add_argument("--zipf-s", type=float, default=0.9)
    p_curve.add_argument("--points", type=int, default=10)
    p_curve.add_argument("--n-keys", type=int, default=150)
    p_curve.add_argument("--db-latency", type=float, default=1000.0)
    p_curve.set_defaults(func=cmd_miss_curve)

    p_rec = sub.add_parser("recommend", help="configuration advisor (§5.3)")
    _add_workload_args(p_rec)
    p_rec.add_argument("--servers", type=int, default=4)
    p_rec.add_argument(
        "--total-rate", type=float, default=250.0, help="total key rate in Kps"
    )
    p_rec.add_argument(
        "--hottest-share", type=float, default=None, help="p1 for hot/cold clusters"
    )
    p_rec.set_defaults(func=cmd_recommend)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
