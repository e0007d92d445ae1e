"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.observability import GIT_SHA_ENV


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.rate == 62.5
        assert args.n_keys == 150

    def test_sweep_requires_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "q"])


class TestEstimate:
    def test_outputs_theorem1(self, capsys):
        assert main(["estimate"]) == 0
        out = capsys.readouterr().out
        assert "T(150)" in out
        assert "dominant stage" in out
        assert "delta" in out

    def test_every_key_missing_prints_the_table(self, capsys):
        # At r = 1 the database stage is hit on every request.
        assert main(["estimate", "--miss-ratio", "1"]) == 0
        out = capsys.readouterr().out
        assert "T(150)" in out
        assert "dominant stage: database" in out


class TestSweep:
    def test_q_sweep(self, capsys):
        code = main(["sweep", "q", "--start", "0", "--stop", "0.4", "--points", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "q" in out
        assert out.count("\n") >= 5

    def test_miss_ratio_sweep(self, capsys):
        assert main(["sweep", "r", "--start", "0.001", "--stop", "0.1", "--points", "3"]) == 0
        assert "miss_ratio" in capsys.readouterr().out

    def test_mu_sweep(self, capsys):
        assert main(["sweep", "mu", "--start", "90", "--stop", "200", "--points", "3"]) == 0

    def test_unstable_sweep_reports_error(self, capsys):
        code = main(["sweep", "rate", "--start", "10", "--stop", "100", "--points", "4"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSweepRunnerFlags:
    def test_parallel_matches_serial_json(self, capsys):
        argv = ["sweep", "q", "--start", "0", "--stop", "0.4", "--points", "4",
                "--json"]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(argv + ["--parallel", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel == serial

    def test_fastpath_backend_table(self, capsys):
        code = main(
            ["sweep", "q", "--start", "0", "--stop", "0.2", "--points", "2",
             "--backend", "fastpath", "--pool-size", "5000",
             "--requests", "200", "--n-keys", "10", "--rate", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p99 (us)" in out
        assert "2 cells: 2 executed, 0 resumed" in out

    def test_sweep_resume_from_checkpoints(self, tmp_path, capsys):
        argv = ["sweep", "q", "--start", "0", "--stop", "0.2", "--points", "3",
                "--backend", "fastpath", "--pool-size", "5000",
                "--requests", "200", "--n-keys", "10", "--rate", "40",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(list(tmp_path.glob("cell-*.json"))) == 3
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 3 resumed" in second
        assert second.splitlines()[:4] == first.splitlines()[:4]  # same table

    def test_new_registry_factor(self, capsys):
        assert main(
            ["sweep", "n", "--start", "10", "--stop", "150", "--points", "3"]
        ) == 0
        assert "n_keys" in capsys.readouterr().out


class TestExperiment:
    ARGS = ["experiment", "--factor", "n=10:20:2", "--factor", "q=0,0.2",
            "--backend", "fastpath", "--pool-size", "5000",
            "--requests", "200", "--n-keys", "10", "--rate", "40"]

    def test_grid_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "n_keys" in out and "q" in out
        assert "4 cells: 4 executed, 0 resumed" in out

    def test_parallel_json_identical_to_serial(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(self.ARGS + ["--json", "--parallel", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial["kind"] == "repro-experiment-suite"

        def stable(cells):  # wall-clock timing is the one legit difference
            return [{k: v for k, v in c.items() if k != "elapsed"} for c in cells]

        assert stable(parallel["cells"]) == stable(serial["cells"])

    def test_seeds_replicate(self, capsys):
        assert main(self.ARGS + ["--seeds", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 8

    def test_resume(self, tmp_path, capsys):
        argv = self.ARGS + ["--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        checkpoints = sorted(tmp_path.glob("cell-*.json"))
        assert len(checkpoints) == 4
        checkpoints[0].unlink()
        assert main(argv + ["--resume"]) == 0
        assert "1 executed, 3 resumed" in capsys.readouterr().out

    def test_bad_factor_spec(self, capsys):
        assert main(["experiment", "--factor", "nonsense"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_factor_name(self, capsys):
        assert main(["experiment", "--factor", "bogus=1:2:2"]) == 1
        assert "error" in capsys.readouterr().err


class TestCliffTable:
    def test_lists_all_xis(self, capsys):
        assert main(["cliff-table"]) == 0
        out = capsys.readouterr().out
        assert "0.00" in out and "0.95" in out
        assert "77%" in out


class TestValidate:
    def test_reports_theory_and_simulation(self, capsys):
        code = main(
            ["validate", "--requests", "500", "--pool-size", "50000", "--n-keys", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TS(N)" in out and "simulated" in out


class TestSimulate:
    def test_small_run(self, capsys):
        code = main(
            [
                "simulate",
                "--requests", "100",
                "--n-keys", "10",
                "--rate", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "T(N)" in out
        assert "miss ratio" in out


class TestFaultPolicyFlags:
    _BASE = ["simulate", "--requests", "100", "--n-keys", "10", "--rate", "20"]

    def test_inline_fault_json(self, capsys):
        spec = (
            '{"windows": [{"kind": "server-slowdown", "start": 0.001,'
            ' "duration": 0.01, "factor": 0.5}]}'
        )
        assert main(self._BASE + ["--faults", spec]) == 0
        assert "T(N)" in capsys.readouterr().out

    def test_fault_file(self, tmp_path, capsys):
        from repro.faults import DatabaseOverload, FaultSchedule

        path = tmp_path / "faults.json"
        FaultSchedule.single(
            DatabaseOverload(start=0.001, duration=0.01, factor=0.5)
        ).save(path)
        assert main(self._BASE + ["--faults", str(path)]) == 0
        assert "T(N)" in capsys.readouterr().out

    def test_missing_fault_file_errors(self, capsys):
        assert main(self._BASE + ["--faults", "no/such/file.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_hedge_delay(self, capsys):
        assert main(self._BASE + ["--hedge-delay", "300"]) == 0
        assert "T(N)" in capsys.readouterr().out

    def test_hedge_delay_and_quantile_conflict(self, capsys):
        code = main(
            self._BASE
            + ["--hedge-delay", "300", "--hedge-quantile", "0.95"]
        )
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_key_timeout_retry(self, capsys):
        code = main(
            self._BASE
            + ["--key-timeout", "500", "--max-retries", "2",
               "--retry-backoff", "1.5"]
        )
        assert code == 0
        assert "T(N)" in capsys.readouterr().out

    def test_fastpath_system_rejects_policy(self, capsys):
        code = main(
            self._BASE
            + ["--backend", "fastpath-system", "--hedge-delay", "300"]
        )
        assert code == 1
        assert "policy" in capsys.readouterr().err

    def test_deprecated_helpers_are_gone(self):
        import repro.cli as cli

        assert not hasattr(cli, "_workload_from")
        assert not hasattr(cli, "_model_from")


class TestConfigWorkflow:
    #: ``config-template`` output, byte for byte: existing config files
    #: and scripts depend on this exact layout.
    TEMPLATE = """{
  "burst_xi": 0.15,
  "concurrency_q": 0.1,
  "database_rate": 1000.0,
  "faults": null,
  "key_rate": 62500.0,
  "miss_ratio": 0.01,
  "n_keys": 150,
  "n_requests": 2000,
  "n_servers": 4,
  "network_delay": 2e-05,
  "policy": null,
  "seed": 0,
  "service_rate": 80000.0,
  "shares": null,
  "warmup_requests": 200
}
"""

    def test_template_prints_json(self, capsys):
        assert main(["config-template"]) == 0
        assert capsys.readouterr().out == self.TEMPLATE

    def test_estimate_with_config_file(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(self.TEMPLATE)
        assert main(["estimate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "T(150)" in out

    def test_missing_config_file_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["estimate", "--config", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config")
        assert len(err.strip().splitlines()) == 1


class TestBadArguments:
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_db_latency(self, value, capsys):
        assert main(["estimate", "--db-latency", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --db-latency must be > 0")

    def test_zero_requests_rejected(self, capsys):
        code = main(["simulate", "--requests", "0", "--n-keys", "5"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: n_requests must be >= 1"
        )


    @pytest.mark.parametrize(
        "command", ["simulate", "explain", "monitor", "capacity"]
    )
    def test_negative_seed_rejected(self, command, capsys):
        code = main([command, "--seed", "-1", "--requests", "20", "--n-keys", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -1")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--rate", "inf", "key_rate must be finite and > 0, got inf"),
            ("--rate", "-1", "key_rate must be finite and > 0, got -1000.0"),
            ("--network-delay", "nan", "network_delay must be finite and >= 0"),
        ],
        ids=["rate-inf", "rate-negative", "network-delay-nan"],
    )
    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_bad_number_names_the_field(self, command, flag, value, message, capsys):
        assert main([command, flag, value, "--n-keys", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1


class TestTail:
    def test_percentile_table(self, capsys):
        assert main(["tail"]) == 0
        out = capsys.readouterr().out
        assert "p99.9" in out
        assert "exact E[TD(N)]" in out

    def test_no_database(self, capsys):
        assert main(["tail", "--miss-ratio", "0"]) == 0
        out = capsys.readouterr().out
        assert "exact E[TD(N)]" not in out


class TestMissCurve:
    def test_curve_rows(self, capsys):
        assert main(["miss-curve", "--items", "5000", "--points", "4"]) == 0
        out = capsys.readouterr().out
        assert "miss ratio r" in out
        assert "E[TD(N)]" in out


class TestFit:
    def test_fit_from_csv(self, tmp_path, capsys):
        import numpy as np

        from repro.workloads import KeyTrace

        rng = np.random.default_rng(5)
        trace = KeyTrace(np.cumsum(rng.exponential(1 / 20_000, 40_000)))
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        assert main(["fit", str(path), "--service-rate", "80"]) == 0
        out = capsys.readouterr().out
        assert "key rate" in out
        assert "E[TS(150)]" in out

    def test_fit_without_service_rate(self, tmp_path, capsys):
        import numpy as np

        from repro.workloads import KeyTrace

        rng = np.random.default_rng(6)
        trace = KeyTrace(np.cumsum(rng.exponential(1 / 20_000, 20_000)))
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        assert main(["fit", str(path)]) == 0
        assert "E[TS" not in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_unreadable_trace_is_one_line_error(self, tmp_path, name, capsys):
        path = tmp_path / name
        assert main(["fit", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read trace {path}: ")
        assert len(err.strip().splitlines()) == 1


class TestUndecodableFiles:
    """A file that is not UTF-8 gives one ``error: cannot read`` line,
    as a missing file does, on every command that reads one."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit"], "cannot read trace"),
            (["report"], "cannot read run report"),
            (["estimate", "--config"], "cannot read config"),
            (
                ["simulate", "--requests", "20", "--n-keys", "5", "--faults"],
                "cannot read fault schedule",
            ),
        ],
        ids=["fit", "report", "estimate-config", "simulate-faults"],
    )
    def test_one_line_error(self, tmp_path, capsys, argv, message):
        path = tmp_path / "binary.dat"
        path.write_bytes(b"\x7fELF\x80\xff\xfe\x00\xc3(")
        assert main(argv + [str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message} ")
        assert len(err.strip().splitlines()) == 1


class TestJsonOutput:
    def test_estimate_json(self, capsys):
        assert main(["estimate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-estimate"
        assert payload["n_keys"] == 150
        assert payload["total_lower"] <= payload["total_upper"]
        assert "dominant_stage" in payload

    def test_global_json_flag_before_subcommand(self, capsys):
        assert main(["--json", "estimate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-estimate"

    def test_sweep_json(self, capsys):
        code = main(
            ["sweep", "q", "--start", "0", "--stop", "0.4", "--points", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-sweep"
        assert payload["parameter"] == "q"
        assert len(payload["values"]) == 3
        assert len(payload["lower"]) == len(payload["upper"]) == 3

    def test_validate_json(self, capsys):
        code = main(
            [
                "validate", "--json",
                "--requests", "500",
                "--pool-size", "50000",
                "--n-keys", "50",
            ]
        )
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["kind"] == "repro-validate"
        assert isinstance(payload["stages"], list)
        assert code == (0 if payload["all_consistent"] else 1)

    def test_simulate_json(self, capsys):
        code = main(
            [
                "simulate", "--json",
                "--requests", "100",
                "--n-keys", "10",
                "--rate", "20",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-run-report"
        assert payload["stages"]["total"]["count"] > 0


class TestSimulateReport:
    def run_simulate(self, tmp_path, *extra):
        path = tmp_path / "run.json"
        code = main(
            [
                "simulate",
                "--requests", "200",
                "--n-keys", "10",
                "--rate", "20",
                "--trace",
                "--report", str(path),
                *extra,
            ]
        )
        assert code == 0
        return path

    def test_report_file_contents(self, tmp_path, capsys):
        path = self.run_simulate(tmp_path)
        out = capsys.readouterr().out
        assert "slowest requests" in out
        assert "report written" in out
        payload = json.loads(path.read_text())
        assert payload["kind"] == "repro-run-report"
        # Acceptance: per-stage histograms with count/mean/quantiles.
        for stage in ("total", "server_stage", "network_stage"):
            summary = payload["stages"][stage]
            for key in ("count", "mean", "p50", "p95", "p99"):
                assert key in summary
        # Event-loop profile stats.
        assert payload["profile"]["events"] > 0
        assert "categories" in payload["profile"]
        # Slowest span trees (default top-10 retention).
        assert 1 <= len(payload["slowest"]) <= 10
        assert payload["slowest"][0]["name"] == "request"
        assert payload["metrics"]["request.total"]["summary"]["count"] > 0

    def test_slowest_flag_bounds_retention(self, tmp_path):
        path = self.run_simulate(tmp_path, "--slowest", "3")
        payload = json.loads(path.read_text())
        assert len(payload["slowest"]) <= 3

    def test_report_subcommand(self, tmp_path, capsys):
        path = self.run_simulate(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        assert "p99 (us)" in out
        assert "event loop:" in out
        assert "requests_completed" in out

    def test_trace_subcommand(self, tmp_path, capsys):
        path = self.run_simulate(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("#") >= 1
        assert "request" in out
        assert "key" in out
        assert "server=" in out

    def test_trace_without_traces_fails(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        code = main(
            [
                "simulate",
                "--requests", "50",
                "--n-keys", "5",
                "--rate", "20",
                "--report", str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 1
        assert "no traces" in capsys.readouterr().out

    def test_report_json_round_trip(self, tmp_path, capsys):
        path = self.run_simulate(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(path.read_text())


class TestRecommend:
    def test_balanced_report(self, capsys):
        assert main(["recommend", "--total-rate", "100"]) == 0
        out = capsys.readouterr().out
        assert "cliff utilization" in out

    def test_hot_cold_report(self, capsys):
        assert main(
            ["recommend", "--total-rate", "80", "--hottest-share", "0.76"]
        ) == 0
        out = capsys.readouterr().out
        assert "load-balancing" in out


class TestSimulateTimeline:
    ARGS = [
        "simulate",
        "--requests", "200",
        "--n-keys", "10",
        "--rate", "20",
    ]

    def test_writes_timeline_artifact(self, tmp_path, capsys):
        path = tmp_path / "timeline.json"
        code = main(
            self.ARGS
            + ["--timeline", str(path), "--timeline-windows", "9"]
        )
        assert code == 0
        assert "timeline written:" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["kind"] == "repro-timeline"
        assert len(payload["arrivals"]) == 9
        assert payload["provenance"]["repro_version"]

    def test_fastpath_system_backend_supports_timeline(self, tmp_path):
        path = tmp_path / "timeline.json"
        code = main(
            self.ARGS
            + [
                "--backend", "fastpath-system",
                "--timeline", str(path),
                "--timeline-windows", "5",
            ]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert len(payload["arrivals"]) == 5

    def test_report_includes_timeline_section(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        timeline_path = tmp_path / "timeline.json"
        main(
            self.ARGS
            + ["--report", str(report_path), "--timeline", str(timeline_path)]
        )
        capsys.readouterr()
        assert main(["report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "p99" in out


class TestMonitor:
    ARGS = [
        "monitor",
        "--requests", "300",
        "--n-keys", "10",
        "--rate", "20",
        "--windows", "8",
    ]

    def test_dashboard_and_attainment(self, capsys):
        code = main(self.ARGS + ["--slo-p99", "1000000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "arrival rate" in out
        assert "attainment p99-threshold:" in out
        assert "alerts: none" in out

    def test_json_payload(self, capsys):
        code = main(self.ARGS + ["--json", "--slo-p99", "1000000"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-monitor"
        assert payload["slo"]["kind"] == "repro-slo-report"
        assert len(payload["timeline"]["arrivals"]) == 8
        assert payload["provenance"]["repro_version"]

    def test_fail_on_alert_exit_code(self, capsys):
        # A 1 ns p99 objective is violated by every window.
        code = main(self.ARGS + ["--slo-p99", "0.001", "--fail-on-alert"])
        assert code == 1
        out = capsys.readouterr().out
        assert "alerts:" in out
        assert "p99-threshold" in out

    def test_artifact_exports(self, tmp_path, capsys):
        out_path = tmp_path / "monitor.json"
        csv_path = tmp_path / "monitor.csv"
        code = main(
            self.ARGS
            + [
                "--slo-p99", "1000000",
                "--out", str(out_path),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["kind"] == "repro-monitor"
        stamp, header = csv_path.read_text().splitlines()[:2]
        assert stamp.startswith("# provenance: ")
        assert "repro_version=" in stamp
        assert "git_sha=" in stamp
        assert header.startswith("window,t_start")

    def test_default_rules_need_no_flags(self, capsys):
        assert main(self.ARGS) == 0
        assert "attainment p99-auto:" in capsys.readouterr().out

    def test_fastpath_system_backend(self, capsys):
        code = main(
            self.ARGS + ["--backend", "fastpath-system", "--slo-p99", "1000000"]
        )
        assert code == 0
        assert "timeline:" in capsys.readouterr().out


class TestExplain:
    ARGS = [
        "explain",
        "--rate", "30",
        "--xi", "0",
        "--concurrency", "0",
        "--n-keys", "4",
        "--miss-ratio", "0.05",
        "--db-latency", "16.7",
        "--requests", "500",
        "--seed", "3",
    ]
    FAULT = (
        '{"windows": [{"kind": "database-overload", '
        '"start": 0.1, "duration": 0.2, "factor": 0.125}]}'
    )
    OVERLOAD_ARGS = [
        "explain",
        "--rate", "40",
        "--xi", "0",
        "--concurrency", "0",
        "--servers", "2",
        "--n-keys", "20",
        "--miss-ratio", "0.005",
        "--db-latency", "1000",
        "--requests", "1500",
        "--seed", "2",
    ]

    def test_stage_table_and_waterfalls(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "latency provenance — simulate backend" in out
        assert "500 requests attributed" in out
        assert "server_queue" in out
        assert "dominant tail stage:" in out
        assert "slowest #1" in out
        assert "analytic reference" in out

    def test_fastpath_system_backend(self, capsys):
        code = main(self.ARGS + ["--backend", "fastpath-system", "--top", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fastpath-system backend" in out
        assert out.count("slowest #") == 1

    def test_db_overload_root_cause(self, capsys):
        assert main(self.OVERLOAD_ARGS + ["--faults", self.FAULT]) == 0
        out = capsys.readouterr().out
        assert "dominant tail stage: db_queue" in out

    def test_json_payload(self, capsys):
        assert main(self.ARGS + ["--json", "--quantile", "0.9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-explain"
        assert payload["backend"] == "simulate"
        assert payload["attribution"]["kind"] == "repro-attribution"
        assert payload["attribution"]["count"] == 500
        assert payload["tail"]["quantile"] == 0.9
        assert payload["reference"]["total"] > 0
        assert payload["provenance"]["repro_version"]

    def test_artifact_exports(self, tmp_path, capsys):
        out_path = tmp_path / "explain.json"
        csv_path = tmp_path / "explain.csv"
        code = main(
            self.ARGS + ["--out", str(out_path), "--csv", str(csv_path)]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["kind"] == "repro-explain"
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# provenance: ")
        assert "repro_version=" in lines[0]
        assert lines[1].startswith("stage,mean_seconds,mean_share")
        assert len(lines) == 10  # stamp + header + 8 stages


class TestSweepProgress:
    def test_progress_lines_on_stderr(self, capsys):
        code = main(
            [
                "sweep", "q",
                "--start", "0", "--stop", "0.2", "--points", "2",
                "--backend", "fastpath",
                "--pool-size", "5000",
                "--requests", "200",
                "--n-keys", "10",
                "--rate", "40",
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[1/2]" in captured.err
        assert "[2/2]" in captured.err
        assert "ok" in captured.err


class TestSimulateUnifiedDispatch:
    ARGS = ["simulate", "--requests", "200", "--n-keys", "10", "--rate", "20"]

    def test_backend_helper_is_gone(self):
        import repro.cli as cli

        assert not hasattr(cli, "_simulate_fastpath_system")

    def test_fastpath_backend(self, capsys):
        code = main(self.ARGS + ["--backend", "fastpath"])
        assert code == 0
        out = capsys.readouterr().out
        assert "T(N)" in out
        assert "TS(N)" in out

    def test_fastpath_backend_json_is_simulation_result(self, capsys):
        code = main(self.ARGS + ["--backend", "fastpath", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"]["count"] == 200

    def test_fastpath_system_rejects_trace_with_registry_error(self, capsys):
        code = main(self.ARGS + ["--backend", "fastpath-system", "--trace"])
        assert code == 1
        err = capsys.readouterr().err
        assert "observability" in err
        assert "fastpath-system" in err
        assert "simulate" in err

    def test_fastpath_rejects_report_with_registry_error(self, tmp_path, capsys):
        code = main(
            self.ARGS
            + ["--backend", "fastpath", "--report", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "does not accept option" in capsys.readouterr().err


class TestMonitorVerdict:
    ARGS = [
        "monitor",
        "--requests", "300",
        "--n-keys", "10",
        "--rate", "20",
        "--windows", "8",
    ]

    def test_json_verdict_when_ok(self, capsys):
        code = main(self.ARGS + ["--json", "--slo-p99", "1000000"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["ok"] is True
        assert verdict["n_alerts"] == 0
        assert verdict["first_breach"] is None
        rule = verdict["rules"]["p99-threshold"]
        assert rule["violating_windows"] == 0
        assert rule["attainment"] == 1.0

    def test_json_verdict_names_first_breach(self, capsys):
        code = main(self.ARGS + ["--json", "--slo-p99", "0.001"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["ok"] is False
        assert verdict["n_alerts"] >= 1
        breach = verdict["first_breach"]
        assert breach["rule"] == "p99-threshold"
        assert breach["n_windows"] >= 1
        assert verdict["rules"]["p99-threshold"]["violating_windows"] >= 1


class TestCapacity:
    ARGS = [
        "capacity",
        "--n-keys", "10",
        "--servers", "1",
        "--miss-ratio", "0",
        "--slo-p99", "800",
        "--requests", "200",
        "--windows", "10",
        "--rel-tol", "0.1",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["capacity"])
        assert args.backend == "fastpath-system"
        assert args.rel_tol == 0.02
        assert args.slo_p99 is None

    def test_text_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "analytic: cliff" in out
        assert "max rps at SLO:" in out
        assert "below analytic cliff:" in out

    def test_json_schema(self, capsys, monkeypatch):
        # The SHA comes from the override, so the check is exact in a
        # git checkout and in an exported tree alike.
        monkeypatch.setenv(GIT_SHA_ENV, "0123abcd")
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-capacity"
        assert payload["version"] == 1
        assert payload["backend"] == "fastpath-system"
        assert payload["max_rps"] > 0.0
        assert payload["analytic"]["cliff_rps"] > 0.0
        assert payload["n_probes"] == len(payload["probes"]) >= 2
        assert payload["provenance"]["git_sha"] == "0123abcd"
        assert payload["objective"]["metric"] == "p99"

    def test_artifact_exports(self, tmp_path, capsys):
        out_path = tmp_path / "capacity.json"
        csv_path = tmp_path / "capacity.csv"
        code = main(
            self.ARGS + ["--out", str(out_path), "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "capacity report written:" in out
        assert "csv written:" in out
        from repro.capacity import CapacityResult

        loaded = CapacityResult.load(out_path)
        assert loaded.max_rps > 0.0
        stamp, summary, header = csv_path.read_text().splitlines()[:3]
        assert stamp.startswith("# provenance:")
        assert "max_rps=" in summary
        assert header.startswith("index,rps,backend")

    def test_conflicting_objectives_rejected(self, capsys):
        code = main(self.ARGS + ["--slo-mean", "500"])
        assert code == 1
        assert "exactly one objective" in capsys.readouterr().err

    def test_burn_rate_objective(self, capsys):
        args = [a for a in self.ARGS if a not in ("--slo-p99", "800")]
        code = main(
            args + ["--burn-threshold", "800", "--burn-objective", "0.95",
                    "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"]["metric"] == "burn_rate"
        assert payload["max_rps"] > 0.0

    def test_sweep_mode(self, capsys):
        code = main(self.ARGS + ["--sweep", "xi=0.05,0.25", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-capacity-curve"
        assert payload["factor"] == "xi"
        assert len(payload["points"]) == 2
        assert all(point["max_rps"] > 0.0 for point in payload["points"])

    def test_sweep_resume(self, tmp_path, capsys):
        ckpt = self.ARGS + [
            "--sweep", "xi=0.05,0.25", "--checkpoint", str(tmp_path)
        ]
        assert main(ckpt) == 0
        capsys.readouterr()
        assert main(ckpt + ["--resume"]) == 0
        assert "2 resumed" in capsys.readouterr().out

    def test_bad_sweep_spec(self, capsys):
        code = main(self.ARGS + ["--sweep", "nonsense"])
        assert code == 1
        assert "factor spec" in capsys.readouterr().err
