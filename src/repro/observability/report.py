"""Structured run reports: one JSON artifact per simulation run.

A :class:`RunReport` bundles what a human (or a regression harness)
needs to audit a run after the fact: the configuration, exact per-stage
summaries from the :class:`~repro.simulation.metrics.LatencyRecorder`s,
the metrics-registry snapshot, the event-loop profile, and the span
trees of the slowest requests. It round-trips through JSON and flattens
to CSV, and its serializer (:func:`to_jsonable`) is shared by the CLI's
``--json`` mode and the benchmark artifact writer so every surface emits
the same shapes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .._version import __version__
from ..errors import ConfigError, ValidationError
from .tracing import Span

#: Quantile levels reported for every stage.
STAGE_QUANTILES = (0.50, 0.90, 0.95, 0.99)

#: Environment override for the artifact git SHA (CI containers often
#: build from an export without a .git directory).
GIT_SHA_ENV = "REPRO_GIT_SHA"

_git_sha_cache: Dict[str, Optional[str]] = {}


def git_sha() -> Optional[str]:
    """The repository HEAD SHA, or ``None`` outside a git checkout.

    Checks :data:`GIT_SHA_ENV` first (uncached), then asks git once per
    process from the package directory.
    """
    override = os.environ.get(GIT_SHA_ENV)
    if override:
        return override.strip()
    if "sha" not in _git_sha_cache:
        _git_sha_cache["sha"] = _read_git_sha()
    return _git_sha_cache["sha"]


def _read_git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance() -> Dict[str, object]:
    """Version stamp written into every JSON artifact.

    Run reports, experiment checkpoints, timeline exports and benchmark
    artifacts all carry this block, so a perf or telemetry number can
    always be traced to the exact code that produced it.
    """
    return {"repro_version": __version__, "git_sha": git_sha()}


def provenance_comment() -> str:
    """The :func:`provenance` stamp as one ``#``-comment CSV header line.

    Every CSV artifact (timeline exports, run-report flattenings, the
    ``explain`` stage table) leads with this line so the spreadsheet can
    be traced to the code that produced it, mirroring the ``provenance``
    block in the JSON artifacts.
    """
    stamp = provenance()
    body = " ".join(f"{key}={stamp[key]}" for key in sorted(stamp))
    return f"# provenance: {body}"


def to_jsonable(obj: object) -> object:
    """Lower arbitrary result objects to JSON-safe structures.

    Handles dataclasses, numpy scalars/arrays, mappings, sequences, and
    non-finite floats (mapped to ``None`` so the output stays strict
    JSON). Objects exposing ``to_dict`` use it.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return to_jsonable(to_dict())
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(item) for item in obj]
    # numpy scalars/arrays without importing numpy here.
    item = getattr(obj, "item", None)
    if callable(item) and getattr(obj, "shape", None) == ():
        return to_jsonable(item())
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return to_jsonable(tolist())
    return str(obj)


def json_dumps(payload: object, *, indent: Optional[int] = 2) -> str:
    """Serialize through :func:`to_jsonable` (the CLI's ``--json`` path)."""
    return json.dumps(to_jsonable(payload), indent=indent, sort_keys=True)


def recorder_summary(recorder) -> Dict[str, float]:
    """Exact per-stage summary from a ``LatencyRecorder`` (or ``None``,
    a stage the run did not record)."""
    if recorder is None or recorder.count == 0:
        return {"count": 0}
    out: Dict[str, float] = {
        "count": recorder.count,
        "mean": recorder.mean,
        "std": recorder.std,
        "min": recorder.minimum,
        "max": recorder.maximum,
    }
    for level in STAGE_QUANTILES:
        out[f"p{level * 100:g}".replace(".", "_")] = recorder.quantile(level)
    return out


@dataclasses.dataclass
class RunReport:
    """Everything one simulation run leaves behind."""

    config: Dict[str, object] = dataclasses.field(default_factory=dict)
    stages: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = dataclasses.field(default_factory=dict)
    profile: Optional[Dict[str, object]] = None
    slowest: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Windowed telemetry payload (a serialized Timeline), when the run
    #: recorded one.
    timeline: Optional[Dict[str, object]] = None

    KIND = "repro-run-report"
    VERSION = 1

    # ------------------------------------------------------------------
    # Construction from a live run.
    # ------------------------------------------------------------------

    @classmethod
    def from_simulation(
        cls,
        results,
        observability=None,
        *,
        config: Optional[Dict[str, object]] = None,
    ) -> "RunReport":
        """Build a report from ``SystemResults`` (+ optional observability).

        ``results`` comes from either whole-system backend; a
        ``fastpath-system`` run has no ``per_key_server`` recorder, so
        that stage reports a count of 0.
        """
        stages = {
            "total": recorder_summary(results.total),
            "server_stage": recorder_summary(results.server_stage),
            "database_stage": recorder_summary(results.database_stage),
            "network_stage": recorder_summary(results.network_stage),
            "per_key_server": recorder_summary(results.per_key_server),
        }
        meta: Dict[str, object] = {
            "requests_completed": results.requests_completed,
            "keys_processed": results.keys_processed,
            "misses": results.misses,
            "measured_miss_ratio": results.measured_miss_ratio,
            "server_utilizations": list(results.server_utilizations),
        }
        metrics: Dict[str, Dict[str, object]] = {}
        profile: Optional[Dict[str, object]] = None
        slowest: List[Dict[str, object]] = []
        if observability is not None:
            if observability.registry is not None:
                metrics = observability.registry.snapshot()
            if observability.profiler is not None:
                profile = observability.profiler.stats()
            if observability.tracer is not None:
                slowest = [span.to_dict() for span in observability.tracer.slowest()]
                meta["traces_finished"] = observability.tracer.finished
        run_timeline = getattr(results, "timeline", None)
        return cls(
            config=dict(config or {}),
            stages=stages,
            metrics=metrics,
            profile=profile,
            slowest=slowest,
            meta=meta,
            timeline=(
                run_timeline.to_dict() if run_timeline is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Stable digest used for round-trip checks and quick prints."""
        return to_jsonable(
            {
                "config": self.config,
                "stages": self.stages,
                "meta": self.meta,
                "n_metrics": len(self.metrics),
                "n_slowest": len(self.slowest),
            }
        )

    def slowest_spans(self) -> List[Span]:
        """The retained slowest requests as :class:`Span` trees."""
        return [Span.from_dict(payload) for payload in self.slowest]

    def stage_rows(self) -> List[List[object]]:
        """Rows (stage, count, mean, p50, p95, p99) for table printers."""
        rows: List[List[object]] = []
        for stage, summary in self.stages.items():
            if summary.get("count", 0) == 0:
                continue
            rows.append(
                [
                    stage,
                    summary["count"],
                    summary["mean"],
                    summary.get("p50"),
                    summary.get("p95"),
                    summary.get("p99"),
                ]
            )
        return rows

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.KIND,
            "version": self.VERSION,
            "config": to_jsonable(self.config),
            "stages": to_jsonable(self.stages),
            "metrics": to_jsonable(self.metrics),
            "profile": to_jsonable(self.profile),
            "slowest": to_jsonable(self.slowest),
            "meta": to_jsonable(self.meta),
            "timeline": to_jsonable(self.timeline),
            "provenance": provenance(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunReport":
        if not isinstance(payload, dict):
            raise ConfigError("run report must be a JSON object")
        if payload.get("kind") != cls.KIND:
            raise ConfigError(
                f"not a run report (kind={payload.get('kind')!r})"
            )
        version = payload.get("version")
        if version != cls.VERSION:
            raise ConfigError(f"unsupported run-report version: {version!r}")
        return cls(
            config=dict(payload.get("config") or {}),
            stages=dict(payload.get("stages") or {}),
            metrics=dict(payload.get("metrics") or {}),
            profile=payload.get("profile"),
            slowest=list(payload.get("slowest") or []),
            meta=dict(payload.get("meta") or {}),
            timeline=payload.get("timeline"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid run-report JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read run report {path}: {exc}") from exc
        return cls.from_json(text)

    def save_csv(self, path: Union[str, Path]) -> None:
        """Flatten stage + metric summaries to one CSV (name, stat columns)."""
        columns = ["name", "kind", "count", "mean", "p50", "p95", "p99", "min", "max"]
        with open(path, "w", newline="") as handle:
            handle.write(provenance_comment() + "\r\n")
            writer = csv.writer(handle)
            writer.writerow(columns)
            for stage, summary in self.stages.items():
                writer.writerow(_csv_row(f"stage.{stage}", "stage", summary))
            for name, payload in self.metrics.items():
                if payload.get("type") == "histogram":
                    writer.writerow(
                        _csv_row(name, "histogram", payload.get("summary", {}))
                    )
                elif payload.get("type") == "counter":
                    writer.writerow(
                        [name, "counter", payload.get("value"), "", "", "", "", "", ""]
                    )
                elif payload.get("type") == "gauge":
                    writer.writerow(
                        [
                            name,
                            "gauge",
                            payload.get("samples"),
                            payload.get("mean"),
                            "",
                            "",
                            "",
                            payload.get("min"),
                            payload.get("max"),
                        ]
                    )


def _csv_row(name: str, kind: str, summary: Dict[str, object]) -> List[object]:
    return [
        name,
        kind,
        summary.get("count"),
        summary.get("mean"),
        summary.get("p50"),
        summary.get("p95"),
        summary.get("p99"),
        summary.get("min"),
        summary.get("max"),
    ]
