"""Process-parallel experiment execution with resumable checkpoints.

:class:`ExperimentRunner` fans a suite's cells out over a
``concurrent.futures.ProcessPoolExecutor``. Because every cell's seed
was derived at expansion time (``SeedSequence.spawn``, see
:mod:`repro.experiments.grid`), a cell computes the same bits no matter
which worker runs it, in what order, or whether it runs at all in this
process — so 1-worker and 8-worker runs produce identical
:class:`SuiteResult`\\ s, and interrupted suites resume from their
checkpoint directory without re-running completed cells.

Checkpoints are one JSON file per cell (written through the
observability serializer) keyed by the cell id, which embeds a digest
of the scenario + backend + options: resuming against a *changed* grid
re-runs the changed cells instead of silently reusing stale results.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigError, ReproError, SimulationError
from ..observability import json_dumps, provenance
from ..observability.attribution import AttributionSet
from ..observability.timeline import Timeline
from .grid import Cell, Suite
from .scenario import Scenario, cell_metrics

CHECKPOINT_KIND = "repro-experiment-cell"
SUITE_KIND = "repro-experiment-suite"


@dataclasses.dataclass
class CellResult:
    """One completed cell: coordinates, scalar metrics, provenance.

    ``elapsed`` (worker wall-clock) and ``resumed`` are excluded from
    equality so worker-count-invariance and resume produce *equal*
    results.
    """

    index: int
    cell_id: str
    backend: str
    coords: Dict[str, float]
    scenario: Scenario
    metrics: Dict[str, float]
    error: Optional[str] = None
    elapsed: float = dataclasses.field(default=0.0, compare=False)
    resumed: bool = dataclasses.field(default=False, compare=False)
    #: Windowed telemetry (a Timeline) when the cell's backend recorded
    #: one. Excluded from equality like ``elapsed``: worker-count
    #: invariance is about the scalar metrics.
    timeline: Optional[object] = dataclasses.field(default=None, compare=False)
    #: Per-request stage attribution (an AttributionSet) when the cell's
    #: backend recorded one. Excluded from equality like ``timeline``.
    attribution: Optional[object] = dataclasses.field(
        default=None, compare=False
    )
    #: Capacity-search artifact (a CapacityResult) when the cell was
    #: executed by the capacity executor instead of a plain backend
    #: call. Excluded from equality like ``timeline``.
    capacity: Optional[object] = dataclasses.field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": CHECKPOINT_KIND,
            "index": self.index,
            "cell_id": self.cell_id,
            "backend": self.backend,
            "coords": dict(self.coords),
            "scenario": self.scenario.to_dict(),
            "metrics": dict(self.metrics),
            "error": self.error,
            "elapsed": self.elapsed,
            "timeline": (
                self.timeline.to_dict() if self.timeline is not None else None
            ),
            "attribution": (
                self.attribution.to_dict()
                if self.attribution is not None
                else None
            ),
            "capacity": (
                self.capacity.to_dict() if self.capacity is not None else None
            ),
            "provenance": provenance(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CellResult":
        if not isinstance(payload, dict) or payload.get("kind") != CHECKPOINT_KIND:
            raise ConfigError("not an experiment-cell checkpoint")
        return cls(
            index=int(payload["index"]),
            cell_id=str(payload["cell_id"]),
            backend=str(payload["backend"]),
            coords={str(k): float(v) for k, v in payload["coords"].items()},
            scenario=Scenario.from_dict(payload["scenario"]),
            metrics={str(k): float(v) for k, v in payload["metrics"].items()},
            error=payload.get("error"),
            elapsed=float(payload.get("elapsed", 0.0)),
            timeline=(
                Timeline.from_dict(payload["timeline"])
                if payload.get("timeline") is not None
                else None
            ),
            attribution=(
                AttributionSet.from_dict(payload["attribution"])
                if payload.get("attribution") is not None
                else None
            ),
            capacity=(
                _capacity_from_dict(payload["capacity"])
                if payload.get("capacity") is not None
                else None
            ),
        )


def _capacity_from_dict(payload: Dict[str, object]):
    # Imported lazily: repro.capacity builds on repro.experiments, so a
    # module-level import would be circular.
    from ..capacity import CapacityResult

    return CapacityResult.from_dict(payload)


@dataclasses.dataclass
class SuiteResult:
    """All cell results of one suite, in grid order."""

    name: str
    backend: str
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...]
    cells: List[CellResult]
    executed: int = dataclasses.field(default=0, compare=False)
    resumed: int = dataclasses.field(default=0, compare=False)
    elapsed: float = dataclasses.field(default=0.0, compare=False)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def series(self, metric: str) -> List[float]:
        """One metric across all cells, in grid order."""
        return [cell.metrics[metric] for cell in self.cells]

    def coordinates(self, label: str) -> List[float]:
        return [cell.coords[label] for cell in self.cells]

    def aggregate(self, metric: str) -> "Dict[Tuple[float, ...], float]":
        """Mean of ``metric`` over replicates, keyed by axis coordinates."""
        sums: Dict[Tuple[float, ...], List[float]] = {}
        for cell in self.cells:
            key = tuple(
                value for label, value in cell.coords.items() if label != "replicate"
            )
            sums.setdefault(key, []).append(cell.metrics[metric])
        return {key: sum(vals) / len(vals) for key, vals in sums.items()}

    def table(self) -> Tuple[List[str], List[List[float]]]:
        """(header, rows) across coords + metrics, for CLI/bench printers."""
        if not self.cells:
            return [], []
        coord_labels = list(self.cells[0].coords)
        metric_labels = sorted(self.cells[0].metrics)
        header = coord_labels + metric_labels
        rows = [
            [cell.coords[label] for label in coord_labels]
            + [cell.metrics[label] for label in metric_labels]
            for cell in self.cells
        ]
        return header, rows

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": SUITE_KIND,
            "name": self.name,
            "backend": self.backend,
            "axes": [[label, list(values)] for label, values in self.axes],
            "cells": [cell.to_dict() for cell in self.cells],
            "executed": self.executed,
            "resumed": self.resumed,
            "elapsed": self.elapsed,
            "provenance": provenance(),
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json_dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SuiteResult":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read suite result {path}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("kind") != SUITE_KIND:
            raise ConfigError("not an experiment-suite result")
        return cls(
            name=str(payload["name"]),
            backend=str(payload["backend"]),
            axes=tuple(
                (str(label), tuple(float(v) for v in values))
                for label, values in payload["axes"]
            ),
            cells=[CellResult.from_dict(cell) for cell in payload["cells"]],
            executed=int(payload.get("executed", 0)),
            resumed=int(payload.get("resumed", 0)),
            elapsed=float(payload.get("elapsed", 0.0)),
        )


def _execute_cell(cell: Cell) -> CellResult:
    """Run one cell (possibly in a worker process).

    Errors are carried back as data: exception *instances* with custom
    constructors do not always survive pickling across the process
    boundary, and a failed cell should name its grid coordinates.
    """
    started = time.perf_counter()
    error: Optional[str] = None
    metrics: Dict[str, float] = {}
    timeline = None
    attribution = None
    try:
        outcome = cell.scenario.run(cell.backend, **cell.option_dict)
        metrics = cell_metrics(outcome)
        timeline = getattr(outcome, "timeline", None)
        if timeline is not None:
            # Reading the stage series builds any deferred ones, so the
            # suite keeps window series, not the run's per-key arrays.
            timeline.stages
        attribution = getattr(outcome, "attribution", None)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return CellResult(
        index=cell.index,
        cell_id=cell.cell_id,
        backend=cell.backend,
        coords=cell.coord_dict,
        scenario=cell.scenario,
        metrics=metrics,
        error=error,
        elapsed=time.perf_counter() - started,
        timeline=timeline,
        attribution=attribution,
    )


class ExperimentRunner:
    """Execute a suite's cells, optionally in parallel, with checkpoints.

    Parameters
    ----------
    workers:
        Process count. ``None`` or ``1`` runs serially in-process (no
        executor, easiest to debug/profile); ``N > 1`` fans out over a
        ``ProcessPoolExecutor``.
    checkpoint_dir:
        Directory for per-cell JSON checkpoints. Created on demand.
        Without it nothing is persisted.
    resume:
        Load matching checkpoints from ``checkpoint_dir`` and run only
        the missing cells. Checkpoints whose cell id (a digest of
        scenario + backend + options) does not match the current grid
        are ignored and re-run.
    on_error:
        ``"raise"`` (default) raises a :class:`SimulationError` naming
        the first failed cell; ``"keep"`` returns failed cells in the
        :class:`SuiteResult` with their ``error`` set.
    on_progress:
        Optional callback ``(result, done_count, total)`` invoked in the
        *parent* process as each cell completes (including resumed
        cells, in completion order) — live progress for CLIs and
        dashboards. Exceptions it raises propagate and abort the run.
    executor:
        The per-cell work function ``Cell -> CellResult`` (default
        :func:`_execute_cell`, which dispatches through
        ``Scenario.run``). Must be picklable (a module-level function
        or ``functools.partial``) so the process-pool path can ship it
        to workers. The capacity knee curves use this hook to run a
        bisection search per cell while keeping the checkpoint/resume
        machinery.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        on_error: str = "raise",
        on_progress=None,
        executor=None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if on_error not in ("raise", "keep"):
            raise ConfigError(f"on_error must be 'raise' or 'keep', got {on_error!r}")
        if resume and checkpoint_dir is None:
            raise ConfigError("resume requires a checkpoint_dir")
        if on_progress is not None and not callable(on_progress):
            raise ConfigError("on_progress must be callable")
        if executor is not None and not callable(executor):
            raise ConfigError("executor must be callable")
        self.executor = executor or _execute_cell
        self.workers = workers
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.resume = resume
        self.on_error = on_error
        self.on_progress = on_progress
        self._total_cells = 0

    # ------------------------------------------------------------------

    def _checkpoint_path(self, cell: Cell) -> Path:
        return self.checkpoint_dir / f"{cell.cell_id}.json"

    def _load_checkpoint(self, cell: Cell) -> Optional[CellResult]:
        path = self._checkpoint_path(cell)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            result = CellResult.from_dict(payload)
        except (ConfigError, OSError, json.JSONDecodeError, KeyError, ValueError):
            return None  # corrupt or stale checkpoint: re-run the cell
        if result.cell_id != cell.cell_id or not result.ok:
            return None
        result.resumed = True
        return result

    def _save_checkpoint(self, result: CellResult) -> None:
        if self.checkpoint_dir is None or not result.ok:
            return
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        path = self.checkpoint_dir / f"{result.cell_id}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json_dumps(result.to_dict()))
        tmp.replace(path)  # atomic: a killed run never leaves torn JSON

    # ------------------------------------------------------------------

    def run(self, suite: Suite) -> SuiteResult:
        """Execute (or resume) every cell; aggregate in grid order."""
        started = time.perf_counter()
        cells = suite.cells()
        self._total_cells = len(cells)
        done: Dict[int, CellResult] = {}
        if self.resume:
            for cell in cells:
                loaded = self._load_checkpoint(cell)
                if loaded is not None:
                    done[cell.index] = loaded
                    self._emit_progress(loaded, len(done))
        pending = [cell for cell in cells if cell.index not in done]
        resumed = len(done)

        if self.workers is not None and self.workers > 1 and len(pending) > 1:
            executed = self._run_parallel(pending, done)
        else:
            executed = self._run_serial(pending, done)

        failed = [done[c.index] for c in cells if not done[c.index].ok]
        if failed and self.on_error == "raise":
            first = min(failed, key=lambda r: r.index)
            raise SimulationError(
                f"experiment cell {first.cell_id} ({first.coords}) failed: "
                f"{first.error}"
            )
        return SuiteResult(
            name=suite.name,
            backend=suite.backend,
            axes=suite.axes,
            cells=[done[cell.index] for cell in cells],
            executed=executed,
            resumed=resumed,
            elapsed=time.perf_counter() - started,
        )

    def _emit_progress(self, result: CellResult, done_count: int) -> None:
        if self.on_progress is not None:
            self.on_progress(result, done_count, self._total_cells)

    def _run_serial(self, pending: Sequence[Cell], done: Dict[int, CellResult]) -> int:
        for cell in pending:
            result = self.executor(cell)
            self._save_checkpoint(result)
            done[cell.index] = result
            self._emit_progress(result, len(done))
        return len(pending)

    def _run_parallel(
        self, pending: Sequence[Cell], done: Dict[int, CellResult]
    ) -> int:
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                pool.submit(self.executor, cell): cell for cell in pending
            }
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_EXCEPTION)
                for future in finished:
                    result = future.result()  # worker crashes propagate here
                    self._save_checkpoint(result)
                    done[result.index] = result
                    self._emit_progress(result, len(done))
        return len(pending)


def run_suite(
    suite: Suite,
    *,
    workers: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    on_error: str = "raise",
    on_progress=None,
    executor=None,
) -> SuiteResult:
    """One-call convenience wrapper around :class:`ExperimentRunner`."""
    return ExperimentRunner(
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        on_error=on_error,
        on_progress=on_progress,
        executor=executor,
    ).run(suite)
