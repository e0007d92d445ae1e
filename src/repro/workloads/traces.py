"""Trace recording and replay.

Record per-key arrival timestamps (and optional batch sizes) from any
generator, persist them as CSV, and replay them into the simulator or
the fitting pipeline. Lets users calibrate the model on their own
production traces exactly as §5 of the paper calibrates on Facebook's.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from pathlib import Path
from typing import Iterable, List, Union

import numpy as np

from ..distributions import fit_workload_from_timestamps, WorkloadFit
from ..errors import ConfigError, ValidationError
from ..simulation.arrivals import Batch


@dataclasses.dataclass(frozen=True)
class KeyTrace:
    """Per-key arrival timestamps at one server (seconds, sorted)."""

    timestamps: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise ValidationError("trace must contain at least one timestamp")
        if np.any(np.diff(ts) < 0):
            raise ValidationError("timestamps must be sorted")
        object.__setattr__(self, "timestamps", ts)

    @property
    def n_keys(self) -> int:
        return int(self.timestamps.size)

    @property
    def duration(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def mean_rate(self) -> float:
        if self.duration <= 0:
            raise ValidationError("trace spans zero time")
        return (self.n_keys - 1) / self.duration

    def gaps(self) -> np.ndarray:
        """Inter-arrival gaps."""
        return np.diff(self.timestamps)

    def fit_workload(self, *, window: float = 1e-6) -> WorkloadFit:
        """Fit the paper's (lambda, xi, q) model to this trace."""
        return fit_workload_from_timestamps(self.timestamps, window=window)

    def to_batches(self, *, window: float = 1e-6) -> List[Batch]:
        """Group sub-window arrivals into batches for replay."""
        batches: List[Batch] = []
        start = float(self.timestamps[0])
        size = 1
        for prev, curr in zip(self.timestamps[:-1], self.timestamps[1:]):
            if curr - prev < window:
                size += 1
            else:
                batches.append(Batch(time=start, size=size))
                start = float(curr)
                size = 1
        batches.append(Batch(time=start, size=size))
        return batches

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def save_csv(self, path: Union[str, Path]) -> None:
        """Write one timestamp per line with a header."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["timestamp_seconds"])
            for value in self.timestamps:
                writer.writerow([repr(float(value))])

    @classmethod
    def load_csv(cls, path: Union[str, Path]) -> "KeyTrace":
        """Read a trace written by :meth:`save_csv`."""
        try:
            with open(path, newline="") as handle:
                return cls._from_reader(handle)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read trace {path}: {exc}") from exc

    @classmethod
    def from_csv_text(cls, text: str) -> "KeyTrace":
        """Read a trace from an in-memory CSV string."""
        return cls._from_reader(io.StringIO(text))

    @classmethod
    def _from_reader(cls, handle) -> "KeyTrace":
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[:1] != ["timestamp_seconds"]:
            raise ValidationError("missing trace header 'timestamp_seconds'")
        values = []
        for row in reader:
            if not row:
                continue
            try:
                values.append(float(row[0]))
            except ValueError as exc:
                raise ValidationError(f"bad timestamp row: {row!r}") from exc
        return cls(timestamps=np.asarray(sorted(values)))

    @classmethod
    def merge(cls, traces: Iterable["KeyTrace"]) -> "KeyTrace":
        """Union of several traces (e.g. per-connection streams)."""
        stacks = [trace.timestamps for trace in traces]
        if not stacks:
            raise ValidationError("need at least one trace")
        return cls(timestamps=np.sort(np.concatenate(stacks)))
