"""Tests for key-trace persistence, batching and fitting."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.workloads import KeyTrace


class TestKeyTrace:
    def test_basic_stats(self):
        trace = KeyTrace(np.array([0.0, 1.0, 2.0, 4.0]))
        assert trace.n_keys == 4
        assert trace.duration == 4.0
        assert trace.mean_rate == pytest.approx(0.75)
        assert list(trace.gaps()) == [1.0, 1.0, 2.0]

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            KeyTrace(np.array([1.0, 0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            KeyTrace(np.array([]))

    def test_to_batches_groups_concurrent(self):
        trace = KeyTrace(np.array([0.0, 1e-8, 1e-2, 2e-2, 2e-2 + 1e-8]))
        batches = trace.to_batches()
        assert [b.size for b in batches] == [2, 1, 2]

    def test_csv_roundtrip(self, tmp_path):
        trace = KeyTrace(np.array([0.0, 0.5, 1.25]))
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        loaded = KeyTrace.load_csv(path)
        assert np.allclose(loaded.timestamps, trace.timestamps)

    def test_csv_text_roundtrip(self):
        text = "timestamp_seconds\r\n0.0\r\n1.5\r\n"
        trace = KeyTrace.from_csv_text(text)
        assert trace.n_keys == 2

    def test_csv_missing_header_rejected(self):
        with pytest.raises(ValidationError):
            KeyTrace.from_csv_text("0.0\n1.0\n")

    def test_csv_bad_row_rejected(self):
        with pytest.raises(ValidationError):
            KeyTrace.from_csv_text("timestamp_seconds\nnot-a-number\n")

    def test_merge(self):
        a = KeyTrace(np.array([0.0, 2.0]))
        b = KeyTrace(np.array([1.0, 3.0]))
        merged = KeyTrace.merge([a, b])
        assert list(merged.timestamps) == [0.0, 1.0, 2.0, 3.0]

    def test_merge_empty_rejected(self):
        with pytest.raises(ValidationError):
            KeyTrace.merge([])

    def test_fit_workload(self, rng):
        gaps = rng.exponential(1e-3, 20_000)
        trace = KeyTrace(np.cumsum(gaps))
        fit = trace.fit_workload()
        assert fit.rate == pytest.approx(1000.0, rel=0.05)
        assert fit.xi < 0.1
