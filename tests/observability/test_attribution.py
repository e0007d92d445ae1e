"""Unit tests for the latency-provenance layer (attribution records).

The contracts pinned here:

* **Conservation** — per record, the :data:`STAGES` columns summed left
  to right in schema order reproduce ``total`` bit-exactly, because
  ``join_slack`` is the :func:`residual_slack` fixed-point residual.
* **Exact sums** — ``sums``/``sum_total`` cover every recorded request
  even when the bounded reservoir sampled.
* **Bounded memory** — the reservoir never exceeds ``max_records`` and
  the slowest-K set always holds the true worst requests.
* **Determinism** — the sink draws replacement slots from its own
  generator, so two identical record streams build identical sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ValidationError
from repro.observability import Observability, provenance, provenance_comment
from repro.observability.attribution import (
    GROUPS,
    ROW_FIELDS,
    STAGES,
    AttributionRecord,
    AttributionSet,
    AttributionSink,
    residual_slack,
)


def make_rows(n, seed=0, scale=1e-4):
    """Synthetic completed-request rows in ROW_FIELDS order."""
    rng = np.random.default_rng(seed)
    born = np.sort(rng.uniform(0.0, 1.0, n))
    network = np.full(n, 40e-6)
    server_queue = rng.exponential(scale, n)
    server_service = rng.exponential(scale / 2, n)
    db_queue = np.where(rng.random(n) < 0.3, rng.exponential(scale, n), 0.0)
    db_service = np.where(db_queue > 0, rng.exponential(scale, n), 0.0)
    policy = np.zeros(n)
    total = network + server_queue + server_service + db_queue + db_service
    # Perturb so the stage sum does not trivially equal total (fork-join
    # overlap): the sink must close the gap via join_slack.
    total = total * rng.uniform(0.8, 1.05, n)
    completed = born + total
    rows = list(
        zip(
            np.arange(n, dtype=float),
            born,
            completed,
            total,
            network,
            server_queue,
            server_service,
            db_queue,
            db_service,
            policy,
        )
    )
    return rows


def fill(sink, rows):
    append = sink.append
    for row in rows:
        append(row)
        sink.maybe_flush()
    return sink


class TestResidualSlack:
    def test_closes_resum_exactly(self):
        # Realistic regime: the serial stage sum is within [0.5x, 2x]
        # of the request total (Sterbenz band -> bit-exact).
        rng = np.random.default_rng(3)
        total = rng.exponential(1e-4, 10_000)
        partial = total * rng.uniform(0.5, 2.0, 10_000)
        slack = residual_slack(total, partial)
        assert np.all((partial + slack) - total == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        total=st.floats(1e-9, 1e3, allow_nan=False),
        ratio=st.floats(0.5, 2.0, allow_nan=False),
    )
    def test_property_bit_exact_in_sterbenz_band(self, total, ratio):
        partial = total * ratio
        slack = residual_slack(np.array([total]), np.array([partial]))
        assert float(partial + slack[0]) == total

    @settings(max_examples=200, deadline=None)
    @given(
        total=st.floats(1e-9, 1e3, allow_nan=False),
        ratio=st.floats(1e-3, 1e3, allow_nan=False),
    )
    def test_property_few_ulps_anywhere(self, total, ratio):
        partial = total * ratio
        slack = residual_slack(np.array([total]), np.array([partial]))
        err = abs(float(partial + slack[0]) - total)
        assert err <= 4.0 * np.spacing(abs(partial) + abs(slack[0]))


class TestSinkBasics:
    def test_schema(self):
        assert STAGES[-1] == "join_slack"
        assert set(GROUPS) == {
            "network", "server", "database", "policy", "join_slack",
        }
        assert ROW_FIELDS[0] == "request_id"

    def test_count_sums_and_conservation(self):
        rows = make_rows(500)
        attr = fill(AttributionSink(), rows).build(meta={"backend": "test"})
        assert attr.count == 500
        assert attr.n_retained == 500
        assert np.all(attr.conservation_residuals() == 0.0)
        totals = np.array([row[3] for row in rows])
        assert attr.sum_total == pytest.approx(totals.sum(), rel=1e-12)
        assert attr.mean_total() == pytest.approx(totals.mean(), rel=1e-12)
        assert attr.meta["backend"] == "test"
        # Shares over the mean sum to one (slack closes the books).
        assert sum(attr.mean_shares().values()) == pytest.approx(1.0)
        assert sum(attr.group_shares().values()) == pytest.approx(1.0)

    def test_append_and_bulk_paths_agree(self):
        # The bulk path takes the stage maxima and derives the service
        # split as max - queue; rows carrying that same split agree.
        columns = dict(zip(ROW_FIELDS, np.array(make_rows(800, seed=7)).T))
        server_max = columns["server_queue"] + columns.pop("server_service")
        db_max = columns["db_queue"] + columns.pop("db_service")
        bulk = AttributionSink()
        bulk.record_columns(server_max=server_max, db_max=db_max, **columns)
        via_bulk = bulk.build()
        columns["server_service"] = server_max - columns["server_queue"]
        columns["db_service"] = db_max - columns["db_queue"]
        rows = list(zip(*(columns[name] for name in ROW_FIELDS)))
        via_append = fill(AttributionSink(), rows).build()
        for name in STAGES:
            np.testing.assert_array_equal(
                via_append.stages[name], via_bulk.stages[name]
            )
        assert via_append.sums == via_bulk.sums
        assert via_append.sum_total == via_bulk.sum_total

    def test_group_members_partition_stages(self):
        rows = make_rows(100)
        attr = fill(AttributionSink(), rows).build()
        means = attr.means()
        groups = attr.group_means()
        assert groups["network"] == pytest.approx(
            means["routing"] + means["network"]
        )
        assert groups["server"] == pytest.approx(
            means["server_queue"] + means["server_service"]
        )
        assert groups["database"] == pytest.approx(
            means["db_queue"] + means["db_service"]
        )
        assert sum(groups.values()) == pytest.approx(sum(means.values()))

    def test_validation(self):
        with pytest.raises(ValidationError):
            AttributionSink(max_records=0)
        with pytest.raises(ValidationError):
            AttributionSink(slowest_k=0)


class TestReservoir:
    def test_bounded_but_sums_exact(self):
        rows = make_rows(5_000, seed=11)
        sink = AttributionSink(max_records=256, slowest_k=5)
        attr = fill(sink, rows).build()
        assert attr.count == 5_000
        assert attr.n_retained == 256
        totals = np.array([row[3] for row in rows])
        assert attr.sum_total == pytest.approx(totals.sum(), rel=1e-12)
        # Retained rows still conserve bit-exactly.
        assert np.all(attr.conservation_residuals() == 0.0)
        # Every retained row is a real input row.
        assert set(attr.request_id.astype(int)) <= set(range(5_000))

    def test_slowest_k_is_exact_top_k(self):
        rows = make_rows(3_000, seed=13)
        sink = AttributionSink(max_records=64, slowest_k=7)
        attr = fill(sink, rows).build()
        totals = np.array([row[3] for row in rows])
        expected = np.sort(totals)[-7:][::-1]
        got = np.array([record.total for record in attr.slowest])
        np.testing.assert_allclose(got, expected, rtol=0)
        assert got[0] == totals.max()

    def test_deterministic_across_identical_streams(self):
        rows = make_rows(4_000, seed=17)
        a = fill(AttributionSink(max_records=128), rows).build()
        b = fill(AttributionSink(max_records=128), rows).build()
        np.testing.assert_array_equal(a.request_id, b.request_id)
        np.testing.assert_array_equal(a.total, b.total)

    def test_reset_keeps_bound_append_identity(self):
        sink = AttributionSink(max_records=32)
        append = sink.append
        fill(sink, make_rows(100))
        sink.reset()
        assert sink.count == 0
        assert sink.append is append
        append(make_rows(1)[0])
        assert sink.count == 1
        attr = sink.build()
        assert attr.count == 1


class TestTailAndRecords:
    def test_tail_shares(self):
        rows = make_rows(2_000, seed=23)
        attr = fill(AttributionSink(), rows).build()
        tail = attr.tail(0.95)
        assert 0 < tail.n_tail <= 2_000
        assert tail.threshold >= float(np.quantile(attr.total, 0.94))
        assert sum(tail.shares.values()) == pytest.approx(1.0)
        assert tail.dominant in STAGES
        assert tail.dominant != "join_slack"
        groups = tail.group_shares()
        assert sum(groups.values()) == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            attr.tail(1.0)

    def test_record_and_waterfall(self):
        attr = fill(AttributionSink(), make_rows(50)).build()
        record = attr.record(3)
        assert isinstance(record, AttributionRecord)
        assert record.components_sum() == record.total
        waterfall = record.waterfall()
        magnitudes = [abs(value) for _, value in waterfall]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert all(value != 0.0 for _, value in waterfall)

    def test_json_round_trip(self):
        attr = fill(
            AttributionSink(max_records=64, slowest_k=3), make_rows(300)
        ).build(meta={"backend": "test"})
        clone = AttributionSet.from_dict(attr.to_dict())
        assert clone.count == attr.count
        assert clone.sums == attr.sums
        np.testing.assert_array_equal(clone.total, attr.total)
        for name in STAGES:
            np.testing.assert_array_equal(clone.stages[name], attr.stages[name])
        assert [r.to_dict() for r in clone.slowest] == [
            r.to_dict() for r in attr.slowest
        ]
        with pytest.raises(ConfigError):
            AttributionSet.from_dict({"kind": "other"})

    def test_record_round_trip(self):
        attr = fill(AttributionSink(), make_rows(10)).build()
        record = attr.record(0)
        assert AttributionRecord.from_dict(record.to_dict()) == record


class TestObservabilityCoercion:
    def test_bool_int_sink_and_error(self):
        obs = Observability(attribution=True)
        assert isinstance(obs.attribution, AttributionSink)
        obs = Observability(attribution=500)
        assert obs.attribution._max_records == 500
        sink = AttributionSink(max_records=9)
        assert Observability(attribution=sink).attribution is sink
        assert Observability().attribution is None
        assert Observability(attribution=False).attribution is None
        with pytest.raises(TypeError):
            Observability(attribution="yes")

    def test_reset_propagates(self):
        obs = Observability(attribution=True)
        fill(obs.attribution, make_rows(10))
        obs.reset()
        assert obs.attribution.count == 0


class TestProvenanceComment:
    def test_matches_provenance_stamp(self):
        line = provenance_comment()
        assert line.startswith("# provenance: ")
        stamp = provenance()
        for key, value in stamp.items():
            assert f"{key}={value}" in line
        assert "\n" not in line
