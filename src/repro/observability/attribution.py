"""Per-request latency provenance: stage-attribution records.

The paper's central object is the fork-join composition ``T(N) = 2d +
max_i(s_i + d_i)`` — but a latency *number* does not say which stage
carried it. This module decomposes every completed request's sojourn
into the paper's pipeline stages and keeps the decomposition queryable:

``AttributionRecord``
    One request's decomposition over the :data:`STAGES` columns —
    arrival/routing, network round trip, the queue-wait/service split of
    the key attaining ``TS(N)``, the DB queue/service split of the key
    attaining ``TD(N)``, critical-path policy overhead (hedge/retry
    launch delay), and the fork-join ``join_slack`` residual.
``AttributionSink``
    The recording half. Both simulators hand it their per-request
    record (:meth:`~AttributionSink.record_matrix`); column arrays go
    in through :meth:`~AttributionSink.record_columns`, and row-at-a-
    time callers get a plain-list tuple append. Exact per-column sums
    over *every* record, a bounded reservoir of full-fidelity records,
    and the slowest-K set are maintained in amortized vectorized
    flushes. The reservoir's replacement draws come from the sink's own
    deterministic generator, never the simulator's streams, so
    attaching a sink leaves seeded runs bit-identical.
``AttributionSet``
    The built, columnar (numpy) result: mean stage values/shares from
    the exact sums, :meth:`~AttributionSet.tail` conditional shares
    ("the p99 is 61% DB queueing"), slowest-K waterfall records, a JSON
    round trip, and the conservation law the tests pin down.
``TailAttribution``
    Stage contribution shares conditional on ``total > quantile(q)``.

Conservation contract
---------------------
Within one record the :data:`STAGES` columns, summed **left to right in
schema order**, reproduce ``total``. ``join_slack`` makes this hold by
construction: it is the residual ``total - sum(other columns)``,
refined so the float re-sum is bit-exact (see :func:`residual_slack`).
Its magnitude is the fork-join overlap — typically *negative*, since
``TS`` and ``TD`` overlap on the critical path rather than add — which
is exactly the slack Theorem 1's upper bound gives away.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, ValidationError

__all__ = [
    "STAGES",
    "GROUPS",
    "AttributionRecord",
    "AttributionSink",
    "AttributionSet",
    "TailAttribution",
    "residual_slack",
]

#: Stage columns of one attribution record, in summation order. The
#: conservation law sums them left to right; ``join_slack`` (last) is
#: the residual that closes the sum against ``total``.
STAGES = (
    "routing",
    "network",
    "server_queue",
    "server_service",
    "db_queue",
    "db_service",
    "policy",
    "join_slack",
)

#: Coarse stage groups matching :meth:`LatencyEstimate.breakdown` — the
#: vocabulary the analytic reference speaks.
GROUPS = ("network", "server", "database", "policy", "join_slack")

_GROUP_MEMBERS: Dict[str, Tuple[str, ...]] = {
    "network": ("routing", "network"),
    "server": ("server_queue", "server_service"),
    "database": ("db_queue", "db_service"),
    "policy": ("policy",),
    "join_slack": ("join_slack",),
}

#: Hot-path row layout (what recorders append). ``routing`` is always
#: zero in both simulators (dispatch is instantaneous) and ``join_slack``
#: is derived, so neither travels through the hot path.
ROW_FIELDS = (
    "request_id",
    "born",
    "completed",
    "total",
    "network",
    "server_queue",
    "server_service",
    "db_queue",
    "db_service",
    "policy",
)
_ROW_WIDTH = len(ROW_FIELDS)

#: The simulators' per-request record: :data:`ROW_FIELDS` with the
#: stage maxima ``TS``/``TD`` in place of the service columns. The
#: maxima are stored as measured (``(max - wait) + wait`` need not give
#: the max back bit-exactly); :meth:`AttributionSink.record_columns`
#: derives the service split from them.
RECORD_FIELDS = ROW_FIELDS[:6] + ("server_max", "db_queue", "db_max", "policy")

# Full (built) matrix layout: 4 meta columns then the 8 STAGES columns.
_META_WIDTH = 4
_COL_TOTAL = 3
_FULL_WIDTH = _META_WIDTH + len(STAGES)

#: Default bounded-reservoir capacity (full-fidelity records retained).
DEFAULT_MAX_RECORDS = 100_000

#: Pending rows buffered between vectorized flushes.
_FLUSH_CHUNK = 65_536


def residual_slack(total: np.ndarray, partial_sum: np.ndarray) -> np.ndarray:
    """``total - partial_sum``, refined until the float re-sum closes.

    When ``partial_sum/total`` is within ``[1/2, 2]`` the subtraction is
    exact (Sterbenz) and the re-sum ``fl(s + slack)`` hits ``total``
    bit-exactly with zero iterations. Outside that band the naive
    residual can miss by an ulp; the fixed-point corrections — subtract
    the re-sum's error from the slack — close the gap whenever a closing
    double exists (they cannot when ``|s|`` is so much larger than
    ``|total|`` that the sum's spacing exceeds ``total``'s ulp — a
    regime real stage decompositions never enter, since the serial stage
    sum is at most a few times the request latency).
    """
    total = np.asarray(total, dtype=float)
    s = np.asarray(partial_sum, dtype=float)
    slack = total - s
    for _ in range(4):
        err = (s + slack) - total
        if not np.any(err):
            break
        slack = slack - err
    return slack


def _ordered_sum(columns: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right float sum — the documented conservation order."""
    iterator = iter(columns)
    acc = np.array(next(iterator), dtype=float, copy=True)
    for column in iterator:
        acc = acc + column
    return acc


def _row_matrix(rows: List[tuple], width: int = _ROW_WIDTH) -> np.ndarray:
    """Tuple rows -> ``n x width`` float matrix in one flat pass.

    ``chain.from_iterable`` flattens in C — ~35% faster per row than a
    nested generator expression, and this conversion dominates the
    amortized flush cost the speed bench's attr/sink floor enforces.
    """
    flat = np.fromiter(
        itertools.chain.from_iterable(rows),
        dtype=float,
        count=len(rows) * width,
    )
    return flat.reshape(len(rows), width)


@dataclasses.dataclass(frozen=True)
class AttributionRecord:
    """One request's latency decomposition over :data:`STAGES`."""

    request_id: int
    born: float
    completed: float
    total: float
    stages: Dict[str, float]

    def components_sum(self) -> float:
        """The stage columns summed in schema order (== ``total``)."""
        acc = 0.0
        for name in STAGES:
            acc = acc + self.stages[name]
        return acc

    def waterfall(self) -> List[Tuple[str, float]]:
        """Non-zero stages, largest first — the critical-path view."""
        items = [
            (name, self.stages[name])
            for name in STAGES
            if self.stages[name] != 0.0
        ]
        return sorted(items, key=lambda item: -abs(item[1]))

    def to_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "born": self.born,
            "completed": self.completed,
            "total": self.total,
            "stages": dict(self.stages),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AttributionRecord":
        try:
            stages = dict(payload["stages"])
            return cls(
                request_id=int(payload["request_id"]),
                born=float(payload["born"]),
                completed=float(payload["completed"]),
                total=float(payload["total"]),
                stages={name: float(stages[name]) for name in STAGES},
            )
        except KeyError as exc:
            raise ConfigError(f"attribution record missing key: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class TailAttribution:
    """Stage shares conditional on ``total >= quantile(q)``.

    ``shares[s]`` is ``sum(stage s over tail requests) / sum(total over
    tail requests)`` — the fraction of tail latency stage ``s`` carried.
    The positive stages sum to ``1 - shares['join_slack']`` (slack is
    typically negative: the fork-join overlap).
    """

    quantile: float
    threshold: float
    n_tail: int
    shares: Dict[str, float]
    means: Dict[str, float]

    @property
    def dominant(self) -> str:
        """The stage carrying the largest tail share (slack excluded)."""
        candidates = {
            name: share
            for name, share in self.shares.items()
            if name != "join_slack"
        }
        return max(candidates, key=candidates.get)

    def group_shares(self) -> Dict[str, float]:
        return {
            group: sum(self.shares[name] for name in members)
            for group, members in _GROUP_MEMBERS.items()
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "quantile": self.quantile,
            "threshold": self.threshold,
            "n_tail": self.n_tail,
            "shares": dict(self.shares),
            "means": dict(self.means),
            "dominant": self.dominant,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TailAttribution":
        try:
            return cls(
                quantile=float(payload["quantile"]),
                threshold=float(payload["threshold"]),
                n_tail=int(payload["n_tail"]),
                shares={k: float(v) for k, v in payload["shares"].items()},
                means={k: float(v) for k, v in payload["means"].items()},
            )
        except KeyError as exc:
            raise ConfigError(f"tail attribution missing key: {exc}") from exc


@dataclasses.dataclass(frozen=True, eq=False)
class AttributionSet:
    """Columnar per-request attribution built by an :class:`AttributionSink`.

    ``sums``/``sum_total``/``count`` cover *every* recorded request;
    the aligned arrays (``total`` + ``stages``) are the bounded
    reservoir — the full population when it fit, an unbiased uniform
    sample otherwise. ``slowest`` keeps the K worst requests at full
    fidelity regardless of sampling.
    """

    count: int
    sums: Dict[str, float]
    sum_total: float
    request_id: np.ndarray
    born: np.ndarray
    completed: np.ndarray
    total: np.ndarray
    stages: Dict[str, np.ndarray]
    slowest: Tuple[AttributionRecord, ...]
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    # -- population statistics (exact sums) -----------------------------

    @property
    def n_retained(self) -> int:
        return int(self.total.size)

    def mean_total(self) -> float:
        return self.sum_total / self.count if self.count else 0.0

    def means(self) -> Dict[str, float]:
        """Exact per-stage mean contribution (seconds)."""
        if not self.count:
            return {name: 0.0 for name in STAGES}
        return {name: self.sums[name] / self.count for name in STAGES}

    def mean_shares(self) -> Dict[str, float]:
        """Per-stage share of mean total latency (slack included)."""
        if self.sum_total == 0.0:
            return {name: 0.0 for name in STAGES}
        return {name: self.sums[name] / self.sum_total for name in STAGES}

    def group_means(self) -> Dict[str, float]:
        means = self.means()
        return {
            group: sum(means[name] for name in members)
            for group, members in _GROUP_MEMBERS.items()
        }

    def group_shares(self) -> Dict[str, float]:
        shares = self.mean_shares()
        return {
            group: sum(shares[name] for name in members)
            for group, members in _GROUP_MEMBERS.items()
        }

    # -- tail / record access -------------------------------------------

    def tail(self, quantile: float = 0.99) -> TailAttribution:
        """Stage shares over requests at or above the latency quantile."""
        if not 0.0 <= quantile < 1.0:
            raise ValidationError(
                f"quantile must be in [0, 1), got {quantile}"
            )
        if self.n_retained == 0:
            raise ValidationError("attribution set holds no records")
        threshold = float(np.quantile(self.total, quantile))
        mask = self.total >= threshold
        n_tail = int(mask.sum())
        tail_total = float(self.total[mask].sum())
        shares = {}
        means = {}
        for name in STAGES:
            stage_sum = float(self.stages[name][mask].sum())
            shares[name] = stage_sum / tail_total if tail_total else 0.0
            means[name] = stage_sum / n_tail
        return TailAttribution(
            quantile=quantile,
            threshold=threshold,
            n_tail=n_tail,
            shares=shares,
            means=means,
        )

    def record(self, index: int) -> AttributionRecord:
        """The ``index``-th retained record as a typed object."""
        return AttributionRecord(
            request_id=int(self.request_id[index]),
            born=float(self.born[index]),
            completed=float(self.completed[index]),
            total=float(self.total[index]),
            stages={
                name: float(self.stages[name][index]) for name in STAGES
            },
        )

    def conservation_residuals(self) -> np.ndarray:
        """``ordered stage sum - total`` per retained record.

        All-zero (bit-exact) for event-engine records; within float
        tolerance for the vectorized backend. This is *the* invariant
        the test suite pins.
        """
        return _ordered_sum(self.stages[name] for name in STAGES) - self.total

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "repro-attribution",
            "count": self.count,
            "sums": dict(self.sums),
            "sum_total": self.sum_total,
            "request_id": self.request_id.tolist(),
            "born": self.born.tolist(),
            "completed": self.completed.tolist(),
            "total": self.total.tolist(),
            "stages": {
                name: self.stages[name].tolist() for name in STAGES
            },
            "slowest": [record.to_dict() for record in self.slowest],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AttributionSet":
        if not isinstance(payload, dict):
            raise ConfigError("attribution payload must be an object")
        if payload.get("kind") != "repro-attribution":
            raise ConfigError(
                f"not an attribution payload: kind={payload.get('kind')!r}"
            )
        try:
            return cls(
                count=int(payload["count"]),
                sums={k: float(v) for k, v in payload["sums"].items()},
                sum_total=float(payload["sum_total"]),
                request_id=np.asarray(payload["request_id"], dtype=float),
                born=np.asarray(payload["born"], dtype=float),
                completed=np.asarray(payload["completed"], dtype=float),
                total=np.asarray(payload["total"], dtype=float),
                stages={
                    name: np.asarray(payload["stages"][name], dtype=float)
                    for name in STAGES
                },
                slowest=tuple(
                    AttributionRecord.from_dict(item)
                    for item in payload["slowest"]
                ),
                meta=dict(payload.get("meta") or {}),
            )
        except KeyError as exc:
            raise ConfigError(f"attribution payload missing key: {exc}") from exc


class AttributionSink:
    """Recording half of the provenance layer (one simulation run).

    Bulk input: :meth:`record_columns` with :data:`RECORD_FIELDS`
    arrays. Row input: ``sink.append(row)`` where ``append`` is a
    *bound plain list append* and ``row`` is a :data:`ROW_FIELDS`
    tuple; callers should call :meth:`maybe_flush` after appends so
    memory stays bounded — the flush is one vectorized pass per ~65k
    rows.

    ``max_records`` bounds the full-fidelity reservoir (algorithm R,
    uniform, driven by the sink's own ``default_rng(seed)`` — never a
    simulator stream). ``slowest_k`` bounds the always-kept worst set.
    """

    def __init__(
        self,
        *,
        max_records: int = DEFAULT_MAX_RECORDS,
        slowest_k: int = 10,
        seed: int = 0,
    ) -> None:
        if max_records < 1:
            raise ValidationError(
                f"max_records must be >= 1, got {max_records}"
            )
        if slowest_k < 1:
            raise ValidationError(f"slowest_k must be >= 1, got {slowest_k}")
        self._max_records = int(max_records)
        self._slowest_k = int(slowest_k)
        self._seed = int(seed)
        self._pending: List[tuple] = []
        #: Bound hot-path append — identity is stable across reset().
        self.append = self._pending.append
        self._reset_state()

    def _reset_state(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        self._count = 0
        self._sums = np.zeros(len(STAGES))
        self._sum_total = 0.0
        self._reservoir = np.empty((self._max_records, _FULL_WIDTH))
        self._filled = 0
        self._slow: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Drop everything in place (e.g. at the warmup boundary)."""
        self._pending.clear()
        self._reset_state()

    @property
    def count(self) -> int:
        return self._count + len(self._pending)

    def maybe_flush(self) -> None:
        """Vectorized flush once the pending buffer reaches the chunk."""
        if len(self._pending) >= _FLUSH_CHUNK:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        mat = _row_matrix(self._pending)
        self._pending.clear()
        self._ingest(mat)

    def record_columns(
        self,
        *,
        request_id: np.ndarray,
        born: np.ndarray,
        completed: np.ndarray,
        total: np.ndarray,
        network: np.ndarray,
        server_queue: np.ndarray,
        server_max: np.ndarray,
        db_queue: np.ndarray,
        db_max: np.ndarray,
        policy: np.ndarray,
    ) -> None:
        """Bulk-record :data:`RECORD_FIELDS` column arrays.

        ``server_max``/``db_max`` are the stage maxima ``TS``/``TD``;
        the service columns are ``max - queue`` of the critical key.
        """
        self.flush()  # preserve arrival order against buffered rows
        server_queue = np.asarray(server_queue, dtype=float)
        db_queue = np.asarray(db_queue, dtype=float)
        mat = np.column_stack(
            [
                np.asarray(request_id, dtype=float),
                np.asarray(born, dtype=float),
                np.asarray(completed, dtype=float),
                np.asarray(total, dtype=float),
                np.asarray(network, dtype=float),
                server_queue,
                np.asarray(server_max, dtype=float) - server_queue,
                db_queue,
                np.asarray(db_max, dtype=float) - db_queue,
                np.asarray(policy, dtype=float),
            ]
        )
        if mat.shape[0]:
            self._ingest(mat)

    def record_matrix(self, record: np.ndarray) -> None:
        """Bulk-record a :data:`RECORD_FIELDS` matrix, one row per request.

        The rows go in ``_FLUSH_CHUNK`` slices, the sink's own flush
        chunks, so the exact sums keep one summation order however the
        rows reached the record.
        """
        for start in range(0, record.shape[0], _FLUSH_CHUNK):
            chunk = record[start : start + _FLUSH_CHUNK]
            self.record_columns(**dict(zip(RECORD_FIELDS, chunk.T)))

    def _ingest(self, mat: np.ndarray) -> None:
        """One vectorized pass: derive columns, sums, reservoir, slowest."""
        n = mat.shape[0]
        full = np.empty((n, _FULL_WIDTH))
        full[:, :_META_WIDTH] = mat[:, :_META_WIDTH]
        full[:, _META_WIDTH] = 0.0  # routing (reserved)
        full[:, _META_WIDTH + 1 : _META_WIDTH + 7] = mat[:, 4:_ROW_WIDTH]
        partial = _ordered_sum(
            full[:, _META_WIDTH + k] for k in range(len(STAGES) - 1)
        )
        full[:, _META_WIDTH + 7] = residual_slack(full[:, _COL_TOTAL], partial)

        self._sums += full[:, _META_WIDTH:].sum(axis=0)
        self._sum_total += float(full[:, _COL_TOTAL].sum())
        start = self._count
        self._count += n

        # Reservoir (algorithm R, vectorized). While under capacity the
        # reservoir has kept every record, so the head of the chunk goes
        # straight in; the rest replace uniform slots.
        cap = self._max_records
        offset = 0
        if self._filled < cap:
            take = min(cap - self._filled, n)
            self._reservoir[self._filled : self._filled + take] = full[:take]
            self._filled += take
            offset = take
        if offset < n:
            global_index = np.arange(
                start + offset, start + n, dtype=np.float64
            )
            slots = (
                self._rng.random(n - offset) * (global_index + 1.0)
            ).astype(np.int64)
            keep = slots < cap
            self._reservoir[slots[keep]] = full[offset:][keep]

        pool = full if self._slow is None else np.vstack([self._slow, full])
        order = np.argsort(-pool[:, _COL_TOTAL], kind="stable")
        self._slow = pool[order[: self._slowest_k]].copy()

    def build(self, *, meta: Optional[Dict[str, object]] = None) -> AttributionSet:
        """Flush and assemble the columnar :class:`AttributionSet`."""
        self.flush()
        retained = self._reservoir[: self._filled]
        slow = self._slow if self._slow is not None else np.empty((0, _FULL_WIDTH))
        slowest = tuple(
            AttributionRecord(
                request_id=int(row[0]),
                born=float(row[1]),
                completed=float(row[2]),
                total=float(row[_COL_TOTAL]),
                stages={
                    name: float(row[_META_WIDTH + k])
                    for k, name in enumerate(STAGES)
                },
            )
            for row in slow
        )
        return AttributionSet(
            count=self._count,
            sums={
                name: float(self._sums[k]) for k, name in enumerate(STAGES)
            },
            sum_total=self._sum_total,
            request_id=retained[:, 0].copy(),
            born=retained[:, 1].copy(),
            completed=retained[:, 2].copy(),
            total=retained[:, _COL_TOTAL].copy(),
            stages={
                name: retained[:, _META_WIDTH + k].copy()
                for k, name in enumerate(STAGES)
            },
            slowest=slowest,
            meta=dict(meta or {}),
        )


def coerce_attribution(
    option: object, *, slowest_k: int = 10
) -> Optional[AttributionSink]:
    """The sink an ``attribution=`` option asks for.

    ``None``/``False`` -> off; ``True`` -> a default sink; an int -> a
    sink with that reservoir capacity; an :class:`AttributionSink` is
    used as given. ``slowest_k`` sizes the sinks built here. Anything
    else raises :class:`TypeError`.
    """
    if isinstance(option, AttributionSink):
        return option
    if option is None or isinstance(option, bool):
        return AttributionSink(slowest_k=slowest_k) if option else None
    if isinstance(option, int):
        return AttributionSink(max_records=option, slowest_k=slowest_k)
    raise TypeError(
        "attribution must be None, a bool, an int capacity, or an "
        f"AttributionSink, got {type(option).__name__}"
    )
