"""Whole-system vectorized simulator (the event engine's fast twin).

:mod:`repro.simulation.fastpath` vectorizes one GI^X/M/1 server and then
*resamples* request latencies from stationary pools — fast, but it loses
the coupling the event engine keeps: keys of the same request really do
queue behind each other, misses really do contend at one shared
database. This module simulates the complete Fig. 1 pipeline of
:class:`~repro.simulation.system.MemcachedSystemSimulator` with numpy
scans instead of events, preserving every structural property of the
event-driven run:

1. End-user requests arrive Poisson; each forks ``N`` keys multinomially
   over the ``M`` servers by shares ``{p_j}``.
2. Keys of one request bound for one server arrive *together* (constant
   network delay preserves order), so each server sees a compound batch
   stream, run through the batch-FIFO kernel shared with the
   single-server fast path, :func:`~repro.simulation.fastpath.batch_fifo`:
   a key's sojourn is its batch's Lindley wait plus the within-batch
   service prefix. The pass keeps that state at batch level and builds
   per-key times only where they are read: each batch's last key gives
   the fork-join maximum, a gather gives the missed keys' sojourns,
   utilization expands only the batch straddling the cutoff when it is
   first read, and the timeline's per-key stage jobs are built on first
   read. The per-key arrays it does keep are slices of two pass-wide
   arrays: every server draws its services into its slice of one and
   writes their prefix into its slice of the other.
3. Misses (Bernoulli ``r``) are relayed to the database at their
   server-completion instant. Each server's miss uniforms are drawn in
   fixed-size chunks through one reused buffer, which reads the same
   stream as one key-sized draw. The database is a single FIFO M/M/1 queue
   simulated with its *own* Lindley recursion over the merged,
   time-sorted miss stream of all servers — not the lightly-loaded
   exponential shortcut the pool sampler uses — so database contention
   between concurrent requests is exact.
4. Every key pays the constant network delay out and back; the request
   completes when its last key returns: ``T(N) = 2d + max_i(s_i + d_i)``
   with the stage maxima ``TS(N) = max_i s_i``/``TD(N) = max_i d_i``
   recorded separately, exactly as the engine's recorders do.
5. The *sampling protocol* matches too: the engine keeps spawning
   requests until ``warmup + n`` of them have **completed**, resets its
   recorders at the ``warmup``-th completion, and reports completions
   ``warmup+1 .. warmup+n``. With order-preserving FIFO stages, an
   arrival after the last recorded completion cannot influence any
   earlier completion, so this run simulates generously many arrivals
   and selects the same completion-ranked window. That censoring is
   irrelevant in stationary regimes but decisive when the database is
   overloaded (the paper's §5.1 point!), where latencies grow with
   simulated time and the two protocols would otherwise diverge.

What it does *not* model: per-key tracing spans, pluggable cache
backends, and non-Poisson request processes — those remain event-engine
territory.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
from typing import Optional, Sequence

import numpy as np

from ..errors import SimulationError, StabilityError, ValidationError
from ..faults import FaultSchedule
from ..observability.attribution import RECORD_FIELDS, coerce_attribution
from ..observability.timeline import Timeline, TimelineSpec
from .fastpath import BatchFifo, batch_fifo, lindley_waits
from .results import SystemResults

__all__ = ["simulate_system_requests"]

#: Doubling attempts for arrival coverage before giving up. 2**10 spawn
#: growth covers database overloads beyond 100x; anything needing more
#: is a configuration error, not a workload.
_MAX_GROWTH_ROUNDS = 10

#: Miss uniforms drawn per chunk (128 KiB of float64): a server's
#: stream is drawn through one buffer of this size, not a key-sized
#: array.
_UNIFORM_CHUNK = 1 << 14


@dataclasses.dataclass(frozen=True, eq=False)
class _ServerPass:
    """One server's keys in a pass: per-key service draws, per-batch
    arrival instants, and the batch-level FIFO state.

    A key completes at ``batch_arrival[b] + sojourn``; per-key
    completions exist only where a read below builds them.
    """

    services: np.ndarray
    batch_arrival: np.ndarray
    fifo: BatchFifo

    @classmethod
    def idle(cls) -> "_ServerPass":
        """A server no key was routed to."""
        index, empty = np.empty(0, dtype=np.int64), np.empty(0)
        return cls(empty, empty, BatchFifo(index, index, empty, empty, empty))

    def completions(self) -> np.ndarray:
        """Every key's completion instant."""
        return np.repeat(self.batch_arrival, self.fifo.sizes) + self.fifo.sojourn()

    def service_done_by(self, cutoff: float) -> float:
        """Service time of the keys finished by ``cutoff``.

        Equal, bit for bit, to ``services[_finished_between(
        completions(), -inf, cutoff)].sum()``. Within a batch every
        float step from prefix to completion is monotone, so keys
        finish in order there, and the whole stream is in order exactly
        when no batch's first key finishes before the previous batch's
        last. Then the finished keys are a prefix, found by one
        searchsorted over the batch lasts and one over the batch that
        straddles the cutoff; otherwise the mask path runs on the
        materialized completions.
        """
        fifo, arrival = self.fifo, self.batch_arrival
        last = arrival + fifo.last()
        first = arrival + fifo.at(fifo.starts, np.arange(fifo.starts.size))
        if not (first[1:] >= last[:-1]).all():
            done = _finished_between(self.completions(), -np.inf, cutoff)
            return float(self.services[done].sum())
        b = int(np.searchsorted(last, cutoff, side="right"))
        if b == last.size:
            return float(self.services.sum())
        keys = np.arange(fifo.starts[b], fifo.starts[b] + fifo.sizes[b])
        straddling = arrival[b] + fifo.at(keys, b)
        hi = int(keys[0]) + int(np.searchsorted(straddling, cutoff, side="right"))
        return float(self.services[:hi].sum())

    def jobs(self, t0: float, cutoff: float):
        """``(arrival, service_start, finish)`` of the keys finishing in
        ``(t0, cutoff]`` — the timeline's per-job input."""
        arrival = np.repeat(self.batch_arrival, self.fifo.sizes)
        return _jobs_finished_between(
            arrival, self.services, arrival + self.fifo.sojourn(), t0, cutoff
        )


class _Utilizations(collections.abc.Sequence):
    """Each server's busy fraction over ``(0, cutoff]``, computed on
    first read; it reads as the tuple of those values.

    A capacity probe never reads it; a run summary or report does. The
    first read lets go of the pass, and pickling stores the plain tuple.
    """

    def __init__(self, servers: list, cutoff: float) -> None:
        self._servers = servers
        self._cutoff = cutoff

    @functools.cached_property
    def _values(self) -> tuple:
        cutoff = self._cutoff
        values = tuple(
            server.service_done_by(cutoff) / cutoff for server in self._servers
        )
        self._servers = None
        return values

    def __getitem__(self, index):
        return self._values[index]

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        return self._values == other

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return repr(self._values)

    def __reduce__(self):
        return tuple, (self._values,)


@dataclasses.dataclass
class _PassResult:
    """One full pipeline pass over ``n_spawn`` spawned requests."""

    arrivals: np.ndarray
    server_max: np.ndarray
    database_max: np.ndarray
    combo_max: np.ndarray
    # Per request, the queue wait of the key attaining the server and
    # the database stage maximum: the critical key's wait/service split.
    server_wait: np.ndarray
    database_wait: np.ndarray
    n_misses: int
    # Per-server keys, at batch level; feeds utilization and timeline.
    servers: list
    # Merged database stream, in arrival order (empty without misses).
    db_arrival: np.ndarray
    db_service: np.ndarray
    db_completion: np.ndarray


def _simulate_pass(
    n_spawn: int,
    *,
    shares_arr: np.ndarray,
    service_rate: float,
    n_keys: int,
    request_rate: float,
    network_delay: float,
    miss_ratio: float,
    database_rate: Optional[float],
    rng: np.random.Generator,
    faults: Optional[FaultSchedule] = None,
) -> _PassResult:
    """Push ``n_spawn`` requests through servers and database."""
    n_servers = shares_arr.size
    arrivals = np.cumsum(rng.exponential(1.0 / request_rate, size=n_spawn))
    counts = rng.multinomial(n_keys, shares_arr, size=n_spawn)
    # Every spawned request routes all its keys, so the servers' key
    # streams fill these two pass-wide arrays end to end, one slice per
    # server; the miss uniforms go through one bounded buffer.
    service_scale = 1.0 / service_rate
    all_services = np.empty(n_spawn * n_keys)
    all_prefix = np.empty(n_spawn * n_keys)
    uniforms = np.empty(_UNIFORM_CHUNK) if miss_ratio > 0.0 else None
    offset = 0

    server_max = np.zeros(n_spawn)
    server_wait = np.zeros(n_spawn)
    database_max = np.zeros(n_spawn)
    database_wait = np.zeros(n_spawn)
    miss_request: list = []
    miss_arrival: list = []
    miss_server_sojourn: list = []
    servers: list = []
    n_misses = 0

    for j in range(n_servers):
        batch_sizes_all = counts[:, j]
        nonzero = np.nonzero(batch_sizes_all)[0]
        if nonzero.size == 0:
            servers.append(_ServerPass.idle())
            continue
        sizes = batch_sizes_all[nonzero]
        total_keys = int(sizes.sum())
        keys = slice(offset, offset + total_keys)
        offset += total_keys
        # numpy draws exponential(scale) as scale * standard_exponential,
        # so these are the values of exponential(service_scale, size).
        services = all_services[keys]
        rng.standard_exponential(out=services)
        services *= service_scale
        batch_arrival = arrivals[nonzero] + network_delay
        if faults is not None:
            # Slowdown windows scale the service rate; the factor is
            # evaluated at the key's batch-arrival instant (the engine
            # evaluates at service *start* — the protocols agree except
            # for keys whose wait straddles a window edge).
            key_arrival = np.repeat(batch_arrival, sizes)
            np.divide(
                services,
                faults.server_rate_factors(j, key_arrival),
                out=services,
            )

        fifo = batch_fifo(
            np.diff(batch_arrival), sizes, services, out=all_prefix[keys]
        )
        servers.append(_ServerPass(services, batch_arrival, fifo))

        # A request's keys at this server form one contiguous batch whose
        # sojourns never decrease, so its maximum is its last key's; the
        # result folds into the stage maxima shared with the other
        # servers. ">=" hands a tie to the later server, as the engine's
        # running maximum does.
        batch_max = fifo.last()
        current = server_max[nonzero]
        wins = batch_max >= current
        # Clamp the -1 ulp float dust so queue waits stay >= 0.
        last_wait = np.maximum(batch_max - services[fifo.starts + sizes - 1], 0.0)
        server_wait[nonzero[wins]] = last_wait[wins]
        server_max[nonzero] = np.maximum(current, batch_max)

        if uniforms is not None:
            missed = _miss_keys(rng, total_keys, miss_ratio, uniforms)
            if missed.size:
                n_misses += int(missed.size)
                # A missed key's request is that of the last batch
                # starting at or before it.
                batch = np.searchsorted(fifo.starts, missed, side="right") - 1
                sojourn = fifo.at(missed, batch)
                miss_request.append(nonzero[batch])
                miss_arrival.append(batch_arrival[batch] + sojourn)
                miss_server_sojourn.append(sojourn)
            # Hits resolve at the server; misses get their database
            # sojourn added below. Taking the server-only max above is
            # safe — the miss contribution can only be larger.

    # max_i (server sojourn + database sojourn): the request's critical
    # key, before the constant network round trip is added.
    combo_max = server_max.copy()
    if miss_request:
        request_of_miss = np.concatenate(miss_request)
        db_arrival = np.concatenate(miss_arrival)
        server_part = np.concatenate(miss_server_sojourn)
        # Merged miss stream across servers, in database-arrival order:
        # the FIFO M/M/1 database serves them with its own Lindley pass
        # (every job is alone, and batch_fifo's prefix step would turn
        # its service s into c - (c - s), which is not bit-equal to s).
        order = np.argsort(db_arrival, kind="stable")
        request_of_miss = request_of_miss[order]
        db_arrival = db_arrival[order]
        server_part = server_part[order]
        db_service = rng.exponential(
            1.0 / float(database_rate), size=db_arrival.size
        )
        if faults is not None:
            np.divide(
                db_service,
                faults.database_rate_factors(db_arrival),
                out=db_service,
            )
        db_sojourn = lindley_waits(db_service, np.diff(db_arrival)) + db_service
        db_completion = db_arrival + db_sojourn
        np.maximum.at(database_max, request_of_miss, db_sojourn)
        np.maximum.at(combo_max, request_of_miss, server_part + db_sojourn)
        # Each request's wait is that of its miss attaining the maximum
        # (two misses of one request tie with probability zero).
        at_max = db_sojourn == database_max[request_of_miss]
        database_wait[request_of_miss[at_max]] = np.maximum(
            db_sojourn[at_max] - db_service[at_max], 0.0
        )
    else:
        db_arrival = db_service = db_completion = np.empty(0)

    return _PassResult(
        arrivals=arrivals,
        server_max=server_max,
        database_max=database_max,
        combo_max=combo_max,
        server_wait=server_wait,
        database_wait=database_wait,
        n_misses=n_misses,
        servers=servers,
        db_arrival=db_arrival,
        db_service=db_service,
        db_completion=db_completion,
    )


def simulate_system_requests(
    shares: Sequence[float],
    service_rate: float,
    *,
    n_keys: int,
    request_rate: float,
    n_requests: int,
    rng: np.random.Generator,
    warmup_requests: int = 0,
    network_delay: float = 0.0,
    miss_ratio: float = 0.0,
    database_rate: Optional[float] = None,
    faults: Optional[FaultSchedule] = None,
    timeline: object = None,
    attribution: object = None,
) -> SystemResults:
    """Simulate the system until ``warmup + n`` requests complete.

    Parameters mirror :class:`MemcachedSystemSimulator`: ``request_rate``
    is the Poisson end-user rate (the induced per-server key rate is
    ``request_rate * N * p_j``), ``service_rate`` is ``muS`` per server,
    and misses feed one shared FIFO ``Exp(database_rate)`` database.
    Following the engine's protocol, the first ``warmup_requests``
    *completions* shape the queues but are dropped from the returned
    record, and the run ends at the ``warmup + n``-th completion.

    Returns the engine's :class:`~repro.simulation.results.SystemResults`:
    one record row per kept request, in completion order, with the
    critical keys' queue waits found from each batch's last key and
    from the misses.

    ``faults`` accepts the *vectorizable* subset of a
    :class:`~repro.faults.FaultSchedule` — rate-scaling windows (server
    slowdowns, database overloads). Pauses and share shifts need the
    event engine's per-event control flow and are rejected here.

    ``timeline`` (anything :meth:`TimelineSpec.coerce` accepts — ``True``,
    a window count, a window width, or a spec) attaches windowed
    telemetry over the recorded completion window, bucketed in one
    vectorized pass and schema-identical to the event engine's.

    ``attribution`` (``True``, a reservoir capacity, or a pre-built
    :class:`~repro.observability.AttributionSink`) attaches per-request
    stage attribution built from the record, as the event engine
    builds it (``policy`` is always zero here — the fast path models no
    request policies).
    """
    shares_arr = np.asarray(shares, dtype=float)
    if shares_arr.ndim != 1 or shares_arr.size < 1:
        raise ValidationError("shares must be a non-empty 1-D sequence")
    if not np.isclose(float(shares_arr.sum()), 1.0, rtol=1e-9, atol=1e-12):
        raise ValidationError("shares must sum to 1")
    if n_keys < 1:
        raise ValidationError(f"n_keys must be >= 1, got {n_keys}")
    if n_requests < 1:
        raise ValidationError(f"n_requests must be >= 1, got {n_requests}")
    if warmup_requests < 0:
        raise ValidationError(
            f"warmup_requests must be >= 0, got {warmup_requests}"
        )
    if request_rate <= 0:
        raise ValidationError(f"request_rate must be > 0, got {request_rate}")
    if service_rate <= 0:
        raise ValidationError(f"service_rate must be > 0, got {service_rate}")
    if network_delay < 0:
        raise ValidationError(
            f"network_delay must be >= 0, got {network_delay}"
        )
    if not 0.0 <= miss_ratio <= 1.0:
        raise ValidationError(f"miss_ratio must be in [0, 1], got {miss_ratio}")
    if miss_ratio > 0.0 and database_rate is None:
        raise ValidationError("database_rate is required when miss_ratio > 0")
    spec = TimelineSpec.coerce(timeline)
    if faults is not None and faults.is_empty:
        faults = None
    if faults is not None:
        if not faults.is_vectorizable:
            offending = sorted(
                {
                    window.to_dict()["kind"]
                    for window in faults.windows
                    if window.to_dict()["kind"]
                    not in ("server-slowdown", "database-overload")
                }
            )
            raise ValidationError(
                "fastpath-system vectorizes only rate-scaling fault "
                "windows (server slowdowns, database overloads); this "
                f"schedule contains {', '.join(offending)} windows — "
                'run the scenario with backend="simulate" (the event '
                "engine supports every fault kind)"
            )
        faults.validate_for(shares_arr.size)

    key_rate = request_rate * n_keys
    rho = float(np.max(shares_arr)) * key_rate / service_rate
    if rho >= 1.0:
        raise StabilityError(rho)
    # No database stability guard: the event engine runs an overloaded
    # database as a growing finite-horizon transient (the paper's §5.1
    # point is exactly such a case) and the machinery below reproduces
    # that transient faithfully. Only the Memcached tier — where
    # stationarity is the modeling claim — rejects rho >= 1.

    attribution_sink = coerce_attribution(attribution)
    n_total = warmup_requests + n_requests
    kwargs = dict(
        shares_arr=shares_arr,
        service_rate=float(service_rate),
        n_keys=n_keys,
        request_rate=float(request_rate),
        network_delay=float(network_delay),
        miss_ratio=float(miss_ratio),
        database_rate=database_rate,
        rng=rng,
        faults=faults,
    )

    # The engine spawns requests until the (warmup + n)-th COMPLETION;
    # arrivals after that instant never exist. An arrival after time t
    # can only delay keys arriving after t at every FIFO stage, so it
    # cannot influence completions before t: simulating extra arrivals
    # and windowing on completion rank reproduces the engine's run law
    # exactly — provided arrivals cover the whole recorded window.
    # Overshoot, check coverage against the cutoff, and double until it
    # holds (stable systems succeed immediately; overloaded databases,
    # whose cutoff drifts far past the nominal arrival span, need a few
    # rounds).
    n_spawn = n_total + 64 + n_total // 8
    for _ in range(_MAX_GROWTH_ROUNDS):
        result = _simulate_pass(n_spawn, **kwargs)
        completion = (
            result.arrivals + result.combo_max + 2.0 * network_delay
        )
        cutoff = float(np.partition(completion, n_total - 1)[n_total - 1])
        if result.arrivals[-1] >= cutoff:
            break
        n_spawn *= 2
    else:
        raise SimulationError(
            "could not cover the completion window after "
            f"{_MAX_GROWTH_ROUNDS} growth rounds (database overload too "
            "extreme for a finite run?)"
        )

    order = np.argsort(completion, kind="stable")
    keep = order[warmup_requests:n_total]
    round_trip = 2.0 * network_delay
    columns = {
        "request_id": keep.astype(float),
        "born": result.arrivals[keep],
        "completed": completion[keep],
        "total": result.combo_max[keep] + round_trip,
        "network": np.full(keep.size, round_trip),
        "server_queue": result.server_wait[keep],
        "server_max": result.server_max[keep],
        "db_queue": result.database_wait[keep],
        "db_max": result.database_max[keep],
        "policy": np.zeros(keep.size),
    }
    record = np.column_stack([columns[name] for name in RECORD_FIELDS])
    meta = {"backend": "fastpath-system"}
    run_timeline = None
    if spec is not None:
        # Same window law as the engine: recorders (and windows) start
        # at the warmup-th completion and end at the cutoff instant.
        t0 = (
            float(completion[order[warmup_requests - 1]])
            if warmup_requests
            else 0.0
        )
        # Stage jobs are built only when the timeline's stage series
        # are first read; a verdict on request-level series never pays
        # for them. Each partial holds only its own stage's state.
        stages = {
            f"server.{j}": functools.partial(server.jobs, t0, cutoff)
            for j, server in enumerate(result.servers)
        }
        if miss_ratio > 0.0 and database_rate is not None:
            stages["database"] = functools.partial(
                _jobs_finished_between,
                result.db_arrival,
                result.db_service,
                result.db_completion,
                t0,
                cutoff,
            )
        run_timeline = Timeline.from_events(
            start=t0,
            end=cutoff,
            request_born=columns["born"],
            request_completed=columns["completed"],
            stages=stages,
            spec=spec,
            meta=meta,
        )
    attribution_set = None
    if attribution_sink is not None:
        attribution_sink.record_matrix(record)
        attribution_set = attribution_sink.build(meta=meta)
    return SystemResults(
        record=record,
        keys_processed=n_spawn * n_keys,
        misses=result.n_misses,
        server_utilizations=_Utilizations(result.servers, cutoff),
        timeline=run_timeline,
        attribution=attribution_set,
    )


def _miss_keys(
    rng: np.random.Generator, n: int, miss_ratio: float, buffer: np.ndarray
) -> np.ndarray:
    """Index of the keys among ``n`` whose uniform falls below
    ``miss_ratio``: ``np.flatnonzero(rng.random(n) < miss_ratio)``,
    drawn chunk by chunk into ``buffer``.

    Each float64 uniform takes one 64-bit draw, so consecutive chunks
    read the same stream as one ``random(n)`` call.
    """
    chunk = buffer.size
    found = []
    for lo in range(0, n, chunk):
        uniforms = buffer[: min(chunk, n - lo)]
        rng.random(out=uniforms)
        hits = np.flatnonzero(uniforms < miss_ratio)
        if hits.size:
            found.append(hits + lo)
    return np.concatenate(found) if found else np.empty(0, dtype=np.intp)


def _finished_between(finish: np.ndarray, t0: float, cutoff: float):
    """Index of the jobs with ``t0 < finish <= cutoff``.

    FIFO stages finish their jobs in order, so this is a contiguous
    slice found by two searchsorted cuts — no mask and no copy. Should
    float rounding ever break the order, it falls back to a mask.
    """
    if finish.size > 1 and not (finish[1:] >= finish[:-1]).all():
        return (finish > t0) & (finish <= cutoff)
    lo, hi = np.searchsorted(finish, (t0, cutoff), side="right")
    return slice(int(lo), int(hi))


def _jobs_finished_between(
    arrival: np.ndarray,
    service: np.ndarray,
    finish: np.ndarray,
    t0: float,
    cutoff: float,
):
    """``(arrival, service_start, finish)`` of one stage's jobs that
    finish in ``(t0, cutoff]`` — the timeline's per-job input."""
    done = _finished_between(finish, t0, cutoff)
    arrival, finish = arrival[done], finish[done]
    start = finish - service[done]
    # Clamp the -1 ulp float dust so no service starts before arrival.
    np.maximum(start, arrival, out=start)
    return arrival, start, finish


