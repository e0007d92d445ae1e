"""Closed-loop Memcached system simulator (the full testbed substitute).

Models the paper's Fig. 1 end to end on the event engine:

1. End-user requests arrive (Poisson by default); each generates N keys.
2. Keys are spread over the M Memcached servers — either by the model's
   share probabilities ``{p_j}`` or by hashing real key names through a
   consistent-hash ring from :mod:`repro.memcached`.
3. Each key crosses the network (constant delay), queues FIFO at its
   server, and is served ``Exp(muS)``. A request's keys for one server
   travel and queue as one batch, one queue entry; without a request
   policy they have no per-key objects at all and share the request as
   their payload, and the server fixes the rest of the batch as one run
   once its head key starts. Without a request policy the request's
   arrival is one event, one delay after its birth: it draws the
   routing and offers every batch (``_fan_out``). A request policy
   keeps the arrival at birth and one network event per batch, since
   its timers run from birth.
4. A server run is one engine event, at its last finish. Before any
   event fires, the simulator's pre-event hook accounts in bulk every
   run key that finishes before it (``_account_runs``): the request's
   pending count and server maximum, the per-key sojourn buffer and the
   keys' ranks in the miss stream. A run's last key, and any key that
   misses, takes the one per-key path (``_serve_run_key``) at its own
   event, with the clock at its finish.
5. A miss (Bernoulli ``r`` drawn from the simulator's own uniform
   window, or a *real* cache lookup when a cache backend is attached)
   relays the key to the M/M/1 database. The k-th served key misses
   when the k-th uniform of the miss stream is below ``r``; a cursor
   finds each window's miss ranks in one numpy pass, so a run's keys
   are ranked by counting them, and only a miss or a window's end is
   looked at key by key. With a cache backend the cursor stops at
   every rank, and the key's lookup decides.
6. The request completes when its last key's value returns; one row of
   the run's per-request record keeps ``T(N)``, the per-stage maxima
   ``TS(N)``/``TD(N)`` and the critical keys' queue waits, and every
   per-request view is derived from that record: the timeline,
   registry histograms and attribution when the run ends, the stage
   recorders and request log of the returned
   :class:`~repro.simulation.results.SystemResults` on first read. The
   tracer gets one root per record row; a retained root's key spans
   are built on first read from the queue logs' rows, or from the
   instants a policy attempt keeps on its context.
   The constant network delay keeps FIFO order, so without a
   request policy a key's return hop is accounted when it leaves its
   server and schedules no event: the request's last key schedules the
   one completion event, at the instant its value arrives. A request
   policy keeps one return event per attempt, since its timers and
   cancel-on-winner act on keys in flight.
7. A finished run drops its pending events, its pre-event hook and its
   queues' completion callbacks, the reference cycles through the
   simulator, so it is freed by reference counting as soon as the
   caller lets it go.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate, chain, islice, repeat
from operator import getitem
from typing import Dict, List, Optional, Protocol, Set

import numpy as np

from ..distributions import RandomWindow, make_rng, split_rng, spawn_child
from ..distributions.rng import refill_sizes
from ..core.cluster import ClusterModel
from ..core.workload import WorkloadPattern

from ..errors import SimulationError, ValidationError
from ..faults import FaultSchedule
from ..observability import MetricsRegistry, Observability, Timeline
from ..observability.attribution import _FLUSH_CHUNK, RECORD_FIELDS, _row_matrix
from ..policies import RequestPolicy
from .database import DatabaseSim
from .engine import EventHandle, Simulator
from .metrics import LatencyRecorder
from .network import NetworkSim
from .results import SystemResults
from .server import QueueLog, ServerRun, ServerSim

#: spawn_child tag for the policy decision stream (hedge/retry server
#: picks). A tagged child never collides with the split_rng children
#: above it, so policy-free runs remain bit-identical.
_POLICY_RNG_TAG = 101

#: Registry histograms derived from the per-request record, by column.
_REQUEST_HISTOGRAMS = (
    ("request.total", "total"),
    ("request.server_max", "server_max"),
    ("request.database_max", "db_max"),
    ("request.network_max", "network"),
)


#: Stored samples of the per-key server sojourn recorder (a uniform
#: reservoir beyond it), and the sojourns buffered between flushes.
_PER_KEY_SAMPLES = 500_000
_PER_KEY_CHUNK = 2048


def _flush_sojourns(
    recorder: LatencyRecorder,
    sojourns: np.ndarray,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Move buffered per-key sojourns into ``recorder`` and the
    registry's ``key.server_sojourn`` histogram.

    Values that still fit the stored samples go in with one
    ``record_many``. Values past the cap take the scalar reservoir step,
    whose draws ``record_many`` would make differently, so ``samples()``
    equals recording each key as it completed; the moments agree up to
    summation order.
    """
    room = max(_PER_KEY_SAMPLES - recorder.count, 0)
    recorder.record_many(sojourns[:room])
    for value in sojourns[room:].tolist():
        recorder.record(value)
    if registry is not None:
        registry.histogram("key.server_sojourn").record_many(sojourns)


def _in_completion_order(segments: list) -> np.ndarray:
    """Sojourns of buffered server keys in completion order.

    ``segments`` is flat: each ``times, first, end, arrival`` four holds
    the keys ``first..end-1`` of one run; a policy attempt, buffered at
    its own finish event, is ``((finish,), 0, 1, arrival)``. Keys
    complete in ``(finish, run seq, index)`` order, and the buffer holds
    them in that order except among the keys accounted before one event,
    which are buffered run by run in seq order. So a stable sort by
    finish alone restores the order: keys with equal finishes keep their
    buffered order, which is their seq order, or their index order
    within a run.
    """
    if not segments:
        return np.empty(0)
    times, first, end, arrival = (segments[i::4] for i in range(4))
    sizes = np.subtract(end, first)
    finish = np.fromiter(
        chain.from_iterable(map(getitem, times, map(slice, first, end))),
        dtype=float,
        count=int(sizes.sum()),
    )
    sojourn = finish - np.repeat(np.array(arrival, dtype=float), sizes)
    return sojourn[np.argsort(finish, kind="stable")]


def _fill_queue_metrics(registry: MetricsRegistry, name: str, log: QueueLog) -> None:
    """Derive one queue's registry collectors from its log's rows since
    the mark: ``{name}.wait``/``.service`` per finished key, and per
    offered key ``{name}.queue_depth`` (the keys ahead of it) and
    ``.arrivals``."""
    arrival, start, finish = log.job_columns()
    registry.histogram(f"{name}.wait").record_many(start - arrival)
    registry.histogram(f"{name}.service").record_many(finish - start)
    ahead, size = _row_matrix(log.batches_since_mark(), 2).astype(np.int64).T
    first = np.cumsum(size) - size  # each batch's first key
    depth = np.repeat(ahead - first, size) + np.arange(size.sum())
    registry.histogram(f"{name}.queue_depth", min_value=1.0).record_many(depth)
    registry.counter(f"{name}.arrivals").inc(int(size.sum()))


def _logged_keys(
    servers: List[QueueLog],
    database: Optional[QueueLog],
    n_keys: int,
    delay: float,
    request_ids: Set[int],
) -> Dict[int, list]:
    """Tracer key rows of the finished requests ``request_ids`` of a run
    without key contexts, from every row of its queue logs: a request
    sends one batch per server in server order, served in key order,
    and a missed key's database row arrives at its server finish."""
    fetched = {}
    if database is not None:
        for row, request in zip(database.key_rows(), database.payloads):
            if request.request_id in request_ids:
                fetched[request.request_id, row[0]] = row
    keys: Dict[int, list] = {request_id: [] for request_id in request_ids}
    for server, log in enumerate(servers):
        jobs = log.key_rows()
        first = 0
        for (ahead, size), request in zip(log.batches, log.payloads):
            request_id = request.request_id
            rows = keys.get(request_id)
            if rows is not None:
                out = (request.born, request.born + delay)
                for i, served in enumerate(jobs[first : first + size]):
                    row = fetched.get((request_id, served[2]))
                    left = served[2] if row is None else row[2]
                    name = _key_name(request, server, i, n_keys)
                    rows.append((name, server, out, ahead + i, row is None,
                                 served, row, (left, left + delay), left + delay))
            first += size
    return keys


class CacheBackend(Protocol):
    """Decides whether a key hits; lets the real cache substrate plug in.

    ``lookup`` runs once per served key, in the order keys complete
    service, ``(finish, run seq, index)``: a policy-free key's lookup is
    made by the simulator's pre-event hook before the first event after
    its finish, or at its own run's event.
    """

    def lookup(self, server_index: int, key: str) -> bool:
        """Return True on hit. Implementations may mutate cache state."""


@dataclasses.dataclass
class _RequestState:
    request_id: int
    born: float
    pending: int
    #: Keys routed to each server, by server index.
    counts: list
    max_server: float = 0.0
    max_database: float = 0.0
    max_network: float = 0.0
    #: Queue-wait components of the keys attaining the stage maxima —
    #: the wait/service split the attribution layer reports. Tracked
    #: alongside the maxima (no extra RNG, no extra events).
    server_wait: float = 0.0
    database_wait: float = 0.0


def _key_name(
    request: _RequestState, server_index: int, index: int, n_keys: int
) -> str:
    """Name of key ``index`` of the batch ``request`` sends to server
    ``server_index``: key ``i`` in launch order of request ``R`` is
    ``rRk{R*N + i}``, and a request launches its batches in server
    order."""
    request_id = request.request_id
    position = sum(request.counts[:server_index]) + index
    return f"r{request_id}k{request_id * n_keys + position}"


@dataclasses.dataclass
class _KeyState:
    """Policy bookkeeping for one *logical* key.

    A policy can spawn several attempts (hedges, retries) for the same
    key; the key resolves when its first surviving attempt returns.
    """

    request: _RequestState
    key_name: Optional[str]
    attempts: List["_KeyContext"] = dataclasses.field(default_factory=list)
    done: bool = False
    retries_used: int = 0
    current_timeout: float = 0.0
    hedge_timer: Optional[EventHandle] = None
    timeout_timer: Optional[EventHandle] = None


@dataclasses.dataclass
class _KeyContext:
    """One policy attempt, which its key's state machine reads per key.
    Keys without a policy have no context; their batch shares its
    request as the payload the server hands back."""

    request: _RequestState
    key_name: Optional[str]
    server_index: int
    state: _KeyState
    #: The client gave up on this attempt: whatever it returns is spent
    #: load, recorded nowhere.
    cancelled: bool = False
    #: Read by the queue holding the attempt: cancelled while queued
    #: there, so it is dropped when it reaches the head.
    abandoned: bool = False
    #: Simulation time this attempt left the client (== request.born
    #: for primaries; later for hedges/retries). The gap is the policy
    #: overhead on the critical path when this attempt finishes last.
    launched: float = 0.0
    # Set as they happen (None until then): keys ahead at enqueue, the
    # server and database (arrival, start, finish) and hit flag while
    # the client still wants it, and when the value left its last stage
    # and reached the client. A policy's winner is accounted from these.
    depth: Optional[int] = None
    served: Optional[tuple] = None
    hit: Optional[bool] = None
    fetched: Optional[tuple] = None
    left: Optional[float] = None
    returned: Optional[float] = None


class MemcachedSystemSimulator:
    """End-to-end fork-join Memcached simulation.

    Parameters
    ----------
    cluster:
        Server count, shares and ``muS``.
    n_keys_per_request:
        N — keys generated per end-user request.
    request_rate:
        End-user requests per second. The induced per-server key rate is
        ``request_rate * N * p_j``.
    network_delay:
        One-way constant network latency per key.
    miss_ratio / database_rate:
        Bernoulli miss model feeding an M/M/1 database.
    cache_backend:
        Optional real cache (e.g. ``repro.memcached`` cluster adapter);
        when present, hits and misses come from actual cache state, in
        place of ``miss_ratio``, and its misses go to the database,
        which ``database_rate`` then requires.
    observability:
        Optional :class:`~repro.observability.Observability` bundle.
        When present, per-request span trees, per-stage/per-server
        histograms, and an event-loop profile are collected; when
        absent the hot path is identical to the uninstrumented one.
    faults:
        Optional :class:`~repro.faults.FaultSchedule` of time-windowed
        degradations (server slowdowns/pauses, database overloads,
        share shifts). ``None`` or an empty schedule is the fault-free
        system, bit-identical to earlier releases for a given seed.
    policy:
        Optional :class:`~repro.policies.RequestPolicy`: per-key
        hedging and/or timeout-retry with cancel-on-first-winner.
        Policy decisions draw from their own tagged RNG stream, so
        ``policy=None`` runs are unaffected.
    """

    def __init__(
        self,
        cluster: ClusterModel,
        *,
        n_keys_per_request: int,
        request_rate: float,
        network_delay: float = 0.0,
        miss_ratio: float = 0.0,
        database_rate: Optional[float] = None,
        cache_backend: Optional[CacheBackend] = None,
        seed: Optional[int] = None,
        observability: Optional[Observability] = None,
        faults: Optional[FaultSchedule] = None,
        policy: Optional[RequestPolicy] = None,
    ) -> None:
        if n_keys_per_request < 1:
            raise ValidationError(
                f"n_keys_per_request must be >= 1, got {n_keys_per_request}"
            )
        if request_rate <= 0:
            raise ValidationError(f"request_rate must be > 0, got {request_rate}")
        if database_rate is None and (miss_ratio > 0.0 or cache_backend is not None):
            raise ValidationError(
                "database_rate is required when miss_ratio > 0 or with a cache_backend"
            )
        if cache_backend is not None and miss_ratio > 0.0:
            raise ValidationError(
                "miss_ratio must be 0 with a cache_backend, which decides the misses"
            )
        if faults is not None and faults.is_empty:
            faults = None  # an empty schedule is the fault-free system
        if faults is not None:
            faults.validate_for(cluster.n_servers)
        self._faults = faults
        self._policy = policy
        self._cluster = cluster
        self._n_keys = int(n_keys_per_request)
        self._request_rate = float(request_rate)
        self._network_delay = float(network_delay)

        self.observability = observability
        self._tracer = observability.tracer if observability is not None else None
        registry = observability.registry if observability is not None else None
        self._registry = registry
        # Windowed telemetry: the builder hands out plain-list sinks the
        # queues append into natively; everything is bucketed at the end
        # of the run in one vectorized pass.
        self._timeline = (
            observability.timeline if observability is not None else None
        )
        self._attr = (
            observability.attribution if observability is not None else None
        )

        self.sim = Simulator(
            profiler=observability.profiler if observability is not None else None
        )
        master = make_rng(seed)
        (
            self._rng_requests,
            self._rng_routing,
            rng_network,
            rng_miss,
            rng_db,
            *server_rngs,
        ) = split_rng(master, 5 + cluster.n_servers)

        # Policy decisions (hedge/retry server picks) draw from a tagged
        # child stream so attaching a policy never perturbs the five
        # split streams above — policy-free runs stay bit-identical.
        self._rng_policy = (
            spawn_child(master, tag=_POLICY_RNG_TAG) if policy is not None else None
        )

        def fault_hooks(j: int) -> dict:
            """Per-server fault callbacks, only when the schedule needs them."""
            hooks: dict = {}
            if faults is not None and faults.has_server_slowdowns:
                hooks["rate_factor"] = lambda t, j=j: faults.server_rate_factor(j, t)
            if faults is not None and faults.has_server_pauses:
                hooks["pause_until"] = lambda t, j=j: faults.server_pause_end(j, t)
            return hooks

        # Observed queues log plain rows; run() derives the registry's
        # per-queue collectors, the timeline's stage series and the
        # tracer's key spans from them. Keyed by registry name.
        self._queue_logs: Dict[str, QueueLog] = {}

        def queue_log(name: str) -> Optional[QueueLog]:
            if registry is None and self._timeline is None and self._tracer is None:
                return None
            log = self._queue_logs[name] = QueueLog()
            return log

        self._network = NetworkSim.constant(self.sim, self._network_delay)
        self._servers = [
            ServerSim.exponential(
                self.sim,
                cluster.service_rate,
                server_rngs[j],
                name=f"server-{j}",
                on_complete=self._on_server_complete,
                log=queue_log(f"server-{j}"),
                **fault_hooks(j),
            )
            for j in range(cluster.n_servers)
        ]
        needs_db = cache_backend is not None or miss_ratio > 0.0
        self._database = (
            DatabaseSim(
                self.sim,
                database_rate,
                rng_db,
                on_complete=self._on_database_complete,
                rate_factor=(
                    faults.database_rate_factor
                    if faults is not None and faults.has_database_overloads
                    else None
                ),
                log=queue_log("database"),
            )
            if needs_db
            else None
        )
        # A policy attempt's name exists for the cache backend's lookups
        # and the tracer's key spans; the Bernoulli miss model reads
        # neither. A policy-free key is named from its run (_miss_at).
        self._named_keys = cache_backend is not None or self._tracer is not None
        self._cache: Optional[CacheBackend] = cache_backend
        # Every policy attempt in launch order, for the tracer's key spans.
        self._traced_contexts: Optional[List[_KeyContext]] = (
            [] if self._tracer is not None and policy is not None else None
        )
        # The served key of rank k (its _keys_processed count) misses
        # when the k-th uniform of the miss stream is below r. The stream
        # is drawn a window at a time, in refill_sizes; the miss cursor
        # holds the miss ranks of the drawn window, ending with the
        # window's end; _next_miss is the next one due. A cache backend
        # decides each key by its lookup, so the cursor is due at every
        # rank (see _miss_at).
        if not 0.0 <= miss_ratio <= 1.0:
            raise ValidationError(f"miss_ratio must be in [0, 1], got {miss_ratio}")
        self._miss_ratio = float(miss_ratio)
        self._rng_miss = rng_miss
        self._miss_sizes = refill_sizes()
        self._miss_ranks: List[int] = [0]
        self._miss_index = 0
        self._next_miss = 0
        # Without a request policy a server key has no context: the
        # servers hand their runs to this simulator, which accounts the
        # keys due before each event (_account_runs). The runs with keys
        # left to account, in the order of their events' seq; the
        # accounted keys' sojourn segments, flat and in accounting order
        # (see _in_completion_order), and their count.
        self._runs: List[ServerRun] = []
        self._run_keys: list = []
        self._run_key_count = 0
        self._round_trip = self._network_delay + self._network_delay
        if policy is None:
            for server in self._servers:
                server._on_run_start = self._runs.append
                server._on_run_end = self._end_run
            self.sim._before_event = self._account_runs
        self._shares = np.asarray(cluster.shares, dtype=float)
        # Routing draws are windowed when the shares are constant over
        # the run; share-shift faults need the per-instant shares, so
        # they keep the scalar multinomial call (same stream either way).
        if faults is None or not faults.has_share_shifts:
            self._routing_window: Optional[RandomWindow] = RandomWindow.multinomial(
                self._rng_routing, self._n_keys, self._shares
            )
        else:
            self._routing_window = None
        # Request arrivals are pre-drawn a window of exponential gaps at
        # a time, in refill_sizes, and scheduled as one event *batch*
        # (one scheduler entry for the whole window); _borns holds the
        # window's arrival instants. The gap values consume the same
        # stream as the per-event scalar draws they replaced.
        self._arrival_sizes = refill_sizes()
        self._borns: List[float] = []
        self._next_request_id = 0
        self._misses = 0
        self._keys_processed = 0
        self._completed_requests = 0
        self._accepting = True
        # Completion targets of run(): _key_done clears the record at the
        # warmup boundary and stops the engine at the run target.
        self._run_target = 0
        self._warmup_target = 0
        # Engine key/miss counts at the warmup boundary.
        self._keys_offset = 0
        self._misses_offset = 0

        # The per-request record: one RECORD_FIELDS tuple per completed
        # request, converted to float64 every _FLUSH_CHUNK rows. It is
        # the only per-request write on the hot path; run() derives
        # every per-request view from it.
        self._rows: List[tuple] = []
        self._chunks: List[np.ndarray] = []
        # Per-key server sojourns, buffered as _run_keys segments and
        # flushed into per_key_server in completion order every
        # _PER_KEY_CHUNK keys (checked once per completed request) and at
        # run end.
        self._per_key_server = LatencyRecorder(max_samples=_PER_KEY_SAMPLES)

    # ------------------------------------------------------------------
    # Workload drive.
    # ------------------------------------------------------------------

    def induced_server_workload(self, server_index: int) -> WorkloadPattern:
        """The per-server key-arrival pattern this system induces.

        Requests are Poisson and each sends ``Binomial(N, p_j)`` keys to
        server ``j`` *simultaneously* — so the per-server stream is a
        compound-Poisson batch process. The matched model concurrency is
        derived from the mean batch size ``E[X] = N p_j / (1 - (1-p_j)^N)``
        via ``q = 1 - 1/E[X]``.
        """
        share = self._cluster.shares[server_index]
        p_any = 1.0 - (1.0 - share) ** self._n_keys
        mean_batch = self._n_keys * share / p_any
        q = max(0.0, 1.0 - 1.0 / mean_batch)
        rate = self._request_rate * self._n_keys * share
        return WorkloadPattern(rate=rate, xi=0.0, q=q)

    def _schedule_request_window(self, born: float) -> None:
        """Pre-draw the window of arrivals after the one at ``born`` and
        schedule their spawns as one batch.

        The vectorized exponential draw consumes the request stream
        exactly like the per-event scalar draws it replaced, and the
        arrival instants accumulate with the same float additions
        (``t += gap``), so the arrival sequence is bit-identical. Without
        a request policy a spawn fires when the request's keys reach
        their servers, at ``born + d``: the float that
        ``Simulator.schedule(d, ...)`` computes at ``born``. The whole
        window costs one scheduler entry; its last spawn draws the next.
        """
        gaps = self._rng_requests.exponential(
            1.0 / self._request_rate, next(self._arrival_sizes)
        ).tolist()
        borns = self._borns = list(islice(accumulate(gaps, initial=born), 1, None))
        if self._policy is None:
            delay = self._network_delay
            self.sim.schedule_batch([t + delay for t in borns], self._spawn_request)
        else:
            self.sim.schedule_batch(borns, self._spawn_request)

    def _spawn_request(self, index: int) -> None:
        """The request of window position ``index`` arrives: without a
        request policy, its whole fan-out, one network delay after it
        was born; with one, its launch, at its birth."""
        if self._accepting:
            borns = self._borns
            born = borns[index]
            if self._policy is None:
                self._fan_out(born)
            else:
                self._launch_request(born)
            if index + 1 == len(borns):
                self._schedule_request_window(born)

    def _effective_shares(self, now: float) -> np.ndarray:
        """Routing shares at ``now`` (fault share shifts override)."""
        if self._faults is not None and self._faults.has_share_shifts:
            shifted = self._faults.shares_at(now)
            if shifted is not None:
                return np.asarray(shifted, dtype=float)
        return self._shares

    def _new_request(self, born: float) -> _RequestState:
        """The next request, born at ``born``, with its keys' count per
        server drawn from the routing shares at ``born``."""
        routing_window = self._routing_window
        if routing_window is not None:
            counts = routing_window.get()
        else:
            shares = self._effective_shares(born)
            counts = self._rng_routing.multinomial(self._n_keys, shares).tolist()
        request = _RequestState(self._next_request_id, born, self._n_keys, counts)
        self._next_request_id += 1
        return request

    def _fan_out(self, born: float) -> None:
        """A policy-free request's arrival and delivery in one event, with
        the clock at ``born + d``: each server it uses gets its batch, in
        server order, as one network hop per batch would deliver them.
        The keys share the request as their payload."""
        request = self._new_request(born)
        servers = self._servers
        now = self.sim.now
        for server_index, count in enumerate(request.counts):
            if count:
                servers[server_index].offer_batch(now, count, context=request)

    def _launch_request(self, born: float) -> None:
        """A request with a policy leaves the client: each key gets its
        own state machine, and keys bound for the same server still
        travel as one batch (the policy-free arrival structure)."""
        request = self._new_request(born)
        armed: List[_KeyState] = []
        for server_index, count in enumerate(request.counts):
            if count == 0:
                continue
            contexts = []
            for name in self._key_names(request, server_index, count):
                state = _KeyState(request=request, key_name=name)
                context = _KeyContext(
                    request=request,
                    key_name=state.key_name,
                    server_index=server_index,
                    state=state,
                    launched=request.born,
                )
                state.attempts.append(context)
                contexts.append(context)
                armed.append(state)
            self._dispatch_batch(server_index, contexts)
        for state in armed:
            self._arm_timers(state)

    def _key_names(self, request: _RequestState, server_index: int, count: int) -> list:
        """Names of the ``count`` keys ``request`` sends to server
        ``server_index``, or ``None`` each when neither a cache backend
        nor the tracer reads them."""
        if not self._named_keys:
            return [None] * count
        return [_key_name(request, server_index, i, self._n_keys) for i in range(count)]

    # ------------------------------------------------------------------
    # Policy machinery (hedging, timeout/retry, cancellation).
    # ------------------------------------------------------------------

    def _arm_timers(self, state: _KeyState) -> None:
        policy = self._policy
        if policy.hedge_delay is not None and state.hedge_timer is None:
            state.hedge_timer = self.sim.schedule(
                policy.hedge_delay, lambda: self._fire_hedge(state)
            )
        if policy.timeout is not None and state.timeout_timer is None:
            state.current_timeout = policy.timeout
            state.timeout_timer = self.sim.schedule(
                policy.timeout, lambda: self._fire_timeout(state)
            )

    def _cancel_timers(self, state: _KeyState) -> None:
        if state.hedge_timer is not None:
            state.hedge_timer.cancel()
            state.hedge_timer = None
        if state.timeout_timer is not None:
            state.timeout_timer.cancel()
            state.timeout_timer = None

    def _pick_server(self, exclude: Optional[int] = None) -> int:
        """Draw a server from the routing shares (policy stream).

        ``exclude`` removes the primary attempt's server for hedges — a
        duplicate on the same queue would wait behind its own original.
        """
        shares = np.array(self._effective_shares(self.sim.now), dtype=float)
        if exclude is not None and shares.size > 1:
            shares[exclude] = 0.0
        total = shares.sum()
        if total <= 0.0 or shares.size == 1:
            return exclude if exclude is not None else 0
        return int(self._rng_policy.choice(shares.size, p=shares / total))

    def _launch_attempt(self, state: _KeyState, server_index: int) -> None:
        name = state.key_name
        context = _KeyContext(
            request=state.request,
            key_name=None if name is None else f"{name}a{len(state.attempts)}",
            server_index=server_index,
            state=state,
            launched=self.sim.now,
        )
        state.attempts.append(context)
        self._dispatch_batch(server_index, [context])

    def _fire_hedge(self, state: _KeyState) -> None:
        state.hedge_timer = None
        if state.done:
            return
        primary = state.attempts[0].server_index
        self._launch_attempt(state, self._pick_server(exclude=primary))

    def _fire_timeout(self, state: _KeyState) -> None:
        state.timeout_timer = None
        if state.done:
            return
        if state.retries_used >= self._policy.max_retries:
            # Retries exhausted: the outstanding attempts race untimed,
            # so the key (and its request) always completes.
            return
        for attempt in state.attempts:
            self._abandon_attempt(attempt)
        state.retries_used += 1
        state.current_timeout *= self._policy.backoff
        self._launch_attempt(state, self._pick_server())
        state.timeout_timer = self.sim.schedule(
            state.current_timeout, lambda: self._fire_timeout(state)
        )

    def _abandon_attempt(self, context: _KeyContext) -> None:
        if context.cancelled:
            return
        context.cancelled = True
        context.abandoned = True

    def _dispatch_batch(self, server_index: int, contexts: List[_KeyContext]) -> None:
        """Send policy attempts to one server as one batch: they left the
        client together, so they arrive together, one hop later. The hop
        is an event of its own, since the attempts' timers may fire
        while they are on the wire."""
        self._network.send(partial(self._offer, server_index, contexts))
        if self._traced_contexts is not None:
            self._traced_contexts.extend(contexts)

    def _offer(self, server_index: int, contexts: List[_KeyContext]) -> None:
        """A batch of policy attempts reaches its server now. Earlier
        batch members count as ahead of later ones. An attempt cancelled
        on the wire still reaches the server, which cannot know, and
        takes service; only one cancelled while queued is dropped at the
        head."""
        server = self._servers[server_index]
        ahead = server.depth
        for position, context in enumerate(contexts):
            context.depth = ahead + position
            context.abandoned = False
        server.offer_batch(self.sim.now, len(contexts), contexts=contexts)

    # ------------------------------------------------------------------
    # Server runs: keys accounted in bulk, misses and last keys per key.
    # ------------------------------------------------------------------

    def _account_runs(self, time: float, seq: int) -> bool:
        """The engine's pre-event hook: account every run key that
        completes before the event at ``(time, seq)``.

        A run key completes at ``(finish, run.seq, index)``. No run
        starts between two events, so the keys due are counted with one
        bisect per run. They are merged in that order only when the miss
        cursor falls among them; a missed key is not accounted here but
        becomes an event at its finish, ranked at its run's seq, and the
        hook returns True so that it fires before ``(time, seq)``.
        """
        runs = self._runs
        if not runs:
            return False
        total = 0
        for run in runs:
            times = run.times
            done = run.done
            finish = times[done]
            if finish < time or (finish == time and run.seq < seq):
                bisect = bisect_right if run.seq < seq else bisect_left
                due = bisect(times, time, done + 1, run.last)
                run.due = due
                total += due - done
            else:
                run.due = done
        if not total:
            return False
        rank = self._keys_processed
        if self._next_miss >= rank + total:
            self._keys_processed = rank + total
            self._account_due(total)
            return False
        return self._account_to_miss(total)

    def _account_to_miss(self, total: int) -> bool:
        """The miss cursor falls among the ``total`` keys due: walk them
        in completion order up to the first miss."""
        runs = {}
        keys: List[tuple] = []
        for run in self._runs:
            if run.due > run.done:
                runs[run.seq] = run
                keys += zip(
                    run.times[run.done : run.due], repeat(run.seq), range(run.done, run.due)
                )
        keys.sort()
        rank = self._keys_processed
        while self._next_miss < rank + total:
            position = self._next_miss - rank
            finish, seq, index = keys[position]
            if not self._miss_at(self._next_miss, runs[seq], index):
                continue  # a window's end or a cache hit: the cursor moved
            for run in runs.values():
                run.due = run.done
            for _, key_seq, key_index in keys[:position]:
                runs[key_seq].due = key_index + 1
            self._keys_processed = rank + position
            self._account_due(position)
            run = runs[seq]
            self.sim._schedule_ranked(finish, seq, partial(self._miss_key, run))
            return True
        self._keys_processed = rank + total
        self._account_due(total)
        return False

    def _account_due(self, count: int) -> None:
        """Account each run's keys ``done..due-1`` (``count`` in all),
        none of them a miss or its run's last key.

        Such a key never completes its request, whose batch's last key
        is still in service. In a run, sojourns grow with the index, so
        the ">=" server maximum reads only a run's last key due, and
        runs go in seq order: keys of one request that finish at the
        same instant on two servers tie as one at a time would.
        """
        round_trip = self._round_trip
        segments = self._run_keys
        finished = False
        for run in self._runs:
            due = run.due
            done = run.done
            if due == done:
                continue
            times = run.times
            request = run.payload
            arrival = run.arrival
            sojourn = times[due - 1] - arrival
            if sojourn >= request.max_server:
                request.max_server = sojourn
                request.server_wait = (times[due - 2] if due > 1 else run.start) - arrival
            if round_trip > request.max_network:
                request.max_network = round_trip
            request.pending -= due - done
            segments += (times, done, due, arrival)
            run.done = due
            finished = finished or due == run.last
        self._run_key_count += count
        if finished:
            self._runs[:] = [run for run in self._runs if run.done < run.last]

    def _miss_key(self, run: ServerRun) -> None:
        """A run's key that misses, at its finish: the cursor moved when
        the key was found."""
        index = run.done
        run.done = index + 1
        if run.done == run.last:
            self._runs.remove(run)
        self._serve_run_key(run, index, missed=True)

    def _end_run(self, run: ServerRun) -> None:
        """A run's last finish, after its server folded the run."""
        last = run.last
        if run.done < last:
            # Keys that finished at the last instant itself (a service
            # time below the clock's resolution) rank before the last
            # key at this same (time, seq).
            self._runs.remove(run)
            for index in range(run.done, last):
                run.done = index + 1
                self._serve_run_key(run, index)
        self._serve_run_key(run, last)

    def _serve_run_key(self, run: ServerRun, index: int, missed: bool = False) -> None:
        """One run key's whole path, with the clock at its finish. ">="
        keeps the same float as max() while carrying the wait split of
        the max-attaining key for attribution."""
        request = run.payload
        times = run.times
        finish = times[index]
        arrival = run.arrival
        sojourn = finish - arrival
        if sojourn >= request.max_server:
            request.max_server = sojourn
            request.server_wait = (times[index - 1] if index else run.start) - arrival
        self._run_keys += (times, index, index + 1, arrival)
        self._run_key_count += 1
        rank = self._keys_processed
        self._keys_processed = rank + 1
        if missed or (rank == self._next_miss and self._miss_at(rank, run, index)):
            self._misses += 1
            if self._database is not None:
                self._database.offer_key(finish, context=request)
                return
        self._return_hop(request)

    def _flush_run_keys(self) -> None:
        """Move the buffered per-key sojourns into ``per_key_server``."""
        sojourns = _in_completion_order(self._run_keys)
        self._run_keys.clear()
        self._run_key_count = 0
        _flush_sojourns(self._per_key_server, sojourns, self._registry)

    def _on_server_complete(
        self, context: _KeyContext, arrival: float, start: float, finish: float
    ) -> None:
        """A policy attempt leaves its server."""
        if context.cancelled:
            # A cancelled attempt that was already in service: the
            # capacity is spent, but it contributes nothing further.
            return
        context.served = (arrival, start, finish)
        self._run_keys += ((finish,), 0, 1, arrival)
        self._run_key_count += 1
        rank = self._keys_processed
        self._keys_processed = rank + 1
        if self._cache is None:
            hit = rank != self._next_miss or not self._miss_at(rank)
        else:
            hit = bool(self._cache.lookup(context.server_index, context.key_name))
        context.hit = hit
        if not hit:
            self._misses += 1
            if self._database is not None:
                self._database.offer_key(finish, context=context)
                return
        self._finish_key(context)

    def _miss_at(
        self, rank: int, run: Optional[ServerRun] = None, index: int = 0
    ) -> bool:
        """Whether the served key of ``rank``, key ``index`` of ``run``,
        misses, where ``rank`` is the cursor's ``_next_miss``: a miss
        rank, or the end of the drawn window.

        At the window's end the next window of uniforms is drawn, one
        per rank, and its miss ranks (``u < r``) are found in one pass.
        A window is drawn only once a key reaches it, so a run draws
        exactly the windows its keys cover, however rare the misses.

        With a cache backend every rank is due: the cache looks the key
        up under its name (see ``_key_name``), and the cursor moves to
        the next rank.
        """
        cache = self._cache
        if cache is not None:
            self._next_miss = rank + 1
            server_index = self._servers.index(run.server)
            name = _key_name(run.payload, server_index, run.first + index, self._n_keys)
            return not cache.lookup(server_index, name)
        ranks = self._miss_ranks
        cursor = self._miss_index
        if cursor == len(ranks) - 1:  # at the window's end
            size = next(self._miss_sizes)
            uniforms = self._rng_miss.random(size)
            ranks = (np.flatnonzero(uniforms < self._miss_ratio) + rank).tolist()
            ranks.append(rank + size)
            self._miss_ranks = ranks
            cursor = 0
            if ranks[0] != rank:
                self._miss_index = 0
                self._next_miss = ranks[0]
                return False
        self._miss_index = cursor + 1
        self._next_miss = ranks[cursor + 1]
        return True

    def _on_database_complete(
        self, context: object, arrival: float, start: float, finish: float
    ) -> None:
        """A missed key's value leaves the database: a policy-free key,
        whose context is its request, or a policy attempt."""
        if context.__class__ is _RequestState:
            sojourn = finish - arrival
            if sojourn >= context.max_database:
                context.max_database = sojourn
                context.database_wait = start - arrival
            self._return_hop(context)
        elif not context.cancelled:
            context.fetched = (arrival, start, finish)
            self._finish_key(context)

    def _finish_key(self, context: _KeyContext) -> None:
        """A policy attempt leaves its last stage for the client. The
        return hop is an event of its own, since timers and
        cancel-on-winner act on in-flight keys."""
        context.left = self.sim.now
        self._network.send(partial(self._key_done, context))

    def _return_hop(self, request: _RequestState) -> None:
        """A policy-free key's value leaves for the client.

        The network is a constant delay, which keeps FIFO order: the
        key's return is accounted now, and only the request's last key
        schedules an event — the request's completion, at the instant
        its value arrives. Both legs take that one delay.
        """
        delay = self._network_delay
        network = delay + delay
        if network > request.max_network:
            request.max_network = network
        request.pending -= 1
        if request.pending == 0:
            self.sim.schedule(
                delay, partial(self._complete_request, request, request.born)
            )
        elif request.pending < 0:  # pragma: no cover - defensive
            raise SimulationError("request completed more keys than it has")

    def _key_done(self, context: _KeyContext) -> None:
        """A policy attempt's value arrived back at the client."""
        request = context.request
        state = context.state
        context.returned = self.sim.now
        if context.cancelled or state.done:
            # A losing attempt arriving after the key resolved (or after
            # its timeout): spent load, nothing to record.
            return
        state.done = True
        self._cancel_timers(state)
        if self._policy.cancel_on_winner:
            for attempt in state.attempts:
                if attempt is not context:
                    self._abandon_attempt(attempt)
        # Only the winning attempt's stage times shape the request's
        # fork-join maxima — exactly what the client observed.
        arrival, start, finish = context.served
        sojourn = finish - arrival
        if sojourn >= request.max_server:
            request.max_server = sojourn
            request.server_wait = start - arrival
        if context.fetched is not None:
            arrival, start, finish = context.fetched
            sojourn = finish - arrival
            if sojourn >= request.max_database:
                request.max_database = sojourn
                request.database_wait = start - arrival
        delay = self._network_delay
        request.max_network = max(request.max_network, delay + delay)
        request.pending -= 1
        if request.pending < 0:  # pragma: no cover - defensive
            raise SimulationError("request completed more keys than it has")
        if request.pending == 0:
            self._complete_request(request, context.launched)

    def _complete_request(self, request: _RequestState, launched: float) -> None:
        """The request's last value arrived: append its record row, then
        apply the warmup reset and the stop."""
        now = self.sim.now
        rows = self._rows
        rows.append(
            (
                request.request_id,
                request.born,
                now,
                now - request.born,
                request.max_network,
                request.server_wait,
                request.max_server,
                request.database_wait,
                request.max_database,
                launched - request.born,
            )
        )
        if len(rows) >= _FLUSH_CHUNK:
            self._chunks.append(_row_matrix(rows, len(RECORD_FIELDS)))
            rows.clear()
        if self._run_key_count >= _PER_KEY_CHUNK:
            self._flush_run_keys()
        self._completed_requests += 1
        if self._completed_requests == self._warmup_target:
            self._reset_recorders()
        if self._completed_requests >= self._run_target:
            self._accepting = False
            self.sim.stop()

    # ------------------------------------------------------------------

    def run(self, *, n_requests: int, warmup_requests: int = 0) -> SystemResults:
        """Generate and complete ``warmup + n`` requests; report stats.

        Warmup requests run through the system but are dropped from the
        record (and the collectors reset) once warmup completes.
        """
        if n_requests < 1:
            raise ValidationError(f"n_requests must be >= 1, got {n_requests}")
        if warmup_requests < 0:
            raise ValidationError(
                f"warmup_requests must be >= 0, got {warmup_requests}"
            )
        self._warmup_target = warmup_requests
        self._run_target = n_requests + warmup_requests
        self._schedule_request_window(self.sim.now)
        try:
            self.sim.run()
        finally:
            self._release()
        # Runs still in service at the stop: their keys accounted so far.
        for server in self._servers:
            server.settle()
        if self._completed_requests < self._run_target:
            raise SimulationError("event queue drained before completion")
        record = np.concatenate(
            self._chunks + [_row_matrix(self._rows, len(RECORD_FIELDS))]
        )
        column = dict(zip(RECORD_FIELDS, record.T))
        self._flush_run_keys()
        registry = self._registry
        if registry is not None:
            for name, field in _REQUEST_HISTOGRAMS:
                registry.histogram(name).record_many(column[field])
            for name, log in self._queue_logs.items():
                _fill_queue_metrics(registry, name, log)
            registry.counter("requests.completed").inc(record.shape[0])
            registry.counter("keys.processed").inc(
                self._keys_processed - self._keys_offset
            )
            registry.counter("keys.missed").inc(self._misses - self._misses_offset)
        meta = {"backend": "simulate"}
        timeline = None
        if self._timeline is not None:
            # Each stage's job columns are expanded from its log when the
            # timeline's stages are first read.
            timeline = Timeline.from_events(
                start=self._timeline.origin,
                end=self.sim.now,
                request_born=column["born"],
                request_completed=column["completed"],
                stages={
                    name.replace("-", "."): log.job_columns  # server-j -> server.j
                    for name, log in self._queue_logs.items()
                },
                spec=self._timeline.spec,
                meta=meta,
            )
        if self._tracer is not None:
            self._trace(column)
        attribution = None
        if self._attr is not None:
            self._attr.record_matrix(record)
            attribution = self._attr.build(meta=meta)
        return SystemResults(
            record=record,
            keys_processed=self._keys_processed,
            misses=self._misses,
            server_utilizations=[
                server.utilization_meter.utilization(self.sim.now)
                for server in self._servers
            ],
            per_key_server=self._per_key_server,
            observability=self.observability,
            timeline=timeline,
            attribution=attribution,
        )

    def _trace(self, column: Dict[str, np.ndarray]) -> None:
        """Hand the tracer one root per record row, in completion order,
        and the source of their key rows."""
        tracer = self._tracer
        fields = ("request_id", "born", "completed")
        for request_id, born, completed in zip(*(column[f].tolist() for f in fields)):
            root = tracer.start_request(
                "request", born, request_id=int(request_id), n_keys=self._n_keys
            )
            tracer.finish_request(root, completed)
        delay = self._network_delay
        if self._traced_contexts is None:
            logs = self._queue_logs
            servers = [logs[f"server-{j}"] for j in range(len(self._servers))]
            tracer.defer_keys(
                partial(_logged_keys, servers, logs.get("database"), self._n_keys, delay)
            )
            return
        # Only finished requests are traced; their key states hold no
        # timers, so the rows keep nothing of the engine.
        keys: Dict[int, list] = {}
        for c in self._traced_contexts:
            if c.request.pending == 0:
                out = (c.launched, c.launched + delay)
                back = None if c.left is None else (c.left, c.left + delay)
                keys.setdefault(c.request.request_id, []).append(
                    (c.key_name, c.server_index, out, c.depth, c.hit,
                     c.served, c.fetched, back, c.returned)
                )
        tracer.defer_keys(lambda request_ids: keys)

    def _release(self) -> None:
        """Break the run's reference cycles, so a finished simulator is
        freed by reference counting: the events still pending hold bound
        methods of this simulator (and, through policy timers, of its
        key states), the engine holds the pre-event hook, and every queue
        holds its completion callbacks."""
        self.sim.discard_pending()
        self.sim._before_event = None
        for server in self._servers:
            server.release()
        if self._database is not None:
            self._database.release()

    def _reset_recorders(self) -> None:
        """The warmup boundary: drop everything recorded so far."""
        self._rows.clear()
        self._chunks.clear()
        self._keys_offset = self._keys_processed
        self._misses_offset = self._misses
        self._per_key_server = LatencyRecorder(max_samples=_PER_KEY_SAMPLES)
        self._run_keys.clear()
        self._run_key_count = 0
        # The queue logs are marked, not cleared: the tracer reads the
        # keys a request in flight across the boundary logged before it.
        # A run in service is cut where its accounting stands first.
        for server in self._servers:
            server.settle()
        for log in self._queue_logs.values():
            log.mark()
        if self.observability is not None:
            self.observability.reset()
        if self._timeline is not None:
            # Post-warmup windows start at the warmup boundary, not t=0.
            self._timeline.origin = self.sim.now
