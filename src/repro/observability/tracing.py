"""Per-request span trees with bounded retention.

Answers the question the aggregate recorders cannot: *which key on
which server pushed this request past the 99th percentile*. Each
completed request leaves a tree of spans (request → key → network /
queue / service / database) stamped in simulated time, with attributes
such as the server index, hit/miss, and the queue depth seen at
enqueue. Two retention sets pick the roots kept: a ring buffer of the
most recent roots and a min-heap of the slowest-K requests ever
observed.

Span trees are a view: the event engine hands the tracer one root per
completed request when the run ends, and a retained root's key
subtrees are built from the engine's rows when first read. Retention
rests on those rows (one per key, which the metrics and timeline read
too), not on a live span tree per key.
"""

from __future__ import annotations

import collections
import gc
import heapq
import itertools
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..errors import ValidationError

#: One key (or policy attempt): ``(name, server, out, depth, hit,
#: served, fetched, back, end)``, with the network hops ``out``/``back``
#: as ``(start, end)``, the server and database stays ``served``/
#: ``fetched`` as ``(arrival, start, finish)``, and ``None`` for what it
#: never reached (``hit`` too when it was served after being cancelled).
KeyRow = tuple

#: Maps request ids to their keys' :data:`KeyRow` lists, in launch order.
KeySource = Callable[[Set[int]], Dict[int, List[KeyRow]]]


class Span:
    """One timed operation; spans nest into a tree."""

    __slots__ = ("name", "start", "end", "attributes", "children")

    def __init__(
        self,
        name: str,
        start: float,
        *,
        end: Optional[float] = None,
        **attributes: object,
    ) -> None:
        self.name = name
        self.start = float(start)
        self.end = float(end) if end is not None else None
        self.attributes: Dict[str, object] = dict(attributes)
        self.children: List["Span"] = []

    def child(
        self,
        name: str,
        start: float,
        *,
        end: Optional[float] = None,
        **attributes: object,
    ) -> "Span":
        """Create, attach, and return a child span."""
        span = Span(name, start, end=end, **attributes)
        self.children.append(span)
        return span

    def finish(self, end: float) -> None:
        if end < self.start:
            raise ValidationError(
                f"span {self.name!r} cannot end at {end} before start {self.start}"
            )
        self.end = float(end)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValidationError(f"span {self.name!r} has not finished")
        return self.end - self.start

    def walk(self) -> List["Span"]:
        """This span and all descendants, depth first."""
        out = [self]
        for child in self.children:
            out.extend(child.walk())
        return out

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Span":
        span = cls(
            str(payload["name"]),
            float(payload["start"]),
            end=payload.get("end"),
            **dict(payload.get("attributes", {})),
        )
        for child in payload.get("children", []):
            span.children.append(cls.from_dict(child))
        return span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        end = f"{self.end:.6g}" if self.end is not None else "?"
        return f"Span({self.name!r}, [{self.start:.6g}, {end}], {len(self.children)} children)"


def _key_span(root: Span, row: KeyRow) -> None:
    """Attach one :data:`KeyRow` to ``root`` as a key span."""
    name, server, out, depth, hit, served, fetched, back, end = row
    span = root.child("key", out[0], key=name, server=server)
    span.child("network.out", out[0], end=out[1])
    if depth is not None:
        span.attributes["queue_depth_at_enqueue"] = depth
    if hit is not None:
        span.attributes["hit"] = hit
        arrival, start, finish = served
        span.child("queue", arrival, end=start)
        span.child("service", start, end=finish)
    if fetched is not None:
        arrival, start, finish = fetched
        span.child("database", arrival, end=finish, wait=start - arrival)
    if back is not None:
        span.child("network.in", back[0], end=back[1])
    if end is not None:
        span.finish(end)


class Tracer:
    """Collects finished request roots under two retention policies.

    ``capacity`` bounds the ring buffer of recent requests;
    ``slowest_k`` bounds the all-time slowest set. Both are O(log K)
    per finished request; the rows a retained root's key subtrees are
    built from are held until it is read (see :meth:`defer_keys`).
    """

    def __init__(self, *, capacity: int = 1024, slowest_k: int = 10) -> None:
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        if slowest_k < 1:
            raise ValidationError(f"slowest_k must be >= 1, got {slowest_k}")
        self._capacity = capacity
        self._slowest_k = slowest_k
        self._recent: Deque[Span] = collections.deque(maxlen=capacity)
        # Min-heap of (duration, seq, span): the root is the *fastest*
        # of the retained slow set and is evicted first.
        self._slow: List[Tuple[float, int, Span]] = []
        self._seq = itertools.count()
        self._started = 0
        self._finished = 0
        # Retained roots whose key subtrees are still to be built, by
        # id, with the source of their key rows.
        self._unbuilt: Dict[int, Tuple[Span, KeySource]] = {}

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def slowest_k(self) -> int:
        return self._slowest_k

    @property
    def started(self) -> int:
        """Root spans handed out."""
        return self._started

    @property
    def finished(self) -> int:
        """Root spans completed (may exceed what is retained)."""
        return self._finished

    def start_request(self, name: str, start: float, **attributes: object) -> Span:
        """Open a new root span."""
        self._started += 1
        return Span(name, start, **attributes)

    def finish_request(self, span: Span, end: Optional[float] = None) -> None:
        """Close a root span and fold it into both retention sets."""
        if end is not None:
            span.finish(end)
        if not span.finished:
            raise ValidationError(f"root span {span.name!r} has no end time")
        self._finished += 1
        self._recent.append(span)
        entry = (span.duration, next(self._seq), span)
        if len(self._slow) < self._slowest_k:
            heapq.heappush(self._slow, entry)
        elif entry[0] > self._slow[0][0]:
            heapq.heapreplace(self._slow, entry)

    def defer_keys(self, source: KeySource) -> None:
        """Build the key subtrees of the retained roots that have none
        from ``source`` (given their ``request_id`` attributes) when
        first read. Roots no longer retained, and their sources, are
        dropped."""
        self._unbuilt = {
            id(span): self._unbuilt.get(id(span), (span, source))
            for span in itertools.chain(self._recent, (e[2] for e in self._slow))
            if not span.children
        }

    def _built(self, spans: List[Span]) -> List[Span]:
        """``spans``, each with its key subtrees.

        A first read builds many spans at once (about 150 k for 1024
        requests of 150 keys), none of them garbage. Cyclic GC would walk
        them again at every generation threshold, so it is paused while
        they are built and restored as it was afterwards.
        """
        pending: Dict[KeySource, List[Span]] = {}
        for span in spans:
            entry = self._unbuilt.pop(id(span), None)
            if entry is not None:
                pending.setdefault(entry[1], []).append(span)
        if not pending:
            return spans
        collecting = gc.isenabled()
        gc.disable()
        try:
            for source, roots in pending.items():
                keys = source({root.attributes["request_id"] for root in roots})
                for root in roots:
                    for row in keys[root.attributes["request_id"]]:
                        _key_span(root, row)
        finally:
            if collecting:
                gc.enable()
        return spans

    # ------------------------------------------------------------------

    def recent(self) -> List[Span]:
        """The ring buffer, oldest first."""
        return self._built(list(self._recent))

    def slowest(self, k: Optional[int] = None) -> List[Span]:
        """The retained slowest requests, slowest first."""
        ranked = sorted(self._slow, key=lambda entry: (-entry[0], entry[1]))
        spans = [span for _, _, span in ranked]
        if k is not None:
            spans = spans[:k]
        return self._built(spans)

    def reset(self) -> None:
        """Drop retained spans (counters restart too)."""
        self._recent.clear()
        self._slow.clear()
        self._unbuilt.clear()
        self._started = 0
        self._finished = 0
