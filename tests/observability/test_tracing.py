"""Tests for span trees and bounded-retention tracing."""

import gc

import pytest

from repro.errors import ValidationError
from repro.observability import Span, Tracer


class TestSpan:
    def test_nesting(self):
        root = Span("request", 0.0, request_id=1)
        key = root.child("key", 0.1, server=2)
        key.child("queue", 0.1, end=0.2)
        key.child("service", 0.2, end=0.3)
        key.finish(0.3)
        root.finish(0.4)
        assert [span.name for span in root.walk()] == [
            "request", "key", "queue", "service",
        ]
        assert root.duration == pytest.approx(0.4)
        assert key.children[0].duration == pytest.approx(0.1)
        assert root.attributes == {"request_id": 1}

    def test_finish_rejects_time_travel(self):
        span = Span("s", 1.0)
        with pytest.raises(ValidationError):
            span.finish(0.5)

    def test_duration_requires_finish(self):
        span = Span("s", 0.0)
        assert not span.finished
        with pytest.raises(ValidationError):
            _ = span.duration

    def test_dict_round_trip(self):
        root = Span("request", 0.0, request_id=7)
        child = root.child("key", 0.1, server=1, hit=True)
        child.finish(0.2)
        root.finish(0.3)
        clone = Span.from_dict(root.to_dict())
        assert clone.to_dict() == root.to_dict()
        assert clone.children[0].attributes == {"server": 1, "hit": True}


class TestTracerRetention:
    def test_finish_requires_end(self):
        tracer = Tracer()
        span = tracer.start_request("request", 0.0)
        with pytest.raises(ValidationError):
            tracer.finish_request(span)  # never finished, no end given

    def test_counts_all_even_beyond_capacity(self):
        tracer = Tracer(capacity=4, slowest_k=2)
        for i in range(10):
            span = tracer.start_request("request", float(i))
            tracer.finish_request(span, float(i) + 0.5)
        assert tracer.started == 10
        assert tracer.finished == 10

    def test_ring_buffer_keeps_most_recent(self):
        tracer = Tracer(capacity=3, slowest_k=1)
        for i in range(7):
            span = tracer.start_request("request", float(i), request_id=i)
            tracer.finish_request(span, float(i) + 0.1)
        recent = tracer.recent()
        assert len(recent) == 3
        assert [span.attributes["request_id"] for span in recent] == [4, 5, 6]

    def test_slowest_ordering(self):
        tracer = Tracer(capacity=100, slowest_k=3)
        durations = [0.5, 2.0, 0.1, 3.0, 1.0, 0.2]
        for i, duration in enumerate(durations):
            span = tracer.start_request("request", 0.0, request_id=i)
            tracer.finish_request(span, duration)
        slowest = tracer.slowest()
        assert [span.duration for span in slowest] == [3.0, 2.0, 1.0]
        assert [span.attributes["request_id"] for span in slowest] == [3, 1, 4]

    def test_slowest_k_truncation(self):
        tracer = Tracer(slowest_k=5)
        for i in range(20):
            span = tracer.start_request("request", 0.0)
            tracer.finish_request(span, float(i))
        assert len(tracer.slowest()) == 5
        assert [span.duration for span in tracer.slowest(2)] == [19.0, 18.0]

    def test_fast_requests_never_evict_slow_ones(self):
        tracer = Tracer(capacity=2, slowest_k=1)
        slow = tracer.start_request("request", 0.0)
        tracer.finish_request(slow, 100.0)
        for _ in range(50):
            fast = tracer.start_request("request", 0.0)
            tracer.finish_request(fast, 0.001)
        assert tracer.slowest()[0] is slow
        assert slow not in tracer.recent()  # the ring moved on

    def test_reset(self):
        tracer = Tracer()
        span = tracer.start_request("request", 0.0)
        tracer.finish_request(span, 1.0)
        tracer.reset()
        assert tracer.recent() == []
        assert tracer.slowest() == []
        assert tracer.started == 0
        assert tracer.finished == 0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValidationError):
            Tracer(capacity=0)
        with pytest.raises(ValidationError):
            Tracer(slowest_k=0)


class TestDeferredKeyBuild:
    """Key subtrees are built on first read, with cyclic GC paused while
    they are built and left as it was found."""

    @staticmethod
    def traced(source):
        tracer = Tracer(capacity=2, slowest_k=1)
        for i in range(2):
            span = tracer.start_request("request", 0.0, request_id=i)
            tracer.finish_request(span, 1.0)
        tracer.defer_keys(source)
        return tracer

    @staticmethod
    def rows(request_ids):
        return {
            request_id: [
                (f"r{request_id}k0", 0, (0.0, 0.1), 0, True, (0.1, 0.2, 0.3),
                 None, (0.3, 0.4), 0.4)
            ]
            for request_id in request_ids
        }

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_paused_while_building_and_restored(self, enabled):
        seen = []

        def source(request_ids):
            seen.append(gc.isenabled())
            return self.rows(request_ids)

        tracer = self.traced(source)
        assert gc.isenabled()
        if not enabled:
            gc.disable()
        try:
            roots = tracer.recent()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == [False]
        assert [len(root.children) for root in roots] == [1, 1]
        assert [child.name for child in roots[0].children[0].children] == [
            "network.out", "queue", "service", "network.in"
        ]

    def test_gc_restored_when_a_build_fails(self):
        def source(request_ids):
            raise RuntimeError("rows unavailable")

        tracer = self.traced(source)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="rows unavailable"):
            tracer.recent()
        assert gc.isenabled()
