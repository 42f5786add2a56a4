"""Flight recorder: ring bound, queries, JSONL and Chrome trace exports."""

import json

import pytest

from repro.obs import FlightRecorder, PacketSpan, SpanEvent, SpanKey


def span(seq=0, middlebox="das", stage=0, direction="UL",
         traffic_class="UL U-Plane", dropped=False, start_ns=1000):
    return PacketSpan(
        key=SpanKey(eaxc=3, frame=1, subframe=2, slot=0, symbol=4,
                    direction=direction, seq=seq),
        middlebox=middlebox,
        traffic_class=traffic_class,
        modeled_ns=150.0,
        wall_ns=900.0,
        start_ns=start_ns,
        events=(SpanEvent("A1.route", 50.0, "kernel"),),
        emitted=1,
        dropped=dropped,
        stage=stage,
    )


class TestRing:
    def test_bounded_with_eviction_count(self):
        recorder = FlightRecorder(capacity=3)
        for seq in range(5):
            recorder.record(span(seq=seq))
        assert len(recorder) == 3
        assert recorder.evicted == 2
        # The newest spans survive, oldest roll off.
        assert [s.key.seq for s in recorder.spans()] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_clear_resets_evictions(self):
        recorder = FlightRecorder(capacity=1)
        recorder.record(span(0))
        recorder.record(span(1))
        recorder.clear()
        assert len(recorder) == 0 and recorder.evicted == 0


class TestQueries:
    def test_find_by_coordinates(self):
        """A query is a comprehension over the retained spans."""
        recorder = FlightRecorder()
        recorder.record(span(seq=0, middlebox="das"))
        recorder.record(span(seq=1, middlebox="sharing", direction="DL",
                             traffic_class="DL C-Plane"))
        recorder.record(span(seq=2, middlebox="das", dropped=True))
        spans = recorder.spans()

        def seqs(keep):
            return [s.key.seq for s in spans if keep(s)]

        assert seqs(lambda s: s.middlebox == "das") == [0, 2]
        assert seqs(lambda s: s.key.direction == "DL") == [1]
        assert seqs(lambda s: s.traffic_class == "DL C-Plane") == [1]
        assert seqs(lambda s: s.dropped) == [2]
        in_slot = (1, 2, 0)
        assert seqs(
            lambda s: (s.key.frame, s.key.subframe, s.key.slot) == in_slot
        ) == [0, 1, 2]
        assert seqs(lambda s: s.middlebox == "das" and not s.dropped) == [0]


class TestExports:
    def test_jsonl_one_line_per_span(self):
        recorder = FlightRecorder()
        recorder.record(span(seq=0))
        recorder.record(span(seq=1))
        lines = recorder.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["seq"] == 0 and first["middlebox"] == "das"
        assert first["events"] == [
            {"kind": "A1.route", "cost_ns": 50.0, "location": "kernel"}
        ]

    def test_chrome_trace_structure(self):
        recorder = FlightRecorder()
        recorder.record(span(middlebox="das"))
        recorder.record(span(middlebox="sharing"))
        trace = json.loads(recorder.to_chrome_trace())
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert [m["args"]["name"] for m in meta] == ["das", "sharing"]
        assert len(slices) == 2
        # Timestamps and durations are microseconds.
        assert slices[0]["ts"] == 1.0 and slices[0]["dur"] == 0.9
        assert slices[0]["args"]["eaxc"] == 3
        assert slices[0]["args"]["actions"] == ["A1.route"]
