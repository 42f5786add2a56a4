"""Flight recorder: ring bound, queries, JSONL and Chrome trace exports,
and the row ring pinned against the object recorder it replaced."""

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import ActionContext, ActionKind, PacketCache
from repro.obs import FlightRecorder, PacketSpan, SpanKey


def trace_events(*kinds):
    ctx = ActionContext(PacketCache())
    for kind in kinds:
        ctx.record(kind, 50.0)
    return ctx.events


def span(seq=0, middlebox="das", stage=0, direction="UL",
         traffic_class="UL U-Plane", dropped=False, start_ns=1000):
    """One recorded row, in the field order ``Middlebox._observe`` writes."""
    return (
        3, 1, 2, 0, 4, direction, seq,
        middlebox, traffic_class, 150.0, 900.0, start_ns,
        trace_events(ActionKind.ROUTE), 1, dropped, stage,
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


@dataclass
class ObjectRecorder:
    """The recorder the row ring replaced — a ring of built
    :class:`PacketSpan`s, exports included — kept here as the oracle."""

    capacity: int
    _spans: Deque[PacketSpan] = field(init=False, repr=False)
    evicted: int = field(init=False, default=0)
    _recorded: int = field(init=False, default=0)
    _drained: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._spans = deque(maxlen=self.capacity)

    def record(self, span: PacketSpan) -> None:
        if len(self._spans) == self.capacity:
            self.evicted += 1
        self._spans.append(span)
        self._recorded += 1

    def spans(self) -> List[PacketSpan]:
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self.evicted = 0
        self._recorded = 0
        self._drained = 0

    def drain(self):
        fresh = min(self._recorded - self._drained, len(self._spans))
        spans = list(self._spans)[-fresh:] if fresh else []
        dropped = (self._recorded - self._drained) - fresh
        self._drained = self._recorded
        return spans, dropped

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(span.as_dict(), sort_keys=True) for span in self._spans
        )

    def to_chrome_trace(self) -> str:
        selected = list(self._spans)
        tids = {
            name: index
            for index, name in enumerate(
                sorted({span.middlebox for span in selected})
            )
        }
        events = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": name},
            }
            for name, tid in sorted(tids.items(), key=lambda kv: kv[1])
        ]
        for span in selected:
            events.append(
                {
                    "name": f"{span.traffic_class} {span.key.direction}",
                    "cat": span.middlebox,
                    "ph": "X",
                    "pid": 0,
                    "tid": tids[span.middlebox],
                    "ts": span.start_ns / 1000.0,
                    "dur": max(span.wall_ns, 1.0) / 1000.0,
                    "args": {
                        **span.key.as_dict(),
                        "modeled_ns": span.modeled_ns,
                        "emitted": span.emitted,
                        "dropped": span.dropped,
                        "actions": [event.kind for event in span.events],
                    },
                }
            )
        return json.dumps({"traceEvents": events}, sort_keys=True)


def object_span(row, stamp=()) -> PacketSpan:
    """What ``Middlebox._observe`` built for a row before rows (and what
    the stream's stamping rebuilt from it)."""
    (eaxc, frame, subframe, slot, symbol, direction, seq, middlebox,
     traffic_class, modeled_ns, wall_ns, start_ns, events, emitted,
     dropped, stage) = row
    return PacketSpan(
        key=SpanKey(eaxc, frame, subframe, slot, symbol, direction, seq,
                    *stamp),
        middlebox=middlebox,
        traffic_class=traffic_class,
        modeled_ns=modeled_ns,
        wall_ns=wall_ns,
        start_ns=start_ns,
        events=tuple(events),
        emitted=emitted,
        dropped=dropped,
        stage=stage,
    )


rows = st.builds(
    lambda seq, middlebox, direction, wall, kinds, emitted, stage: (
        seq % 4096, seq % 1024, seq % 10, seq % 2, seq % 14, direction,
        seq % 256, middlebox,
        f"{direction} U-Plane", 50.0 * len(kinds), wall, seq * 1000,
        trace_events(*kinds), emitted, not emitted, stage,
    ),
    seq=st.integers(min_value=0, max_value=10_000),
    middlebox=st.sampled_from(["das", "sharing", "prb"]),
    direction=st.sampled_from(["DL", "UL"]),
    wall=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    kinds=st.lists(st.sampled_from(list(ActionKind)), max_size=3),
    emitted=st.integers(min_value=0, max_value=2),
    stage=st.integers(min_value=0, max_value=11),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), rows,
                  st.sampled_from([(), ("g1", 0), ("g2", 3)])),
        st.tuples(st.just("drain")),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


@given(capacity=st.integers(min_value=1, max_value=6), ops=operations)
@settings(max_examples=150, deadline=None)
def test_row_ring_matches_the_object_recorder(capacity, ops):
    """Record / drain / clear interleaved at small capacities: the row
    ring reads exactly like the object ring it replaced — spans, both
    exports, evictions and every drain's ``(spans, dropped)`` pair."""
    recorder = FlightRecorder(capacity=capacity)
    oracle = ObjectRecorder(capacity=capacity)
    for op in ops:
        if op[0] == "record":
            _, row, stamp = op
            recorder.record(row + stamp)
            oracle.record(object_span(row, stamp))
        elif op[0] == "drain":
            drained, dropped = recorder.drain()
            assert (
                [object_span(row[:16], row[16:]) for row in drained],
                dropped,
            ) == oracle.drain()
        else:
            recorder.clear()
            oracle.clear()
        assert recorder.spans() == oracle.spans()
        assert recorder.evicted == oracle.evicted
        assert recorder.to_jsonl() == oracle.to_jsonl()
        assert recorder.to_chrome_trace() == oracle.to_chrome_trace()
