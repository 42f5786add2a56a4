"""Per-packet flight recorder: span rows in a bounded ring buffer.

Each packet that traverses an instrumented middlebox leaves one row of
scalars keyed by the fronthaul coordinates that identify the frame on
the wire — ``(eAxC, frame/subframe/slot/symbol, direction, seq)`` —
carrying the per-action event list (kind, modelled cost,
kernel/userspace location) plus the measured Python wall time.  Readers
see each row as a :class:`PacketSpan`, built when they read it.  The
ring buffer bounds memory on long runs: the recorder always holds the
most recent ``capacity`` rows, like a crash-survivable flight recorder
loop.

Exports: JSONL (one span per line, grep/jq-able) and the Chrome
``trace_event`` format, so a run can be dropped straight into
``chrome://tracing`` / Perfetto with one span per middlebox track.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Deque, Dict, List, Sequence, Tuple

from repro.fronthaul.timing import time_fields

#: Events (alerts, failovers, SLO edges, applied deltas) a holder keeps.
_EVENTS_KEPT = 256
#: Span rows a flight recorder keeps: each group's, and the stream fold's.
_SPANS_KEPT = 4096


def event_ring() -> Deque:
    """A ring of the newest :data:`_EVENTS_KEPT` events, so a noisy run
    keeps no record per event."""
    return deque(maxlen=_EVENTS_KEPT)


@dataclass(frozen=True, slots=True)
class SpanKey:
    """The wire identity of one fronthaul frame.

    ``group``/``shard`` locate where the span was *recorded* (coupling
    group name, worker shard index); they default to the unsharded
    single-process identity so instrumentation sites never need to know
    about sharding — the streaming fold stamps them once per payload.  The
    wire coordinates alone (every field before them) identify the frame.
    """

    eaxc: int
    frame: int
    subframe: int
    slot: int
    symbol: int
    direction: str  # "DL" / "UL"
    seq: int
    group: str = ""
    shard: int = -1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "eaxc": self.eaxc,
            "frame": self.frame,
            "subframe": self.subframe,
            "slot": self.slot,
            "symbol": self.symbol,
            "direction": self.direction,
            "seq": self.seq,
            "group": self.group,
            "shard": self.shard,
        }


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """One recorded action: kind, modelled cost, execution location.

    A shared, frozen value: :mod:`repro.core.actions` builds one per
    distinct action and every packet that records it holds that object.
    """

    kind: str
    cost_ns: float
    location: str


@dataclass(slots=True)
class PacketSpan:
    """One packet's traversal of one middlebox: the read-side view of a
    :class:`FlightRecorder` row."""

    key: SpanKey
    middlebox: str
    traffic_class: str
    modeled_ns: float
    wall_ns: float
    start_ns: int
    events: Tuple[SpanEvent, ...] = ()
    emitted: int = 0
    dropped: bool = False
    stage: int = 0  # position in the middlebox chain (0 = first)

    def as_dict(self) -> Dict[str, Any]:
        record = self.key.as_dict()
        record.update(
            {
                "middlebox": self.middlebox,
                "class": self.traffic_class,
                "stage": self.stage,
                "modeled_ns": round(self.modeled_ns, 3),
                "wall_ns": round(self.wall_ns, 3),
                "start_ns": self.start_ns,
                "emitted": self.emitted,
                "dropped": self.dropped,
                "events": [
                    {
                        "kind": event.kind,
                        "cost_ns": round(event.cost_ns, 3),
                        "location": event.location,
                    }
                    for event in self.events
                ],
            }
        )
        return record


@dataclass
class FlightRecorder:
    """Bounded ring of span rows.

    A row is the flat tuple one sampled packet records: ``(eaxc, time,
    direction, seq, middlebox, class, modeled_ns, wall_ns, start_ns,
    events, emitted, dropped, stage)``, where ``time`` is the header's
    int timestamp and ``events`` is the packet context's own list of
    shared :class:`SpanEvent` values.  Beside each row the ring holds its
    ``(group, shard)`` stamp: the one tuple a streamed payload carries,
    shared by all its rows, or ``()`` for a row recorded where it was
    taken.  :meth:`spans` and the exports build :class:`PacketSpan`
    views on read; nothing on the write path builds an object.

    ``capacity`` bounds memory: the ring keeps the newest rows and
    ``evicted`` counts how many rolled off.
    """

    #: :data:`_SPANS_KEPT`, read when the recorder is built.
    capacity: int = field(default_factory=lambda: _SPANS_KEPT)
    _rows: Deque[tuple] = field(init=False, repr=False)
    _stamps: Deque[tuple] = field(init=False, repr=False)
    evicted: int = field(init=False, default=0)
    _recorded: int = field(init=False, default=0)
    _drained: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        self._rows = deque(maxlen=self.capacity)
        self._stamps = deque(maxlen=self.capacity)

    def record(self, rows: Sequence[tuple], stamp: tuple = ()) -> None:
        """Append ``rows`` in order, each stamped ``stamp``; the oldest
        roll off past capacity."""
        count = len(rows)
        overflow = len(self._rows) + count - self.capacity
        if overflow > 0:
            self.evicted += overflow
        self._rows.extend(rows)
        self._stamps.extend(repeat(stamp, count))
        self._recorded += count

    def spans(self) -> List[PacketSpan]:
        """The retained rows as :class:`PacketSpan` views, oldest first."""
        return [
            PacketSpan(
                SpanKey(row[0], *time_fields(row[1]), *row[2:4], *stamp),
                *row[4:9],
                tuple(row[9]),
                *row[10:13],
            )
            for row, stamp in zip(self._rows, self._stamps)
        ]

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        self._rows.clear()
        self._stamps.clear()
        self.evicted = 0
        self._recorded = 0
        self._drained = 0

    def drain(self) -> Tuple[List[tuple], int]:
        """Rows recorded since the last drain, plus the dropped count.
        Rows ship as recorded: a stamp stays in the ring that holds it.

        The streaming telemetry plane calls this at every epoch boundary:
        the first element is every still-retained row recorded since the
        previous drain (oldest first), the second counts rows recorded in
        the interval that rolled off the ring before this drain could ship
        them — losses the consumer never saw.  Evicting a row that a
        previous drain already delivered is not a loss and is not counted.
        Never re-delivers a row.
        """
        fresh = min(self._recorded - self._drained, len(self._rows))
        rows = list(self._rows)[-fresh:] if fresh else []
        dropped = (self._recorded - self._drained) - fresh
        self._drained = self._recorded
        return rows, dropped

    # -- exports -------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest span first."""
        return "\n".join(
            json.dumps(span.as_dict(), sort_keys=True)
            for span in self.spans()
        )

    def to_chrome_trace(self) -> str:
        """Chrome ``trace_event`` JSON: one complete ("X") event per span.

        Tracks (tid) are middlebox names; timestamps are microseconds as
        the format requires.  Load via ``chrome://tracing`` or Perfetto.
        """
        selected = self.spans()
        tids = {
            name: index
            for index, name in enumerate(
                sorted({span.middlebox for span in selected})
            )
        }
        events: List[Dict[str, Any]] = [
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
