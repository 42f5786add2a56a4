"""A minimal discrete-event engine with nanosecond timestamps.

The slot-synchronous experiments drive DU/RU/middlebox interactions
directly; the engine exists for latency-sensitive scenarios (deadline
checks, chained-middlebox delays) and for tests that need out-of-order
packet arrival (e.g. a secondary RU's uplink arriving before the
primary's).

When an :class:`~repro.obs.Observability` handle is attached and
enabled, the engine exports queue-depth and event-lag series (how long
events sat in the queue in simulated time) to the metrics registry.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro import obs as obs_module
from repro.obs import Observability
from repro.obs.metrics import declare

_QUEUE_DEPTH = declare(
    "gauge", "engine_queue_depth", "pending events in the event engine"
)
_EVENTS = declare(
    "counter", "engine_events_total", "events executed by the engine"
)
_EVENT_LAG = declare(
    "histogram", "engine_event_lag_ns",
    "simulated time events waited between scheduling and execution",
)

#: One executed event of a shard's timeline: ``(time_ns, shard, seq,
#: label)``.  The tuple order IS the deterministic merge order — time
#: first, then shard id, then the shard-local FIFO sequence — so merging
#: timelines from any number of shards always yields the same interleaving
#: regardless of worker scheduling.
TimelineEntry = Tuple[float, str, int, str]


@dataclass(order=True)
class Event:
    time_ns: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    #: Engine time when the event was scheduled (for queue-lag metrics).
    created_ns: float = field(compare=False, default=0.0)


class EventEngine:
    """Priority-queue event loop; deterministic FIFO tie-breaking.

    ``shard`` names the execution shard this engine drives (empty for
    single-process runs).  With ``record_timeline`` on, every executed
    event leaves a :data:`TimelineEntry`; the per-shard timelines of a
    sharded run merge deterministically via :func:`merge_timelines`, so
    the scale-out runner can reconstruct one global event order from
    workers that never synchronized.
    """

    def __init__(
        self,
        obs: Optional[Observability] = None,
        shard: str = "",
        record_timeline: bool = False,
    ):
        self.obs = obs if obs is not None else obs_module.DEFAULT_OBSERVABILITY
        self.shard = shard
        self.record_timeline = record_timeline
        self.timeline: List[TimelineEntry] = []
        self._queue: List[Event] = []
        self._counter = itertools.count()
        self.now_ns: float = 0.0
        self.processed = 0

    def schedule(
        self, delay_ns: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` at ``now + delay_ns``."""
        if delay_ns < 0:
            raise ValueError("cannot schedule into the past")
        return self._push(self.now_ns + delay_ns, action, label)

    def schedule_at(
        self, time_ns: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        if time_ns < self.now_ns:
            raise ValueError("cannot schedule into the past")
        return self._push(time_ns, action, label)

    def _push(
        self, time_ns: float, action: Callable[[], None], label: str
    ) -> Event:
        event = Event(
            time_ns=time_ns,
            sequence=next(self._counter),
            action=action,
            label=label,
            created_ns=self.now_ns,
        )
        heapq.heappush(self._queue, event)
        if self.obs.enabled:
            self.obs.children(_QUEUE_DEPTH).set(len(self._queue))
        return event

    def run(self, until_ns: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Run until the queue drains, the horizon passes, or the event cap.

        Returns the number of events processed.
        """
        obs = self.obs
        processed = 0
        while self._queue and processed < max_events:
            if until_ns is not None and self._queue[0].time_ns > until_ns:
                break
            event = heapq.heappop(self._queue)
            self.now_ns = event.time_ns
            if obs.enabled:
                obs.children(_EVENTS).inc()
                obs.children(_EVENT_LAG).observe(
                    event.time_ns - event.created_ns
                )
                obs.children(_QUEUE_DEPTH).set(len(self._queue))
            if self.record_timeline:
                self.timeline.append(
                    (event.time_ns, self.shard, event.sequence, event.label)
                )
            event.action()
            processed += 1
        self.processed += processed
        if until_ns is not None and self.now_ns < until_ns and not self._queue:
            self.now_ns = until_ns
        return processed

    def pending(self) -> int:
        return len(self._queue)


def merge_timelines(
    timelines: Iterable[Iterable[TimelineEntry]],
) -> List[TimelineEntry]:
    """Deterministically merge per-shard event timelines.

    Entries sort by ``(time_ns, shard, seq)``: simulated time first, then
    shard id as the tie-break (so simultaneous events from different
    shards interleave by name, not by worker completion order), then the
    shard-local FIFO sequence.  The result is independent of how the run
    was partitioned — the property the sharded-equals-single-process
    check relies on.
    """
    merged: List[TimelineEntry] = []
    for timeline in timelines:
        merged.extend(tuple(entry) for entry in timeline)
    merged.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    return merged
