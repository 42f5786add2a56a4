"""Telemetry: the monitoring interface middleboxes expose.

RANBooster middleboxes "expose monitoring and management interfaces ... to
send telemetry data to applications" (Section 3.2).  The bus is a simple
in-process pub/sub with retained history, which the PRB monitoring
middlebox publishes its utilization bitvectors to, and which experiment
harnesses subscribe to.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List


@dataclass(frozen=True)
class TelemetryRecord:
    """One published sample: topic, logical timestamp, payload."""

    topic: str
    timestamp_ns: float
    payload: Any
    source: str = ""


class TelemetryBus:
    """In-process pub/sub with per-topic retained history.

    History is a bounded ``deque`` per topic, so publishing stays O(1)
    even once a long run saturates the retention limit (the old list
    implementation re-sliced the whole history on every publish past the
    limit).
    """

    def __init__(self, history_limit: int = 100_000):
        if history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        self._subscribers: Dict[str, List[Callable[[TelemetryRecord], None]]] = (
            defaultdict(list)
        )
        self._history_limit = history_limit
        self._history: Dict[str, Deque[TelemetryRecord]] = defaultdict(
            lambda: deque(maxlen=history_limit)
        )

    def publish(
        self, topic: str, payload: Any, timestamp_ns: float = 0.0, source: str = ""
    ) -> TelemetryRecord:
        record = TelemetryRecord(
            topic=topic, timestamp_ns=timestamp_ns, payload=payload, source=source
        )
        self._history[topic].append(record)
        for callback in self._subscribers[topic]:
            callback(record)
        return record

    def subscribe(
        self, topic: str, callback: Callable[[TelemetryRecord], None]
    ) -> None:
        self._subscribers[topic].append(callback)

    def unsubscribe(
        self, topic: str, callback: Callable[[TelemetryRecord], None]
    ) -> None:
        """Remove a previously registered callback.

        Experiment harnesses subscribe per run; without this they leaked
        callbacks (and their captured state) across runs on a shared bus.
        Raises ``ValueError`` if the callback is not subscribed.
        """
        try:
            self._subscribers[topic].remove(callback)
        except ValueError:
            raise ValueError(
                f"callback not subscribed to topic {topic!r}"
            ) from None

    def history(self, topic: str) -> List[TelemetryRecord]:
        return list(self._history[topic])

    def topics(self) -> List[str]:
        return sorted(self._history)
