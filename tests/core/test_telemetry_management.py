"""Telemetry bus and management interface tests."""

import pytest

from repro.core.management import ManagementInterface, ValidationError
from repro.core.telemetry import TelemetryBus


class TestTelemetryBus:
    def test_publish_and_latest(self):
        bus = TelemetryBus()
        bus.publish("util", 0.5, timestamp_ns=10)
        bus.publish("util", 0.7, timestamp_ns=20)
        assert bus.latest("util").payload == 0.7
        assert [r.payload for r in bus.history("util")] == [0.5, 0.7]

    def test_subscribe_callback(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe("util", lambda record: seen.append(record.payload))
        bus.publish("util", 1)
        bus.publish("other", 2)
        assert seen == [1]

    def test_latest_empty_raises(self):
        with pytest.raises(KeyError):
            TelemetryBus().latest("nothing")

    def test_history_bounded(self):
        bus = TelemetryBus(history_limit=10)
        for i in range(25):
            bus.publish("t", i)
        history = bus.history("t")
        assert len(history) == 10
        assert history[-1].payload == 24

    def test_topics_listing(self):
        bus = TelemetryBus()
        bus.publish("b", 1)
        bus.publish("a", 1)
        assert bus.topics() == ["a", "b"]

    def test_source_attribution(self):
        bus = TelemetryBus()
        bus.publish("t", 1, source="das-1")
        assert bus.latest("t").source == "das-1"

    def test_history_trims_oldest_first(self):
        bus = TelemetryBus(history_limit=3)
        for i in range(5):
            bus.publish("t", i)
        assert [r.payload for r in bus.history("t")] == [2, 3, 4]

    def test_history_limit_validated(self):
        with pytest.raises(ValueError):
            TelemetryBus(history_limit=0)

    def test_unsubscribe_stops_delivery(self):
        bus = TelemetryBus()
        seen = []
        callback = seen.append
        bus.subscribe("t", callback)
        bus.publish("t", 1)
        bus.unsubscribe("t", callback)
        bus.publish("t", 2)
        assert [r.payload for r in seen] == [1]

    def test_unsubscribe_unknown_callback_raises(self):
        bus = TelemetryBus()
        with pytest.raises(ValueError, match="not subscribed"):
            bus.unsubscribe("t", lambda record: None)

    def test_unsubscribe_removes_one_registration(self):
        bus = TelemetryBus()
        seen = []
        callback = seen.append
        bus.subscribe("t", callback)
        bus.subscribe("t", callback)
        bus.unsubscribe("t", callback)
        bus.publish("t", 1)
        assert len(seen) == 1


class TestManagementInterface:
    def test_declare_get_set(self):
        mgmt = ManagementInterface("box")
        mgmt.declare("threshold", 2)
        assert mgmt.get("threshold") == 2
        mgmt.set("threshold", 5)
        assert mgmt.get("threshold") == 5

    def test_unknown_key_raises(self):
        mgmt = ManagementInterface()
        with pytest.raises(KeyError):
            mgmt.get("nope")
        with pytest.raises(KeyError):
            mgmt.set("nope", 1)

    def test_validator_rejects(self):
        mgmt = ManagementInterface()
        mgmt.declare("threshold", 2, validator=lambda v: 0 <= v <= 15)
        with pytest.raises(ValidationError):
            mgmt.set("threshold", 99)
        assert mgmt.get("threshold") == 2

    def test_change_listener(self):
        mgmt = ManagementInterface()
        mgmt.declare("k", 1)
        changes = []
        mgmt.on_change(lambda key, value: changes.append((key, value)))
        mgmt.set("k", 2)
        assert changes == [("k", 2)]

    def test_keys_sorted(self):
        mgmt = ManagementInterface()
        mgmt.declare("b", 1)
        mgmt.declare("a", 1)
        assert mgmt.keys() == ["a", "b"]
