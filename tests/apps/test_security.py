"""Fronthaul guard tests (Section 8.1 security use case)."""

import pytest

from repro.apps.security import FronthaulGuardMiddlebox
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import Numerology, SymbolTime


@pytest.fixture
def guard(du_mac, ru_mac):
    return FronthaulGuardMiddlebox(allowed_sources=[du_mac, ru_mac])


def frame(src, dst, seq_id=0, slot=0, port=0):
    time = SymbolTime.from_absolute_slot(slot, Numerology(mu=1))
    return make_packet(
        src, dst,
        CPlaneMessage(direction=Direction.DOWNLINK, time=time,
                      sections=[CPlaneSection(0, 0, 106)]),
        seq_id=seq_id,
        eaxc=EAxCId(du_port=0, ru_port=port),
    )


class TestAllowList:
    def test_known_source_passes(self, guard, du_mac, ru_mac):
        result = guard.process(frame(du_mac, ru_mac))
        assert len(result.emissions) == 1
        assert guard.alerts == []

    def test_unknown_source_dropped(self, guard, ru_mac):
        attacker = MacAddress.from_int(0xBAD)
        result = guard.process(frame(attacker, ru_mac))
        assert result.emissions == []
        assert guard.alerts[0].reason == "unknown_source"

    def test_empty_allowlist_rejected(self):
        with pytest.raises(ValueError):
            FronthaulGuardMiddlebox(allowed_sources=[])


class TestSequenceChecks:
    def test_monotonic_sequence_passes(self, guard, du_mac, ru_mac):
        for seq in range(5):
            result = guard.process(frame(du_mac, ru_mac, seq_id=seq,
                                         slot=seq))
            assert result.emissions
        assert guard.alerts == []

    def test_replay_dropped(self, guard, du_mac, ru_mac):
        guard.process(frame(du_mac, ru_mac, seq_id=7, slot=0))
        result = guard.process(frame(du_mac, ru_mac, seq_id=7, slot=0))
        assert result.emissions == []
        assert guard.alerts[0].reason == "replayed_sequence"

    def test_regression_dropped(self, guard, du_mac, ru_mac):
        guard.process(frame(du_mac, ru_mac, seq_id=10, slot=0))
        result = guard.process(frame(du_mac, ru_mac, seq_id=5, slot=0))
        assert result.emissions == []
        assert guard.alerts[0].reason == "regressed_sequence"

    def test_wraparound_is_legitimate(self, guard, du_mac, ru_mac):
        guard.process(frame(du_mac, ru_mac, seq_id=255, slot=0))
        result = guard.process(frame(du_mac, ru_mac, seq_id=0, slot=0))
        assert result.emissions
        assert guard.alerts == []

    def test_flows_tracked_independently(self, guard, du_mac, ru_mac):
        guard.process(frame(du_mac, ru_mac, seq_id=9, port=0))
        # Same seq id on a different eAxC flow is fine.
        result = guard.process(frame(du_mac, ru_mac, seq_id=9, port=1))
        assert result.emissions
        assert guard.alerts == []


class TestTimingWindow:
    def test_stale_timestamp_dropped(self, guard, du_mac, ru_mac):
        guard.process(frame(du_mac, ru_mac, seq_id=0, slot=100))
        result = guard.process(frame(du_mac, ru_mac, seq_id=1, slot=50))
        assert result.emissions == []
        assert guard.alerts[0].reason == "timing_window"

    def test_small_skew_tolerated(self, guard, du_mac, ru_mac):
        guard.process(frame(du_mac, ru_mac, seq_id=0, slot=100))
        result = guard.process(frame(du_mac, ru_mac, seq_id=1, slot=104))
        assert result.emissions

    def test_attack_storm_all_dropped(self, guard, du_mac, ru_mac):
        """A replayed-capture flood is filtered packet by packet."""
        original = frame(du_mac, ru_mac, seq_id=3, slot=10)
        guard.process(original)
        for _ in range(20):
            replay = frame(du_mac, ru_mac, seq_id=3, slot=10)
            assert guard.process(replay).emissions == []
        assert len(guard.alerts) == 20
        assert guard.stats.dropped_packets == 20

    def test_telemetry_alerts(self, guard, du_mac, ru_mac):
        guard.process(frame(MacAddress.from_int(0xBAD), ru_mac))
        (alert,) = guard.alerts
        assert alert.reason == "unknown_source"
