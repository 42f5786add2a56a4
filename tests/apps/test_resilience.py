"""Resilience middlebox tests (Section 8.1 RAN resilience use case)."""

import pytest

from repro.apps.resilience import FailoverEvent, ResilienceMiddlebox
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import Numerology, SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

from tests.conftest import random_prb_samples


@pytest.fixture
def primary():
    return MacAddress.from_int(0x61)


@pytest.fixture
def standby():
    return MacAddress.from_int(0x62)


@pytest.fixture
def box(primary, standby, ru_mac):
    return ResilienceMiddlebox(
        primary_du=primary,
        standby_du=standby,
        ru_mac=ru_mac,
        silence_threshold_ns=2_000_000.0,  # 4 slots
    )


def dl_cplane(src, dst, slot=0):
    time = SymbolTime.from_absolute_slot(slot, Numerology(mu=1))
    return make_packet(
        src, dst,
        CPlaneMessage(direction=Direction.DOWNLINK, time=time,
                      sections=[CPlaneSection(0, 0, 106)]),
    )


def ul_uplane(rng, src, dst, slot=0):
    time = SymbolTime.from_absolute_slot(slot, Numerology(mu=1), symbol=10)
    section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 4))
    return make_packet(
        src, dst,
        UPlaneMessage(direction=Direction.UPLINK, time=time,
                      sections=[section]),
    )


class TestSteadyState:
    def test_primary_traffic_forwarded_to_ru(self, box, primary, ru_mac):
        result = box.process(dl_cplane(primary, ru_mac))
        assert len(result.emissions) == 1
        assert result.emissions[0].eth.dst == ru_mac

    def test_standby_traffic_suppressed(self, box, standby, ru_mac):
        result = box.process(dl_cplane(standby, ru_mac))
        assert result.emissions == []

    def test_uplink_steered_to_primary(self, box, rng, primary, ru_mac):
        box.process(dl_cplane(primary, ru_mac, slot=0))
        result = box.process(ul_uplane(rng, ru_mac, primary, slot=1))
        assert result.emissions[0].eth.dst == primary
        assert box.events == []


class TestFailover:
    def drive_failure(self, box, rng, primary, ru_mac, fail_after_slot=2,
                      total_slots=12):
        """Primary goes silent after ``fail_after_slot``."""
        for slot in range(total_slots):
            if slot <= fail_after_slot:
                box.process(dl_cplane(primary, ru_mac, slot=slot))
            box.process(ul_uplane(rng, ru_mac, primary, slot=slot))

    def test_failover_triggers_after_silence(self, box, rng, primary,
                                             standby, ru_mac):
        self.drive_failure(box, rng, primary, ru_mac)
        assert len(box.events) == 1
        event = box.events[0]
        assert event.failed_du == primary
        assert event.standby_du == standby
        assert event.silence_ns > box.silence_threshold_ns
        assert box.active_du == standby

    def test_uplink_rerouted_after_failover(self, box, rng, primary, standby,
                                            ru_mac):
        self.drive_failure(box, rng, primary, ru_mac)
        result = box.process(ul_uplane(rng, ru_mac, primary, slot=13))
        assert result.emissions[0].eth.dst == standby

    def test_standby_downlink_admitted_after_failover(self, box, rng,
                                                      primary, standby,
                                                      ru_mac):
        self.drive_failure(box, rng, primary, ru_mac)
        result = box.process(dl_cplane(standby, ru_mac, slot=14))
        assert result.emissions[0].eth.dst == ru_mac

    def test_late_primary_suppressed_after_failover(self, box, rng, primary,
                                                    ru_mac):
        """Split-brain prevention: the failed DU's late packets die."""
        self.drive_failure(box, rng, primary, ru_mac)
        result = box.process(dl_cplane(primary, ru_mac, slot=15))
        assert result.emissions == []

    def test_failover_within_few_slots(self, box, rng, primary, ru_mac):
        """Section 8.1: re-routing 'within a few milliseconds'."""
        self.drive_failure(box, rng, primary, ru_mac)
        event = box.events[0]
        detection_delay_ms = event.silence_ns / 1e6
        assert detection_delay_ms < 5.0

    def test_telemetry_published(self, box, rng, primary, ru_mac):
        self.drive_failure(box, rng, primary, ru_mac)
        assert box.failed_over
        assert [type(event) for event in box.events] == [FailoverEvent]

    def test_no_failover_while_primary_alive(self, box, rng, primary,
                                             ru_mac):
        for slot in range(20):
            box.process(dl_cplane(primary, ru_mac, slot=slot))
            box.process(ul_uplane(rng, ru_mac, primary, slot=slot))
        assert box.events == []
        assert box.active_du == primary

    def test_failback(self, box, rng, primary, ru_mac):
        self.drive_failure(box, rng, primary, ru_mac)
        box.failback()
        assert box.active_du == primary
        result = box.process(dl_cplane(primary, ru_mac, slot=16))
        assert len(result.emissions) == 1
