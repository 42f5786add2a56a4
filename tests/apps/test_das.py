"""DAS middlebox unit tests (Section 4.1)."""

import numpy as np
import pytest

from repro.apps.das import DasMiddlebox
from repro.core.actions import _RETAINED_SLOTS
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

from tests.conftest import random_prb_samples


@pytest.fixture
def ru_macs():
    return [MacAddress.from_int(0x20 + i) for i in range(3)]


@pytest.fixture
def das(du_mac, ru_macs):
    return DasMiddlebox(du_mac=du_mac, ru_macs=ru_macs)


def dl_uplane(rng, du_mac, ru_mac, time=None):
    section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 8))
    return make_packet(
        du_mac, ru_mac,
        UPlaneMessage(direction=Direction.DOWNLINK,
                      time=time or SymbolTime(0, 0, 0, 0),
                      sections=[section]),
    )


def ul_uplane(rng, ru_mac, du_mac, time=None, port=0, amplitude=3000):
    section = UPlaneSection.from_samples(
        0, 0, random_prb_samples(rng, 8, amplitude)
    )
    from repro.fronthaul.ecpri import EAxCId

    return make_packet(
        ru_mac, du_mac,
        UPlaneMessage(direction=Direction.UPLINK,
                      time=time or SymbolTime(0, 0, 0, 5),
                      sections=[section]),
        eaxc=EAxCId(du_port=0, ru_port=port),
    )


def cplane(du_mac, ru_mac, direction=Direction.DOWNLINK):
    return make_packet(
        du_mac, ru_mac,
        CPlaneMessage(direction=direction, time=SymbolTime(0, 0, 0, 0),
                      sections=[CPlaneSection(0, 0, 106)]),
    )


class TestDownlinkFanOut:
    def test_uplane_replicated_to_all_rus(self, das, rng, du_mac, ru_macs):
        result = das.process(dl_uplane(rng, du_mac, ru_macs[0]))
        destinations = [e.eth.dst for e in result.emissions]
        assert destinations == ru_macs

    def test_cplane_replicated_to_all_rus(self, das, du_mac, ru_macs):
        result = das.process(cplane(du_mac, ru_macs[0]))
        assert [e.eth.dst for e in result.emissions] == ru_macs

    def test_replicas_carry_identical_payload(self, das, rng, du_mac, ru_macs):
        packet = dl_uplane(rng, du_mac, ru_macs[0])
        result = das.process(packet)
        payloads = {
            e.message.sections[0].payload for e in result.emissions
        }
        assert len(payloads) == 1

    def test_source_rewritten_to_middlebox(self, das, rng, du_mac, ru_macs):
        result = das.process(dl_uplane(rng, du_mac, ru_macs[0]))
        assert all(e.eth.src == das.mac for e in result.emissions)


class TestUplinkMerge:
    def test_held_until_all_rus_report(self, das, rng, du_mac, ru_macs):
        assert das.process(ul_uplane(rng, ru_macs[0], du_mac)).emissions == []
        assert das.process(ul_uplane(rng, ru_macs[1], du_mac)).emissions == []
        final = das.process(ul_uplane(rng, ru_macs[2], du_mac))
        assert len(final.emissions) == 1
        assert final.emissions[0].eth.dst == du_mac

    def test_merged_payload_is_elementwise_sum(self, das, rng, du_mac, ru_macs):
        packets = [ul_uplane(rng, mac, du_mac) for mac in ru_macs]
        expected = sum(
            p.message.sections[0].iq_samples().astype(int) for p in packets
        )
        emissions = []
        for packet in packets:
            emissions = das.process(packet).emissions
        merged = emissions[0].message.sections[0]
        step = 1 << int(merged.exponents().max())
        assert np.abs(
            merged.iq_samples().astype(int) - expected
        ).max() <= step

    def test_merge_keyed_by_symbol_time(self, das, rng, du_mac, ru_macs):
        """Packets of different symbols never merge together."""
        t_a = SymbolTime(0, 0, 0, 5)
        t_b = SymbolTime(0, 0, 0, 6)
        das.process(ul_uplane(rng, ru_macs[0], du_mac, time=t_a))
        das.process(ul_uplane(rng, ru_macs[1], du_mac, time=t_b))
        assert das.merged_uplink_symbols == 0
        das.process(ul_uplane(rng, ru_macs[1], du_mac, time=t_a))
        das.process(ul_uplane(rng, ru_macs[2], du_mac, time=t_a))
        assert das.merged_uplink_symbols == 1

    def test_merge_keyed_by_antenna_port(self, das, rng, du_mac, ru_macs):
        das.process(ul_uplane(rng, ru_macs[0], du_mac, port=0))
        das.process(ul_uplane(rng, ru_macs[1], du_mac, port=1))
        assert das.merged_uplink_symbols == 0

    def test_duplicate_ru_packet_dropped(self, das, rng, du_mac, ru_macs):
        das.process(ul_uplane(rng, ru_macs[0], du_mac))
        result = das.process(ul_uplane(rng, ru_macs[0], du_mac))
        assert result.emissions == []
        assert len(das.cache.peek(
            (SymbolTime(0, 0, 0, 5), Direction.UPLINK, 0)
        )) == 1

    def test_retransmission_under_a_new_seq_dropped_by_its_cache_tag(
        self, das, rng, du_mac, ru_macs
    ):
        """Past the sequence tracker (fresh seq id), the same RU's second
        packet for a waiting symbol is refused on the cache's tags."""
        das.process(ul_uplane(rng, ru_macs[0], du_mac))
        again = ul_uplane(rng, ru_macs[0], du_mac)
        again.ecpri.seq_id = 1
        result = das.process(again)
        assert result.emissions == [] and das.duplicate_uplink_packets == 1
        assert das.cache.tags(again.flow_key()) == [ru_macs[0]]
        das.process(ul_uplane(rng, ru_macs[1], du_mac))
        assert len(das.process(ul_uplane(rng, ru_macs[2], du_mac)).emissions) == 1

    def test_foreign_uplink_passthrough(self, das, rng, du_mac):
        foreign = ul_uplane(rng, MacAddress.from_int(0x99), du_mac)
        result = das.process(foreign)
        assert len(result.emissions) == 1

    def test_out_of_order_arrival(self, das, rng, du_mac, ru_macs):
        """Arrival order across RUs does not matter."""
        for mac in reversed(ru_macs):
            result = das.process(ul_uplane(rng, mac, du_mac))
        assert len(result.emissions) == 1


class TestEndSlot:
    """The deadline sweep goes by the slots the ring counted, never by
    comparing (wrapping) frame numbers."""

    #: The last slot before the frame counter wraps: the slot boundary
    #: after it is (0, 0, 0), which no slot key is "before".
    LAST = SymbolTime(255, 9, 1, 5)

    def test_sweep_abandons_a_merge_pending_across_the_frame_wrap(
        self, das, rng, du_mac, ru_macs
    ):
        das.process(ul_uplane(rng, ru_macs[0], du_mac, time=self.LAST))
        assert das.end_slot(deadline_flush=True) == ([], 1)
        assert len(das.cache) == 0 and das.missed_merge_deadlines == 1

    def test_sweep_merges_the_partial_subset_across_the_frame_wrap(
        self, das, rng, du_mac, ru_macs
    ):
        das = DasMiddlebox(du_mac=du_mac, ru_macs=ru_macs, partial_merge=True)
        for mac in ru_macs[:2]:
            das.process(ul_uplane(rng, mac, du_mac, time=self.LAST))
        (degraded,), abandoned = das.end_slot(deadline_flush=True)
        assert abandoned == 0 and das.degraded_merges == 1
        assert degraded.time == self.LAST and degraded.eth.dst == du_mac
        # The third RU's packet is a straggler now, not a new merge.
        late = das.process(ul_uplane(rng, ru_macs[2], du_mac, time=self.LAST))
        assert late.emissions == [] and das.late_uplink_packets == 1

    def test_without_the_sweep_a_merge_waits_until_the_ring_drops_it(
        self, das, rng, du_mac, ru_macs
    ):
        das.process(ul_uplane(rng, ru_macs[0], du_mac))
        for _ in range(_RETAINED_SLOTS):
            assert das.end_slot() == ([], 0)
        assert len(das.cache) == 1
        das.end_slot()
        assert len(das.cache) == 0 and das.missed_merge_deadlines == 0

    def test_a_merged_symbol_is_remembered_only_while_its_slot_is(
        self, das, rng, du_mac, ru_macs
    ):
        for mac in ru_macs:
            das.process(ul_uplane(rng, mac, du_mac))
        for _ in range(_RETAINED_SLOTS + 1):
            das.end_slot()
        # Same (wrapped) symbol time, 256 frames on: a new merge.
        for mac in ru_macs:
            packet = ul_uplane(rng, mac, du_mac)
            packet.ecpri.seq_id = 1
            result = das.process(packet)
        assert len(result.emissions) == 1
        assert das.merged_uplink_symbols == 2 and das.late_uplink_packets == 0


class TestManagement:
    """The DAS's knobs are constructor values, checked once."""

    def test_empty_ru_set_rejected(self, du_mac):
        with pytest.raises(ValueError):
            DasMiddlebox(du_mac=du_mac, ru_macs=[])
