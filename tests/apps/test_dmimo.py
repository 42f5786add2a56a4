"""dMIMO middlebox unit tests (Section 4.2)."""

import pytest

from repro.apps.dmimo import DmimoMiddlebox, RuPortMap, SsbSchedule
from repro.core.actions import _RETAINED_SLOTS
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

from tests.conftest import random_prb_samples


@pytest.fixture
def ru_a():
    return MacAddress.from_int(0x31)


@pytest.fixture
def ru_b():
    return MacAddress.from_int(0x32)


@pytest.fixture
def port_map(ru_a, ru_b):
    # Figure 5b: two 2-antenna RUs forming a 4-port virtual RU.
    return RuPortMap(groups=((ru_a, 2), (ru_b, 2)))


@pytest.fixture
def dmimo(du_mac, port_map):
    return DmimoMiddlebox(du_mac=du_mac, port_map=port_map)


def dl_uplane(rng, du_mac, port, time=None, n_prbs=8):
    section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, n_prbs))
    return make_packet(
        du_mac, MacAddress.from_int(0xFF),  # virtual RU address
        UPlaneMessage(direction=Direction.DOWNLINK,
                      time=time or SymbolTime(0, 0, 0, 1),
                      sections=[section]),
        eaxc=EAxCId(du_port=0, ru_port=port),
    )


def ul_uplane(rng, src, du_mac, port):
    section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 8))
    return make_packet(
        src, du_mac,
        UPlaneMessage(direction=Direction.UPLINK,
                      time=SymbolTime(0, 0, 0, 10),
                      sections=[section]),
        eaxc=EAxCId(du_port=0, ru_port=port),
    )


class TestRuPortMap:
    def test_figure_5b_mapping(self, port_map, ru_a, ru_b):
        assert port_map.to_local(0) == (ru_a, 0)
        assert port_map.to_local(1) == (ru_a, 1)
        assert port_map.to_local(2) == (ru_b, 0)
        assert port_map.to_local(3) == (ru_b, 1)

    def test_reverse_mapping(self, port_map, ru_a, ru_b):
        assert port_map.to_global(ru_a, 1) == 1
        assert port_map.to_global(ru_b, 0) == 2
        assert port_map.to_global(ru_b, 1) == 3

    def test_roundtrip_all_ports(self, port_map):
        for global_port in range(sum(n for _, n in port_map.groups)):
            mac, local = port_map.to_local(global_port)
            assert port_map.to_global(mac, local) == global_port

    def test_out_of_range(self, port_map, ru_a):
        with pytest.raises(ValueError):
            port_map.to_local(4)
        with pytest.raises(ValueError):
            port_map.to_global(ru_a, 2)
        with pytest.raises(ValueError):
            port_map.to_global(MacAddress.from_int(0x99), 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RuPortMap(groups=())

    def test_secondary_first_ports(self, port_map, ru_b):
        assert port_map.secondary_first_ports() == [(ru_b, 2)]


class TestDownlinkRemap:
    def test_low_ports_unmodified(self, dmimo, rng, du_mac, ru_a):
        """Ports 0-1 already match RU 1's local numbering (Section 4.2)."""
        result = dmimo.process(dl_uplane(rng, du_mac, port=1))
        packet = result.emissions[0]
        assert packet.eth.dst == ru_a
        assert packet.eaxc.ru_port == 1

    def test_high_ports_remapped(self, dmimo, rng, du_mac, ru_b):
        """Ports 2-3 remap to RU 2's local ports 0-1."""
        result = dmimo.process(dl_uplane(rng, du_mac, port=3))
        packet = result.emissions[0]
        assert packet.eth.dst == ru_b
        assert packet.eaxc.ru_port == 1

    def test_cplane_remapped_too(self, dmimo, du_mac, ru_b):
        message = CPlaneMessage(
            direction=Direction.DOWNLINK,
            time=SymbolTime(0, 0, 0, 0),
            sections=[CPlaneSection(0, 0, 106)],
        )
        packet = make_packet(du_mac, MacAddress.from_int(0xFF), message,
                             eaxc=EAxCId(du_port=0, ru_port=2))
        result = dmimo.process(packet)
        out = result.emissions[0]
        assert out.eth.dst == ru_b
        assert out.eaxc.ru_port == 0

    def test_payload_untouched_by_remap(self, dmimo, rng, du_mac):
        packet = dl_uplane(rng, du_mac, port=2)
        original = packet.message.sections[0].payload
        result = dmimo.process(packet)
        assert result.emissions[0].message.sections[0].payload == original


class TestUplinkRemap:
    def test_ru2_ports_mapped_to_global(self, dmimo, rng, du_mac, ru_b):
        result = dmimo.process(ul_uplane(rng, ru_b, du_mac, port=1))
        packet = result.emissions[0]
        assert packet.eth.dst == du_mac
        assert packet.eaxc.ru_port == 3

    def test_ru1_ports_unchanged(self, dmimo, rng, du_mac, ru_a):
        result = dmimo.process(ul_uplane(rng, ru_a, du_mac, port=0))
        assert result.emissions[0].eaxc.ru_port == 0

    def test_bidirectional_consistency(self, dmimo, rng, du_mac, ru_a, ru_b):
        """DL then UL remap is the identity on the global port space."""
        for global_port in range(4):
            down = dmimo.process(dl_uplane(rng, du_mac, port=global_port))
            out = down.emissions[0]
            back = ul_uplane(rng, out.eth.dst, du_mac, out.eaxc.ru_port)
            up = dmimo.process(back)
            assert up.emissions[0].eaxc.ru_port == global_port


class TestSsbReplication:
    @pytest.fixture
    def ssb(self):
        return SsbSchedule(period_slots=40, symbols=(1,), prb_start=2,
                           num_prb=4)

    @pytest.fixture
    def dmimo_ssb(self, du_mac, port_map, ssb):
        return DmimoMiddlebox(du_mac=du_mac, port_map=port_map, ssb=ssb)

    def ssb_time(self):
        return SymbolTime(0, 0, 0, 1)  # slot 0, symbol 1

    def test_ssb_copied_to_secondary(self, dmimo_ssb, rng, du_mac, ru_b):
        primary = dl_uplane(rng, du_mac, port=0, time=self.ssb_time())
        ssb_bytes = primary.message.sections[0].prb_payload(3)
        dmimo_ssb.process(primary)
        secondary = dl_uplane(rng, du_mac, port=2, time=self.ssb_time())
        result = dmimo_ssb.process(secondary)
        out = result.emissions[0]
        assert out.eth.dst == ru_b
        assert out.message.sections[0].prb_payload(3) == ssb_bytes
        assert dmimo_ssb.ssb_copies == 1

    def test_ssb_copy_preserves_other_prbs(self, dmimo_ssb, rng, du_mac):
        dmimo_ssb.process(dl_uplane(rng, du_mac, port=0, time=self.ssb_time()))
        secondary = dl_uplane(rng, du_mac, port=2, time=self.ssb_time())
        before = secondary.message.sections[0].prb_payload(0)
        result = dmimo_ssb.process(secondary)
        assert result.emissions[0].message.sections[0].prb_payload(0) == before

    def test_secondary_before_primary_held(self, dmimo_ssb, rng, du_mac):
        """Out-of-order arrival: the secondary packet waits for the SSB."""
        secondary = dl_uplane(rng, du_mac, port=2, time=self.ssb_time())
        held = dmimo_ssb.process(secondary)
        assert held.emissions == []
        primary = dl_uplane(rng, du_mac, port=0, time=self.ssb_time())
        released = dmimo_ssb.process(primary)
        # Primary's own emission plus the released secondary.
        assert len(released.emissions) == 2
        assert dmimo_ssb.ssb_copies == 1

    def test_a_forgotten_ssb_is_waited_for_again(self, dmimo_ssb, rng, du_mac):
        """The symbol time wraps every 256 frames: a secondary packet
        arriving first must wait for *its* primary, not take the SSB
        kept under the same time a ring ago — and a secondary held back
        then is not released now."""
        dmimo_ssb.process(dl_uplane(rng, du_mac, port=0, time=self.ssb_time()))
        for _ in range(_RETAINED_SLOTS + 1):
            dmimo_ssb.end_slot()
        stale = dl_uplane(rng, du_mac, port=2, time=self.ssb_time())
        assert dmimo_ssb.process(stale).emissions == []
        for _ in range(_RETAINED_SLOTS + 1):
            dmimo_ssb.end_slot()
        secondary = dl_uplane(rng, du_mac, port=2, time=self.ssb_time())
        assert dmimo_ssb.process(secondary).emissions == []
        primary = dl_uplane(rng, du_mac, port=0, time=self.ssb_time())
        ssb_bytes = primary.message.sections[0].prb_payload(3)
        released = dmimo_ssb.process(primary).emissions
        assert len(released) == 2 and dmimo_ssb.ssb_copies == 1
        assert released[0].message.sections[0].prb_payload(3) == ssb_bytes

    def test_non_ssb_symbols_not_copied(self, dmimo_ssb, rng, du_mac):
        other_time = SymbolTime(0, 0, 0, 3)
        dmimo_ssb.process(dl_uplane(rng, du_mac, port=0, time=other_time))
        dmimo_ssb.process(dl_uplane(rng, du_mac, port=2, time=other_time))
        assert dmimo_ssb.ssb_copies == 0

    def test_non_ssb_slots_not_copied(self, dmimo_ssb, rng, du_mac):
        off_slot = SymbolTime(0, 0, 1, 1)  # slot 1: not an SSB slot
        dmimo_ssb.process(dl_uplane(rng, du_mac, port=0, time=off_slot))
        dmimo_ssb.process(dl_uplane(rng, du_mac, port=2, time=off_slot))
        assert dmimo_ssb.ssb_copies == 0

    def test_ssb_disabled_without_schedule(self, dmimo, rng, du_mac):
        dmimo.process(dl_uplane(rng, du_mac, port=0, time=self.ssb_time()))
        dmimo.process(dl_uplane(rng, du_mac, port=2, time=self.ssb_time()))
        assert dmimo.ssb_copies == 0
