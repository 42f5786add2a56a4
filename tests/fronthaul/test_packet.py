"""Full fronthaul frame tests: Ethernet + eCPRI + message."""

import dataclasses

import pytest

from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ecpri import EAxCId, EcpriMessageType
from repro.fronthaul.ethernet import MacAddress, VlanTag
from repro.fronthaul.packet import make_packet, parse_packet
from repro.fronthaul.timing import symbol_time
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

from tests.conftest import random_prb_samples


@pytest.fixture
def uplane_packet(rng, du_mac, ru_mac):
    section = UPlaneSection.from_samples(
        section_id=0, start_prb=0, samples=random_prb_samples(rng, 16)
    )
    message = UPlaneMessage(
        direction=Direction.DOWNLINK,
        time=symbol_time(1, 2, 1, 3),
        sections=[section],
    )
    return make_packet(du_mac, ru_mac, message,
                       eaxc=EAxCId(du_port=1, ru_port=2), seq_id=9)


@pytest.fixture
def cplane_packet(du_mac, ru_mac):
    message = CPlaneMessage(
        direction=Direction.UPLINK,
        time=symbol_time(1, 2, 1, 10),
        sections=[CPlaneSection(section_id=0, start_prb=0, num_prb=106)],
    )
    return make_packet(du_mac, ru_mac, message)


class TestFronthaulPacket:
    def test_uplane_wire_roundtrip(self, uplane_packet):
        parsed = parse_packet(uplane_packet.pack())
        assert parsed.is_uplane
        assert not parsed.is_cplane
        assert parsed.eth.src == uplane_packet.eth.src
        assert parsed.eth.dst == uplane_packet.eth.dst
        assert parsed.ecpri.seq_id == 9
        assert parsed.eaxc == EAxCId(du_port=1, ru_port=2)
        assert parsed.time == symbol_time(1, 2, 1, 3)
        assert (
            parsed.message.sections[0].payload
            == uplane_packet.message.sections[0].payload
        )

    def test_cplane_wire_roundtrip(self, cplane_packet):
        parsed = parse_packet(cplane_packet.pack())
        assert parsed.is_cplane
        assert parsed.ecpri.message_type is EcpriMessageType.RT_CONTROL
        assert parsed.direction is Direction.UPLINK

    def test_vlan_tagged_roundtrip(self, rng, du_mac, ru_mac):
        section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 2))
        message = UPlaneMessage(
            direction=Direction.DOWNLINK,
            time=symbol_time(0, 0, 0, 0),
            sections=[section],
        )
        packet = make_packet(du_mac, ru_mac, message)
        packet.eth = dataclasses.replace(packet.eth, vlan=VlanTag(vlan_id=6))
        parsed = parse_packet(packet.pack())
        assert parsed.eth.vlan == VlanTag(vlan_id=6)

    def test_payload_size_counts_eaxc_and_seq(self, uplane_packet):
        data = uplane_packet.pack()
        parsed = parse_packet(data)
        body = len(uplane_packet.message.pack())
        assert parsed.ecpri.payload_size == body + 4

    def test_flow_key_groups_by_time_direction_port(self, uplane_packet):
        clone = uplane_packet.clone()
        assert clone.flow_key() == uplane_packet.flow_key()
        clone.ecpri.eaxc = clone.ecpri.eaxc.with_ru_port(7)
        assert clone.flow_key() != uplane_packet.flow_key()

    def test_clone_is_deep(self, uplane_packet):
        clone = uplane_packet.clone()
        clone.eth.dst = MacAddress.from_int(0xDEAD)
        clone.message.sections[0].start_prb = 99
        assert uplane_packet.eth.dst != clone.eth.dst
        assert uplane_packet.message.sections[0].start_prb == 0

    def test_wire_size_matches_pack(self, uplane_packet, cplane_packet):
        assert uplane_packet.wire_size == len(uplane_packet.pack())
        assert cplane_packet.wire_size == len(cplane_packet.pack())

    def test_100mhz_uplane_is_jumbo(self, rng, du_mac, ru_mac):
        """Section 5: 100 MHz cells generate frames > 7 KB."""
        section = UPlaneSection.from_samples(
            0, 0, random_prb_samples(rng, 273)
        )
        message = UPlaneMessage(
            direction=Direction.DOWNLINK,
            time=symbol_time(0, 0, 0, 0),
            sections=[section],
        )
        packet = make_packet(du_mac, ru_mac, message)
        assert packet.wire_size > 7_000

    def test_non_ecpri_frame_rejected(self, uplane_packet):
        data = bytearray(uplane_packet.pack())
        data[12:14] = (0x0800).to_bytes(2, "big")  # IPv4 ethertype
        with pytest.raises(ValueError):
            parse_packet(bytes(data))

    def test_byte_exact_reserialization(self, uplane_packet, cplane_packet):
        """pack -> parse -> pack is byte-identical (middlebox transparency)."""
        for packet in (uplane_packet, cplane_packet):
            first = packet.pack()
            assert parse_packet(first).pack() == first
