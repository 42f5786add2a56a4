"""Copy-free packet plumbing: arithmetic ``wire_size``, structural
``clone()``, table-driven ``TddPattern.slot_type``.

Each shortcut is pinned to the slow definition it replaced:
``len(pack())``, ``copy.deepcopy`` and ``SlotType(letter)``.
"""

import copy
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.generators import fronthaul_packets
from repro.fronthaul.cplane import SectionType
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress, VlanTag
from repro.fronthaul.packet import FronthaulPacket, parse_packet
from repro.fronthaul.timing import SlotType, TddPattern

_VLANS = st.none() | st.builds(
    VlanTag,
    vlan_id=st.integers(min_value=0, max_value=4095),
    priority=st.integers(min_value=0, max_value=7),
)


@st.composite
def packets(draw) -> FronthaulPacket:
    """Built or zero-copy parsed, tagged or not, C-plane 1/3 or U-plane."""
    packet = draw(fronthaul_packets())
    packet.eth.vlan = draw(_VLANS)
    if draw(st.booleans()):
        packet = parse_packet(packet.pack())
    return packet


def _fields(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _section_fields(section):
    fields = _fields(section)
    if "payload" in fields:
        fields["payload"] = bytes(fields["payload"])
    return fields


class TestWireSize:
    @settings(max_examples=200, deadline=None)
    @given(packet=packets())
    def test_equals_length_of_pack(self, packet):
        assert packet.wire_size == len(packet.pack())
        assert packet.message.wire_size() == len(packet.message.pack())

    def test_covers_every_packet_kind(self):
        """The strategy really reaches C-plane type 1 and 3, U-plane,
        tagged and untagged, parsed (memoryview payload) and built."""
        seen = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(packet=packets())
        def collect(packet):
            kind = (
                packet.message.section_type.name
                if packet.is_cplane
                else "view"
                if isinstance(packet.message.sections[0].payload, memoryview)
                else "bytes"
            )
            seen.add((kind, packet.eth.vlan is not None))

        collect()
        kinds = {kind for kind, _ in seen}
        assert kinds == {
            SectionType.DATA.name, SectionType.PRACH.name, "view", "bytes"
        }
        assert {tagged for _, tagged in seen} == {True, False}

    def test_tracks_mutation(self):
        """Nothing is cached: rewriting the packet moves the size."""

        @settings(max_examples=50, deadline=None)
        @given(packet=packets())
        def check(packet):
            packet.eth.vlan = None
            untagged = packet.wire_size
            packet.eth.vlan = VlanTag(vlan_id=3)
            assert packet.wire_size == untagged + 4 == len(packet.pack())
            packet.message.sections = packet.message.sections[:1] * 2
            assert packet.wire_size == len(packet.pack())

        check()


class TestStructuralClone:
    @settings(max_examples=150, deadline=None)
    @given(packet=packets())
    def test_equals_deepcopy_field_for_field(self, packet):
        clone, deep = packet.clone(), copy.deepcopy(packet)
        assert clone.pack() == deep.pack() == packet.pack()
        assert _fields(clone.eth) == _fields(deep.eth)
        assert _fields(clone.ecpri) == _fields(deep.ecpri)
        message, deep_message = _fields(clone.message), _fields(deep.message)
        sections, deep_sections = (
            message.pop("sections"), deep_message.pop("sections")
        )
        assert message == deep_message
        assert [_section_fields(s) for s in sections] == [
            _section_fields(s) for s in deep_sections
        ]

    @settings(max_examples=150, deadline=None)
    @given(packet=packets())
    def test_mutable_layers_are_fresh_leaves_are_shared(self, packet):
        clone = packet.clone()
        assert clone is not packet
        assert clone.eth is not packet.eth
        assert clone.ecpri is not packet.ecpri
        assert clone.message is not packet.message
        assert clone.message.sections is not packet.message.sections
        for ours, theirs in zip(clone.message.sections, packet.message.sections):
            assert ours is not theirs
            if packet.is_uplane:
                assert ours.payload is theirs.payload
                assert ours.compression is theirs.compression
        assert clone.eth.dst is packet.eth.dst
        assert clone.ecpri.eaxc is packet.ecpri.eaxc
        assert clone.message.time is packet.message.time

    @settings(max_examples=100, deadline=None)
    @given(packet=packets(), mutate_clone=st.booleans())
    def test_rewrites_never_cross(self, packet, mutate_clone):
        """Every rewrite a middlebox performs (A1 MACs, eAxC remap, seq,
        section list, section fields, payload) stays on the side it was
        made on — in both directions."""
        clone = packet.clone()
        target, witness = (clone, packet) if mutate_clone else (packet, clone)
        before = witness.pack()
        target.eth.dst = MacAddress.from_int(0xDEAD)
        target.eth.src = MacAddress.from_int(0xBEEF)
        target.eth.vlan = VlanTag(vlan_id=77)
        target.ecpri.eaxc = EAxCId(du_port=9, ru_port=9)
        target.ecpri.seq_id = (target.ecpri.seq_id + 1) % 256
        section = target.message.sections[0]
        section.start_prb = (section.start_prb + 1) % 1024
        section.section_id = (section.section_id + 1) % 4096
        if target.is_uplane:
            section.payload = bytes(len(section.payload))
        target.message.sections.append(target.message.sections[0])
        target.message.filter_index ^= 1
        assert witness.pack() == before


class TestSlotTypeTable:
    def test_equals_enum_lookup_over_three_patterns(self):
        for pattern in ("DDDSU", "DDDDDDDSUU", "DSUUD"):
            tdd = TddPattern(pattern)
            for slot in range(4 * len(pattern) + 3):
                expected = SlotType(pattern[slot % len(pattern)])
                assert tdd.slot_type(slot) is expected
