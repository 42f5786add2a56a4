"""Ethernet/VLAN framing tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fronthaul.ethernet import (
    ETHERTYPE_ECPRI,
    EthernetHeader,
    MacAddress,
    VlanTag,
)


class TestMacAddress:
    def test_from_string_roundtrip(self):
        mac = MacAddress.from_string("6c:ad:ad:00:0b:6c")
        assert str(mac) == "6c:ad:ad:00:0b:6c"

    def test_from_int_roundtrip(self):
        mac = MacAddress.from_int(0x6CADAD000B6C)
        assert mac.to_int() == 0x6CADAD000B6C

    def test_string_and_int_agree(self):
        mac = MacAddress.from_string("02:00:00:00:00:ff")
        assert mac == MacAddress.from_int(0x0200000000FF)

    def test_rejects_short_raw(self):
        with pytest.raises(ValueError):
            MacAddress(b"\x01\x02")

    def test_rejects_malformed_string(self):
        with pytest.raises(ValueError):
            MacAddress.from_string("not-a-mac")

    def test_rejects_out_of_range_int(self):
        with pytest.raises(ValueError):
            MacAddress.from_int(1 << 48)

    def test_equality_and_hash(self):
        a = MacAddress.from_int(42)
        b = MacAddress.from_int(42)
        assert a == b
        assert hash(a) == hash(b)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_int_roundtrip_property(self, value):
        assert MacAddress.from_int(value).to_int() == value


class TestVlanTag:
    def test_tci_roundtrip(self):
        tag = VlanTag(vlan_id=6, priority=3, dei=True)
        assert VlanTag.from_tci(tag.to_tci()) == tag

    def test_rejects_bad_vlan_id(self):
        with pytest.raises(ValueError):
            VlanTag(vlan_id=4096)

    def test_rejects_bad_priority(self):
        with pytest.raises(ValueError):
            VlanTag(vlan_id=1, priority=8)

    @given(
        st.integers(min_value=0, max_value=4095),
        st.integers(min_value=0, max_value=7),
        st.booleans(),
    )
    def test_tci_roundtrip_property(self, vlan_id, priority, dei):
        tag = VlanTag(vlan_id=vlan_id, priority=priority, dei=dei)
        assert VlanTag.from_tci(tag.to_tci()) == tag


class TestEthernetHeader:
    def test_untagged_roundtrip(self):
        header = EthernetHeader(
            dst=MacAddress.from_int(1), src=MacAddress.from_int(2)
        )
        packed = header.pack()
        assert len(packed) == 14
        parsed, consumed = EthernetHeader.unpack(packed)
        assert consumed == 14
        assert parsed.dst == header.dst
        assert parsed.src == header.src
        assert parsed.ethertype == ETHERTYPE_ECPRI
        assert parsed.vlan is None

    def test_vlan_roundtrip(self):
        header = EthernetHeader(
            dst=MacAddress.from_int(1),
            src=MacAddress.from_int(2),
            vlan=VlanTag(vlan_id=6),
        )
        packed = header.pack()
        assert len(packed) == 18
        parsed, consumed = EthernetHeader.unpack(packed)
        assert consumed == 18
        assert parsed.vlan == VlanTag(vlan_id=6)
        assert parsed.ethertype == ETHERTYPE_ECPRI

    def test_size_property_matches_pack(self):
        untagged = EthernetHeader(MacAddress.from_int(1), MacAddress.from_int(2))
        tagged = EthernetHeader(
            MacAddress.from_int(1), MacAddress.from_int(2),
            vlan=VlanTag(vlan_id=9),
        )
        assert untagged.size == len(untagged.pack())
        assert tagged.size == len(tagged.pack())

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            EthernetHeader.unpack(b"\x00" * 10)

    def test_truncated_vlan_raises(self):
        header = EthernetHeader(
            MacAddress.from_int(1), MacAddress.from_int(2),
            vlan=VlanTag(vlan_id=1),
        )
        with pytest.raises(ValueError):
            EthernetHeader.unpack(header.pack()[:16])

    def test_a1_action_rewrites_addresses(self):
        """The substrate of action A1: rewriting dst steers the frame."""
        header = EthernetHeader(MacAddress.from_int(1), MacAddress.from_int(2))
        header.dst = MacAddress.from_int(99)
        parsed, _ = EthernetHeader.unpack(header.pack())
        assert parsed.dst.to_int() == 99
