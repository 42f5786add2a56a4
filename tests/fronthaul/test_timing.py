"""Frame structure, numerology and TDD pattern tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet, parse_packet
from repro.fronthaul.timing import (
    SYMBOLS_PER_SLOT,
    Numerology,
    SlotClock,
    SlotType,
    TddPattern,
    absolute_slot,
    ns,
    slot_id,
    slot_time,
    symbol_of,
    symbol_time,
    time_fields,
)
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection


class TestNumerology:
    def test_mu1_scs(self):
        assert Numerology(mu=1).scs_hz == 30_000

    def test_mu0_scs(self):
        assert Numerology(mu=0).scs_hz == 15_000

    def test_mu1_slot_duration(self):
        # 30 kHz SCS: 0.5 ms slots, ~35.7 us symbols.
        numerology = Numerology(mu=1)
        assert numerology.slot_duration_ns == 500_000
        assert numerology.slots_per_frame == 20
        assert numerology.slots_per_second == 2000

    def test_symbol_duration_order_of_magnitude(self):
        # Section 2.2: "a few tens of microseconds".
        assert 30_000 < Numerology(mu=1).symbol_duration_ns < 40_000

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            Numerology(mu=5)


#: Slots in the 256-frame wire epoch at mu=1.
EPOCH_SLOTS = 256 * 20
MU1 = Numerology(mu=1)


def _frames(time):
    """One U-plane and one C-plane frame stamped ``time``, as wire bytes."""
    src, dst = MacAddress.from_int(1), MacAddress.from_int(2)
    uplane = UPlaneMessage(
        direction=Direction.UPLINK, time=time,
        sections=[UPlaneSection.from_samples(1, 0, np.zeros((1, 24), np.int16))],
    )
    cplane = CPlaneMessage(
        direction=Direction.DOWNLINK, time=time,
        sections=[CPlaneSection(section_id=1, start_prb=0, num_prb=4)],
    )
    return [make_packet(src, dst, message).pack() for message in (uplane, cplane)]


class TestSymbolTime:
    def test_ordering(self):
        a = symbol_time(0, 0, 0, 0)
        b = symbol_time(0, 0, 0, 1)
        c = symbol_time(0, 0, 1, 0)
        assert a < b < c

    @given(*[st.tuples(
        st.integers(0, 255), st.integers(0, 9), st.integers(0, 63),
        st.integers(0, SYMBOLS_PER_SLOT - 1),
    )] * 2)
    def test_int_order_is_field_order(self, a, b):
        assert (symbol_time(*a) < symbol_time(*b)) == (a < b)
        assert (symbol_time(*a) == symbol_time(*b)) == (a == b)
        assert time_fields(symbol_time(*a)) == a

    def test_slot_id_ignores_symbol(self):
        assert slot_id(symbol_time(1, 2, 1, 5)) == slot_id(symbol_time(1, 2, 1, 9))
        assert slot_id(symbol_time(1, 2, 1, 5)) != slot_id(symbol_time(1, 2, 0, 5))

    def test_absolute_slot_roundtrip(self):
        for index in (0, 1, 19, 20, 1234):
            time = slot_time(index, MU1)
            assert absolute_slot(time, MU1) == index
            assert symbol_of(time) == 0

    def test_frame_wraps_at_256(self):
        time = slot_time(256 * 20, MU1)
        assert time_fields(time)[0] == 0

    def test_ns_monotonic(self):
        previous = -1.0
        for index in range(5):
            for symbol in range(SYMBOLS_PER_SLOT):
                time = slot_time(index, MU1) + symbol
                assert ns(time, MU1) > previous
                previous = ns(time, MU1)

    def test_ns_is_slot_plus_symbol_offset(self):
        time = symbol_time(3, 4, 1, 5)
        assert ns(time, MU1) == (
            (3 * 20 + 4 * 2 + 1) * MU1.slot_duration_ns
            + 5 * MU1.symbol_duration_ns
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            symbol_time(256, 0, 0, 0)
        with pytest.raises(ValueError):
            symbol_time(0, 10, 0, 0)
        with pytest.raises(ValueError):
            symbol_time(0, 0, 64, 0)
        with pytest.raises(ValueError):
            symbol_time(0, 0, 0, 14)

    @given(st.integers(min_value=0, max_value=256 * 20 - 1))
    def test_absolute_slot_roundtrip_property(self, index):
        assert absolute_slot(slot_time(index, MU1), MU1) == index

    @given(
        st.integers(min_value=0, max_value=3 * EPOCH_SLOTS - 1),
        st.integers(min_value=0, max_value=SYMBOLS_PER_SLOT - 1),
    )
    def test_wire_round_trip_across_frame_wraps(self, slot, symbol):
        """A time packed into either plane parses back to itself, and the
        wire holds the slot modulo the 256-frame epoch."""
        time = slot_time(slot, MU1) + symbol
        assert time == slot_time(slot % EPOCH_SLOTS, MU1) + symbol
        for wire in _frames(time):
            parsed = parse_packet(wire, carrier_num_prb=106).time
            assert parsed == time
            assert absolute_slot(parsed, MU1) == slot % EPOCH_SLOTS
            assert symbol_of(parsed) == symbol

    @pytest.mark.parametrize("field, values", [
        ("subframe", range(10, 16)), ("symbol", range(14, 64)),
    ])
    def test_parse_rejects_a_time_no_frame_has(self, field, values):
        for value in values:
            word = value << 12 if field == "subframe" else value
            for wire in _frames(0):
                at = 14 + 8 + 2  # Ethernet, eCPRI, the first header byte and frameId
                bad = wire[:at] + word.to_bytes(2, "big") + wire[at + 2:]
                with pytest.raises(ValueError, match=f"{field} out of range"):
                    parse_packet(bad, carrier_num_prb=106)


class TestTddPattern:
    def test_dddsu_slot_types(self):
        pattern = TddPattern("DDDSU")
        assert pattern.slot_type(0) is SlotType.DOWNLINK
        assert pattern.slot_type(3) is SlotType.SPECIAL
        assert pattern.slot_type(4) is SlotType.UPLINK
        assert pattern.slot_type(5) is SlotType.DOWNLINK  # wraps

    def test_special_slot_symbol_split(self):
        pattern = TddPattern("DDDSU", 6, 4, 4)
        assert pattern.is_downlink_symbol(3, 0)
        assert pattern.is_downlink_symbol(3, 5)
        assert not pattern.is_downlink_symbol(3, 6)  # guard
        assert not pattern.is_uplink_symbol(3, 9)  # guard
        assert pattern.is_uplink_symbol(3, 10)
        assert pattern.is_uplink_symbol(3, 13)

    def test_fraction_sums(self):
        pattern = TddPattern("DDDSU", 6, 4, 4)
        dl = pattern.downlink_symbol_fraction()
        ul = pattern.uplink_symbol_fraction()
        assert dl + ul < 1.0  # guard symbols are neither
        assert dl == pytest.approx((3 * 14 + 6) / 70)
        assert ul == pytest.approx((14 + 4) / 70)

    def test_dl_heavy_pattern_has_higher_dl_fraction(self):
        light = TddPattern("DDDSU", 6, 4, 4)
        heavy = TddPattern("DDDDDDDSUU", 6, 4, 4)
        assert (
            heavy.downlink_symbol_fraction() > light.downlink_symbol_fraction()
        )

    def test_rejects_malformed_pattern(self):
        with pytest.raises(ValueError):
            TddPattern("DDXSU")
        with pytest.raises(ValueError):
            TddPattern("")

    def test_rejects_bad_special_split(self):
        with pytest.raises(ValueError):
            TddPattern("DDDSU", 6, 4, 5)

    def test_uplink_slot_all_symbols(self):
        pattern = TddPattern("DDDSU")
        assert all(pattern.is_uplink_symbol(4, s) for s in range(14))
        assert not any(pattern.is_downlink_symbol(4, s) for s in range(14))


class TestSlotClock:
    def test_advance_produces_consecutive_stamps(self):
        clock = SlotClock(MU1)
        assert [clock.advance() for _ in range(25)] == list(range(25))
        assert clock.current_slot == 25

    def test_start_slot_offset(self):
        clock = SlotClock(MU1, start_slot=40)
        assert time_fields(slot_time(clock.advance(), MU1))[0] == 2
