"""Frame structure, numerology and TDD pattern tests."""

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fronthaul.timing import (
    SYMBOLS_PER_SLOT,
    Numerology,
    SlotClock,
    SlotType,
    SymbolTime,
    TddPattern,
)


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


class TestSymbolTime:
    def test_ordering(self):
        a = SymbolTime(0, 0, 0, 0)
        b = SymbolTime(0, 0, 0, 1)
        c = SymbolTime(0, 0, 1, 0)
        assert a < b < c

    def test_slot_key_ignores_symbol(self):
        assert SymbolTime(1, 2, 1, 5).slot_key() == SymbolTime(1, 2, 1, 9).slot_key()

    def test_absolute_slot_roundtrip(self):
        numerology = Numerology(mu=1)
        for index in (0, 1, 19, 20, 1234):
            time = SymbolTime.from_absolute_slot(index, numerology, symbol=3)
            assert time.absolute_slot(numerology) == index
            assert time.symbol == 3

    def test_frame_wraps_at_256(self):
        numerology = Numerology(mu=1)
        time = SymbolTime.from_absolute_slot(256 * 20, numerology)
        assert time.frame == 0

    def test_ns_monotonic(self):
        numerology = Numerology(mu=1)
        previous = -1.0
        for index in range(5):
            for symbol in range(SYMBOLS_PER_SLOT):
                time = SymbolTime.from_absolute_slot(index, numerology, symbol)
                assert time.ns(numerology) > previous
                previous = time.ns(numerology)

    def test_validation(self):
        with pytest.raises(ValueError):
            SymbolTime(256, 0, 0, 0)
        with pytest.raises(ValueError):
            SymbolTime(0, 10, 0, 0)
        with pytest.raises(ValueError):
            SymbolTime(0, 0, 0, 14)

    @given(st.tuples(
        st.integers(0, 255), st.integers(0, 9), st.integers(0, 63),
        st.integers(0, SYMBOLS_PER_SLOT - 1),
    ))
    def test_hash_is_the_field_tuple_hash(self, fields):
        """Computed once, the hash is the dataclass's: every set and dict
        of times iterates in the same order."""
        time = SymbolTime(*fields)
        assert hash(time) == hash(fields)
        assert hash(dataclasses.replace(time)) == hash(fields)
        assert hash(pickle.loads(pickle.dumps(time))) == hash(fields)

    @given(st.integers(min_value=0, max_value=256 * 20 - 1))
    def test_absolute_slot_roundtrip_property(self, index):
        numerology = Numerology(mu=1)
        assert (
            SymbolTime.from_absolute_slot(index, numerology).absolute_slot(
                numerology
            )
            == index
        )


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
        clock = SlotClock(Numerology(mu=1))
        stamps = [clock.advance() for _ in range(25)]
        numerology = Numerology(mu=1)
        assert [s.absolute_slot(numerology) for s in stamps] == list(range(25))

    def test_symbols_iterates_current_slot(self):
        clock = SlotClock(Numerology(mu=1), start_slot=7)
        symbols = list(clock.symbols())
        assert len(symbols) == SYMBOLS_PER_SLOT
        assert all(s.slot_key() == symbols[0].slot_key() for s in symbols)
        assert [s.symbol for s in symbols] == list(range(14))

    def test_start_slot_offset(self):
        clock = SlotClock(Numerology(mu=1), start_slot=40)
        assert clock.advance().frame == 2
