"""C-plane message codec tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fronthaul.compression import CompressionConfig
from repro.fronthaul.cplane import (
    CPlaneMessage,
    CPlaneSection,
    Direction,
    SectionType,
)
from repro.fronthaul.timing import symbol_time


def make_message(**kwargs):
    defaults = dict(
        direction=Direction.DOWNLINK,
        time=symbol_time(46, 9, 1, 0),
        sections=[CPlaneSection(section_id=1, start_prb=0, num_prb=106)],
    )
    defaults.update(kwargs)
    return CPlaneMessage(**defaults)


class TestCPlaneSection:
    def test_prb_range(self):
        section = CPlaneSection(section_id=1, start_prb=10, num_prb=50)
        assert section.prb_range == (10, 60)

    def test_validation(self):
        with pytest.raises(ValueError):
            CPlaneSection(section_id=4096, start_prb=0, num_prb=1)
        with pytest.raises(ValueError):
            CPlaneSection(section_id=0, start_prb=1024, num_prb=1)
        with pytest.raises(ValueError):
            CPlaneSection(section_id=0, start_prb=0, num_prb=1, num_symbols=0)

    def test_type3_requires_freq_offset(self):
        section = CPlaneSection(section_id=0, start_prb=0, num_prb=12)
        with pytest.raises(ValueError):
            section.pack(SectionType.PRACH)


class TestCPlaneMessage:
    def test_type1_roundtrip(self):
        message = make_message()
        parsed = CPlaneMessage.unpack(message.pack())
        assert parsed.direction is Direction.DOWNLINK
        assert parsed.time == message.time
        assert len(parsed.sections) == 1
        section = parsed.sections[0]
        assert section.section_id == 1
        assert section.prb_range == (0, 106)
        assert parsed.section_type is SectionType.DATA

    def test_uplink_direction_roundtrip(self):
        parsed = CPlaneMessage.unpack(
            make_message(direction=Direction.UPLINK).pack()
        )
        assert parsed.direction is Direction.UPLINK

    def test_multiple_sections(self):
        message = make_message(
            sections=[
                CPlaneSection(section_id=i, start_prb=i * 20, num_prb=20)
                for i in range(5)
            ]
        )
        parsed = CPlaneMessage.unpack(message.pack())
        assert [s.section_id for s in parsed.sections] == list(range(5))
        assert parsed.total_prbs() == 100

    def test_all_prbs_encoding(self):
        """numPrb > 255 uses the ALL_PRBS=0 wire convention and needs the
        carrier size to parse back (the 273-PRB case)."""
        message = make_message(
            sections=[CPlaneSection(section_id=0, start_prb=0, num_prb=273)]
        )
        parsed = CPlaneMessage.unpack(message.pack(), carrier_num_prb=273)
        assert parsed.sections[0].num_prb == 273

    def test_all_prbs_without_context_raises(self):
        message = make_message(
            sections=[CPlaneSection(section_id=0, start_prb=0, num_prb=273)]
        )
        with pytest.raises(ValueError):
            CPlaneMessage.unpack(message.pack())

    def test_compression_header_roundtrip(self):
        message = make_message(compression=CompressionConfig(iq_width=14))
        parsed = CPlaneMessage.unpack(message.pack())
        assert parsed.compression.iq_width == 14

    def test_type3_roundtrip_with_negative_offset(self):
        message = make_message(
            direction=Direction.UPLINK,
            section_type=SectionType.PRACH,
            sections=[
                CPlaneSection(
                    section_id=7, start_prb=0, num_prb=12, freq_offset=-1272
                )
            ],
            time_offset=100,
            frame_structure=0x41,
            cp_length=22,
            filter_index=1,
        )
        parsed = CPlaneMessage.unpack(message.pack())
        assert parsed.section_type is SectionType.PRACH
        assert parsed.sections[0].freq_offset == -1272
        assert parsed.time_offset == 100
        assert parsed.frame_structure == 0x41
        assert parsed.cp_length == 22
        assert parsed.filter_index == 1

    def test_beam_and_remask_fields(self):
        message = make_message(
            sections=[
                CPlaneSection(
                    section_id=9, start_prb=4, num_prb=8, re_mask=0xABC,
                    beam_id=1234, num_symbols=9,
                )
            ]
        )
        parsed = CPlaneMessage.unpack(message.pack())
        section = parsed.sections[0]
        assert section.re_mask == 0xABC
        assert section.beam_id == 1234
        assert section.num_symbols == 9

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            CPlaneMessage.unpack(make_message().pack()[:6])

    @settings(max_examples=60, deadline=None)
    @given(
        section_id=st.integers(min_value=0, max_value=4095),
        start_prb=st.integers(min_value=0, max_value=1023),
        num_prb=st.integers(min_value=1, max_value=255),
        num_symbols=st.integers(min_value=1, max_value=14),
        frame=st.integers(min_value=0, max_value=255),
        subframe=st.integers(min_value=0, max_value=9),
        slot=st.integers(min_value=0, max_value=1),
        symbol=st.integers(min_value=0, max_value=13),
    )
    def test_roundtrip_property(
        self, section_id, start_prb, num_prb, num_symbols, frame, subframe,
        slot, symbol,
    ):
        message = CPlaneMessage(
            direction=Direction.DOWNLINK,
            time=symbol_time(frame, subframe, slot, symbol),
            sections=[
                CPlaneSection(
                    section_id=section_id,
                    start_prb=start_prb,
                    num_prb=num_prb,
                    num_symbols=num_symbols,
                )
            ],
        )
        parsed = CPlaneMessage.unpack(message.pack())
        assert parsed.time == message.time
        section = parsed.sections[0]
        assert section.section_id == section_id
        assert section.start_prb == start_prb
        assert section.num_prb == num_prb
        assert section.num_symbols == num_symbols
