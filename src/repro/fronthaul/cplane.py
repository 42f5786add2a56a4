"""O-RAN C-plane messages (section types 1 and 3).

The DU instructs the RU how to schedule radio resources through C-plane
messages (Section 2.2, Figure 1b).  Section type 1 describes DL/UL data
channels; section type 3 describes PRACH and other mixed-numerology
channels and carries the ``freqOffset`` field that the RU-sharing
middlebox must translate (Appendix A.1.2).

The encodings below follow the O-RAN WG4 CUS specification layouts and
round-trip byte-exactly; the middleboxes mutate these bytes in place via
the A4 action.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fronthaul.compression import CompressionConfig
from repro.fronthaul.errors import MalformedFrame, TrailingBytes, TruncatedFrame
from repro.fronthaul.timing import SymbolTime

#: On-wire numPrb value meaning "all PRBs of the carrier" (needed because
#: the field is one byte but 100 MHz carriers have 273 PRBs).
ALL_PRBS = 0


class Direction(enum.IntEnum):
    """dataDirection bit: 0 = uplink (RU->DU), 1 = downlink (DU->RU)."""

    UPLINK = 0
    DOWNLINK = 1


class SectionType(enum.IntEnum):
    """C-plane section types implemented here."""

    DATA = 1  # DL/UL channel data (most common)
    PRACH = 3  # PRACH and mixed-numerology channels


@dataclass
class CPlaneSection:
    """One C-plane section: a rectangle of PRBs x symbols to process.

    ``num_prb`` is the logical PRB count; it serializes as 0 (ALL_PRBS)
    when it exceeds the one-byte range, and :meth:`unpack` resolves 0 back
    using the carrier size when provided.
    """

    section_id: int
    start_prb: int
    num_prb: int
    num_symbols: int = 14
    rb: int = 0  # 0 = every RB used, 1 = every other RB
    sym_inc: int = 0
    re_mask: int = 0xFFF
    beam_id: int = 0
    ef: int = 0
    # -- type 3 only --
    freq_offset: Optional[int] = None

    _TYPE1 = struct.Struct("!3sBHH")
    _TYPE3 = struct.Struct("!3sBHH3sB")

    def __post_init__(self) -> None:
        if not 0 <= self.section_id < (1 << 12):
            raise ValueError(f"sectionId out of range: {self.section_id}")
        if not 0 <= self.start_prb < (1 << 10):
            raise ValueError(f"startPrbc out of range: {self.start_prb}")
        if self.num_prb < 0:
            raise ValueError(f"numPrbc negative: {self.num_prb}")
        if not 1 <= self.num_symbols <= 14:
            raise ValueError(f"numSymbol out of range: {self.num_symbols}")

    @property
    def prb_range(self) -> Tuple[int, int]:
        """Half-open PRB interval [start, end) covered by this section."""
        return (self.start_prb, self.start_prb + self.num_prb)

    def _common_words(self) -> Tuple[bytes, int]:
        word = (
            ((self.section_id & 0xFFF) << 12)
            | ((self.rb & 0x1) << 11)
            | ((self.sym_inc & 0x1) << 10)
            | (self.start_prb & 0x3FF)
        )
        num_prb_byte = self.num_prb if 0 < self.num_prb <= 255 else ALL_PRBS
        return word.to_bytes(3, "big"), num_prb_byte

    def pack(self, section_type: SectionType) -> bytes:
        head, num_prb_byte = self._common_words()
        remask_word = ((self.re_mask & 0xFFF) << 4) | (self.num_symbols & 0xF)
        beam_word = ((self.ef & 0x1) << 15) | (self.beam_id & 0x7FFF)
        if section_type is SectionType.DATA:
            return self._TYPE1.pack(head, num_prb_byte, remask_word, beam_word)
        if self.freq_offset is None:
            raise ValueError("type 3 sections require freq_offset")
        freq = self.freq_offset & 0xFFFFFF  # 24-bit two's complement
        return self._TYPE3.pack(
            head, num_prb_byte, remask_word, beam_word, freq.to_bytes(3, "big"), 0
        )

    @classmethod
    def unpack(
        cls,
        data: bytes,
        offset: int,
        section_type: SectionType,
        carrier_num_prb: Optional[int] = None,
    ) -> Tuple["CPlaneSection", int]:
        layout = cls._TYPE1 if section_type is SectionType.DATA else cls._TYPE3
        if len(data) - offset < layout.size:
            raise TruncatedFrame("truncated C-plane section")
        fields = layout.unpack_from(data, offset)
        head = int.from_bytes(fields[0], "big")
        num_prb = fields[1]
        if num_prb == ALL_PRBS:
            if carrier_num_prb is None:
                raise ValueError(
                    "numPrbc=0 (all PRBs) needs carrier_num_prb to resolve"
                )
            num_prb = carrier_num_prb
        remask_word = fields[2]
        beam_word = fields[3]
        freq_offset = None
        if section_type is SectionType.PRACH:
            raw = int.from_bytes(fields[4], "big")
            freq_offset = raw - (1 << 24) if raw & (1 << 23) else raw
        section = cls(
            section_id=(head >> 12) & 0xFFF,
            rb=(head >> 11) & 0x1,
            sym_inc=(head >> 10) & 0x1,
            start_prb=head & 0x3FF,
            num_prb=num_prb,
            re_mask=(remask_word >> 4) & 0xFFF,
            num_symbols=remask_word & 0xF or 14,
            ef=(beam_word >> 15) & 0x1,
            beam_id=beam_word & 0x7FFF,
            freq_offset=freq_offset,
        )
        return section, offset + layout.size


@dataclass
class CPlaneMessage:
    """A full C-plane message: radio-application header plus sections."""

    direction: Direction
    time: SymbolTime
    sections: List[CPlaneSection] = field(default_factory=list)
    section_type: SectionType = SectionType.DATA
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    filter_index: int = 0
    # -- type 3 only --
    time_offset: int = 0
    frame_structure: int = 0
    cp_length: int = 0

    _HDR_COMMON = struct.Struct("!BBHBB")
    _HDR_TYPE1_TAIL = struct.Struct("!BB")
    _HDR_TYPE3_TAIL = struct.Struct("!HBHB")

    def pack(self) -> bytes:
        first = (
            ((int(self.direction) & 0x1) << 7)
            | ((1 & 0x7) << 4)  # payloadVersion = 1
            | (self.filter_index & 0xF)
        )
        timing = (
            ((self.time.subframe & 0xF) << 12)
            | ((self.time.slot & 0x3F) << 6)
            | (self.time.symbol & 0x3F)
        )
        out = bytearray(
            self._HDR_COMMON.pack(
                first,
                self.time.frame & 0xFF,
                timing,
                len(self.sections),
                int(self.section_type),
            )
        )
        if self.section_type is SectionType.DATA:
            out.extend(self._HDR_TYPE1_TAIL.pack(self.compression.to_byte(), 0))
        else:
            out.extend(
                self._HDR_TYPE3_TAIL.pack(
                    self.time_offset & 0xFFFF,
                    self.frame_structure & 0xFF,
                    self.cp_length & 0xFFFF,
                    self.compression.to_byte(),
                )
            )
        for section in self.sections:
            out.extend(section.pack(self.section_type))
        return bytes(out)

    @classmethod
    def unpack(
        cls, data: bytes, carrier_num_prb: Optional[int] = None
    ) -> "CPlaneMessage":
        if len(data) < cls._HDR_COMMON.size:
            raise TruncatedFrame("truncated C-plane header")
        first, frame, timing, n_sections, stype_raw = cls._HDR_COMMON.unpack_from(data)
        try:
            section_type = SectionType(stype_raw)
        except ValueError:
            raise MalformedFrame(
                f"unknown C-plane section type: {stype_raw}"
            ) from None
        offset = cls._HDR_COMMON.size
        time_offset = frame_structure = cp_length = 0
        if section_type is SectionType.DATA:
            if len(data) < offset + cls._HDR_TYPE1_TAIL.size:
                raise TruncatedFrame("truncated C-plane type-1 header")
            comp_byte, _ = cls._HDR_TYPE1_TAIL.unpack_from(data, offset)
            offset += cls._HDR_TYPE1_TAIL.size
        else:
            if len(data) < offset + cls._HDR_TYPE3_TAIL.size:
                raise TruncatedFrame("truncated C-plane type-3 header")
            time_offset, frame_structure, cp_length, comp_byte = (
                cls._HDR_TYPE3_TAIL.unpack_from(data, offset)
            )
            offset += cls._HDR_TYPE3_TAIL.size
        message = cls(
            direction=Direction((first >> 7) & 0x1),
            time=SymbolTime(
                frame,
                (timing >> 12) & 0xF,
                (timing >> 6) & 0x3F,
                timing & 0x3F,
            ),
            section_type=section_type,
            compression=CompressionConfig.from_byte(comp_byte),
            filter_index=first & 0xF,
            time_offset=time_offset,
            frame_structure=frame_structure,
            cp_length=cp_length,
        )
        for _ in range(n_sections):
            section, offset = CPlaneSection.unpack(
                data, offset, section_type, carrier_num_prb
            )
            message.sections.append(section)
        if offset != len(data):
            raise TrailingBytes(
                f"{len(data) - offset} trailing bytes after "
                f"{n_sections} C-plane sections"
            )
        return message

    def wire_size(self) -> int:
        """``len(self.pack())`` from the fixed struct sizes alone."""
        if self.section_type is SectionType.DATA:
            tail, section = self._HDR_TYPE1_TAIL, CPlaneSection._TYPE1
        else:
            tail, section = self._HDR_TYPE3_TAIL, CPlaneSection._TYPE3
        return (
            self._HDR_COMMON.size + tail.size + len(self.sections) * section.size
        )

    def total_prbs(self) -> int:
        """Total PRBs requested across all sections."""
        return sum(section.num_prb for section in self.sections)
