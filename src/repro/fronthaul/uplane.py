"""O-RAN U-plane messages: IQ sample transport.

U-plane messages carry the modulated radio waveform between DU and RU as
per-subcarrier IQ samples, BFP-compressed per PRB (Section 2.2, Figure 2).
These are the packets the DAS middlebox sums element-wise, the RU-sharing
middlebox multiplexes/demultiplexes, and the PRB monitor inspects.

Payloads are stored as raw wire bytes so that middleboxes can exercise the
same fast paths as the C implementation: reading an exponent byte does not
decompress the PRB, and aligned PRB copies are byte-range copies.  Parsing
is zero-copy — sections hold :class:`memoryview` slices into the received
frame rather than copied bytes — and IQ is decoded only on request, so a
pass-through middlebox never touches the codec.  A section whose payload
this process encoded also carries the encoder's ``(shifts, mantissas)``,
so decoding it unpacks no bits, and its wire bytes are packed only when
something reads them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fronthaul.compression import (
    NO_COMP_METH,
    SAMPLES_PER_PRB,
    CompressionConfig,
    Parse,
    PendingWire,
    codec_for,
)
from repro.fronthaul.cplane import ALL_PRBS, Direction
from repro.fronthaul.errors import TruncatedFrame
from repro.fronthaul.timing import SymbolTime

_HDR = struct.Struct("!BBH")
_SECTION_HDR = struct.Struct("!3sBBB")

#: Wire payloads may be owned bytes or zero-copy views into a frame.
PayloadBytes = Union[bytes, memoryview]


class _PackedOnRead:
    """A pending ``payload``, packed by its first read into a plain attribute
    (a non-data descriptor; class access raises: no dataclass default)."""

    def __get__(self, section, owner=None):
        if section is None:
            raise AttributeError("payload")
        section.payload = payload = section._pending.read()
        section._pending = None
        return payload


@dataclass
class UPlaneSection:
    """One U-plane section: a PRB range plus its compressed IQ payload.

    ``payload`` may be a :class:`memoryview` into the original frame (the
    zero-copy parse path) — use :meth:`payload_bytes` when owned bytes are
    required.

    Every in-process encode (:meth:`from_samples`, :meth:`from_ranges`,
    :meth:`replace_payload`, :meth:`merged`) leaves the encoder's parse
    riding on the section it builds and its payload pending, packed with
    its whole encode pass by the first read of ``payload`` (as ``pack``,
    ``==``, ``repr``, ``deepcopy`` and ``replace`` do).  Both are private;
    ``clone`` shares them, ``replace`` drops them, :meth:`unpack` never
    has them, and :meth:`shed_parse` ends the parse.
    """

    section_id: int
    start_prb: int
    num_prb: int
    payload: PayloadBytes = _PackedOnRead()
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    rb: int = 0
    sym_inc: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.section_id < (1 << 12):
            raise ValueError(f"sectionId out of range: {self.section_id}")
        if not 0 <= self.start_prb < (1 << 10):
            raise ValueError(f"startPrbu out of range: {self.start_prb}")
        self._parse: Optional[Parse] = None  # riding; None off a wire
        self._pending: Optional[PendingWire] = None
        payload = self.payload
        if isinstance(payload, PendingWire):  # an encode site's
            self._pending = self.__dict__.pop("payload")
        expected = self.num_prb * self.compression.prb_payload_bytes()
        if len(payload) != expected:
            raise ValueError(
                f"payload size {len(payload)} does not match "
                f"{self.num_prb} PRBs ({expected} bytes)"
            )

    def __deepcopy__(self, memo) -> "UPlaneSection":
        # memoryview payloads cannot be deep-copied; materialize to bytes.
        # Same bytes, and the parse is read-only: safe to share.
        return replace(self, payload=self.payload_bytes())._riding(self._parse)

    @property
    def prb_range(self) -> Tuple[int, int]:
        return (self.start_prb, self.start_prb + self.num_prb)

    def payload_bytes(self) -> bytes:
        """The payload as owned ``bytes`` (copies only if zero-copy view)."""
        if isinstance(self.payload, bytes):
            return self.payload
        return bytes(self.payload)

    # -- IQ helpers (action A4 building blocks) -----------------------------

    def iq_samples(self) -> np.ndarray:
        """Decompress to int16 samples of shape (num_prb, 24): a fresh
        array per call, the caller's to modify."""
        codec = codec_for(self.compression)
        return codec.decompress_array(*self._parsed(codec))

    def _parsed(self, codec) -> Parse:
        """The riding parse, or the wire bytes parsed (and not kept)."""
        if self._parse is not None:
            return self._parse
        return codec.parse_wire(self.payload, self.num_prb)

    def _riding(self, parse: Optional[Parse]) -> "UPlaneSection":
        """This section, now carrying the parse its payload was packed
        from (callers: the encode sites below and ``__deepcopy__``)."""
        self._parse = parse
        return self

    def shed_parse(self) -> None:
        """Keep the wire bytes, drop the riding parse.  For a holder that
        keeps the section past its datapath life (the DU's reception
        log): a parse — and a pending payload — pins its whole codec pass."""
        self.payload  # packs a pending payload
        self._parse = None

    def parse_rows(self, count: int) -> Parse:
        """The first ``count`` PRBs' parse, the caller's to keep: riding
        rows copied (a view pins the pass), or the wire bytes parsed."""
        if self._parse is None:
            return codec_for(self.compression).parse_wire(self.payload, count)
        shifts, mantissas = self._parse
        return shifts[:count].copy(), mantissas[:count].copy()

    def exponents(self) -> np.ndarray:
        """Per-PRB compression params without decompressing (Algorithm 1).

        BFP exponents for BFP payloads, modcomp scalers for modulation
        compression — either way a per-PRB energy indicator whose zero
        value marks an idle PRB, which is all the PRB monitor needs (a
        riding parse holds them: reading them packs nothing)."""
        if self._parse is not None and self.compression.comp_meth != NO_COMP_METH:
            return self._parse[0]
        return codec_for(self.compression).read_exponents(
            self.payload, self.num_prb
        )

    def prb_payload(self, prb: int) -> bytes:
        """Raw wire bytes of one PRB relative to this section's range."""
        size = self.compression.prb_payload_bytes()
        index = prb - self.start_prb
        if not 0 <= index < self.num_prb:
            raise ValueError(f"PRB {prb} outside section range {self.prb_range}")
        return bytes(self.payload[index * size : (index + 1) * size])

    def prb_payload_view(self, start_prb: int, num_prb: int) -> PayloadBytes:
        """Zero-copy view over a contiguous PRB range of the payload."""
        size = self.compression.prb_payload_bytes()
        index = start_prb - self.start_prb
        if not (0 <= index and index + num_prb <= self.num_prb):
            raise ValueError(
                f"PRB range [{start_prb}, {start_prb + num_prb}) outside "
                f"section range {self.prb_range}"
            )
        view = memoryview(self.payload)[
            index * size : (index + num_prb) * size
        ]
        return view

    def subsection(
        self, start_prb: int, num_prb: int, section_id: Optional[int] = None
    ) -> "UPlaneSection":
        """A new section over a PRB sub-range, sharing payload bytes."""
        return UPlaneSection(
            section_id=self.section_id if section_id is None else section_id,
            start_prb=start_prb,
            num_prb=num_prb,
            payload=self.prb_payload_view(start_prb, num_prb),
            compression=self.compression,
            rb=self.rb,
            sym_inc=self.sym_inc,
        )

    def replace_payload(self, samples: np.ndarray) -> "UPlaneSection":
        """Return a copy with recompressed IQ samples."""
        ((parse, payload),) = codec_for(self.compression).encode_ranges([samples])
        return replace(self, payload=payload)._riding(parse)

    @classmethod
    def from_samples(
        cls,
        section_id: int,
        start_prb: int,
        samples: np.ndarray,
        compression: CompressionConfig = CompressionConfig(),
    ) -> "UPlaneSection":
        """Build a section by compressing int16 samples of shape (n, 24)."""
        return cls.from_ranges([(section_id, start_prb, samples)], compression)[0]

    @classmethod
    def from_ranges(
        cls,
        pieces: Sequence[Tuple[int, int, np.ndarray]],
        compression: CompressionConfig,
    ) -> List["UPlaneSection"]:
        """One section per ``(section_id, start_prb, samples)`` piece, all
        compressed in one blocked codec pass (the slot builders' entry)."""
        encoded = codec_for(compression).encode_ranges(
            [samples for _, _, samples in pieces]
        )
        return [
            cls(
                section_id=section_id,
                start_prb=start_prb,
                num_prb=len(samples),
                payload=payload,
                compression=compression,
            )._riding(parse)
            for (section_id, start_prb, samples), (parse, payload) in zip(
                pieces, encoded
            )
        ]

    @classmethod
    def merged(cls, sections: Sequence["UPlaneSection"]) -> "UPlaneSection":
        """The saturating element-wise IQ sum of aligned sections of one
        compression, under the first one's section id and PRB range.

        Riding operands are expanded from their parse (a shift and a
        clip); only wire-parsed ones are unpacked.  A lone riding operand
        is forwarded byte for byte: its payload is canonical (this
        process's encoder chose the shifts), the saturating sum of one
        int16 operand is the identity, and re-encoding a decoded payload
        reproduces it (``recompression_stable``) — a pending payload is
        forwarded still pending, sharing the operand's pass.  A
        wire-parsed operand may not be canonical and is renormalised.
        """
        first = sections[0]
        codec = codec_for(first.compression)
        if (
            len(sections) == 1
            and first._parse is not None
            and codec.recompression_stable
        ):
            payload = first.payload if first._pending is None else first._pending
            parse = first._parse
        else:
            parses = [section._parsed(codec) for section in sections]
            stack = codec.decompress_array(
                np.concatenate([shifts for shifts, _ in parses]),
                np.concatenate([mantissas for _, mantissas in parses]),
            ).reshape(len(sections), first.num_prb, 2 * SAMPLES_PER_PRB)
            # int32 accumulation, int16 saturation, one encode.
            total = stack.sum(axis=0, dtype=np.int32).clip(-32768, 32767)
            ((parse, payload),) = codec.encode_ranges([total.astype(np.int16)])
        return cls(
            section_id=first.section_id,
            start_prb=first.start_prb,
            num_prb=first.num_prb,
            payload=payload,
            compression=first.compression,
        )._riding(parse)

    def pack(self) -> bytes:
        word = (
            ((self.section_id & 0xFFF) << 12)
            | ((self.rb & 0x1) << 11)
            | ((self.sym_inc & 0x1) << 10)
            | (self.start_prb & 0x3FF)
        )
        num_prb_byte = self.num_prb if 0 < self.num_prb <= 255 else ALL_PRBS
        header = _SECTION_HDR.pack(
            word.to_bytes(3, "big"),
            num_prb_byte,
            self.compression.to_byte(),
            0,
        )
        # join() accepts the zero-copy memoryview payload directly.
        return b"".join((header, self.payload))

    @classmethod
    def unpack(
        cls, data: PayloadBytes, offset: int, carrier_num_prb: Optional[int] = None
    ) -> Tuple["UPlaneSection", int]:
        if len(data) - offset < _SECTION_HDR.size:
            raise TruncatedFrame("truncated U-plane section header")
        head, num_prb, comp_byte, _ = _SECTION_HDR.unpack_from(data, offset)
        head = int.from_bytes(head, "big")
        offset += _SECTION_HDR.size
        if num_prb == ALL_PRBS:
            if carrier_num_prb is None:
                raise ValueError("numPrbu=0 (all PRBs) needs carrier_num_prb")
            num_prb = carrier_num_prb
        compression = CompressionConfig.from_byte(comp_byte)
        payload_size = num_prb * compression.prb_payload_bytes()
        if len(data) - offset < payload_size:
            raise TruncatedFrame("truncated U-plane payload")
        # Zero-copy: the section references the original frame buffer.
        section = cls(
            section_id=(head >> 12) & 0xFFF,
            rb=(head >> 11) & 0x1,
            sym_inc=(head >> 10) & 0x1,
            start_prb=head & 0x3FF,
            num_prb=num_prb,
            payload=memoryview(data)[offset : offset + payload_size],
            compression=compression,
        )
        return section, offset + payload_size


@dataclass
class UPlaneMessage:
    """A full U-plane message: timing header plus IQ sections."""

    direction: Direction
    time: SymbolTime
    sections: List[UPlaneSection] = field(default_factory=list)
    filter_index: int = 0

    def pack(self) -> bytes:
        first = (
            ((int(self.direction) & 0x1) << 7)
            | ((1 & 0x7) << 4)
            | (self.filter_index & 0xF)
        )
        timing = (
            ((self.time.subframe & 0xF) << 12)
            | ((self.time.slot & 0x3F) << 6)
            | (self.time.symbol & 0x3F)
        )
        parts = [_HDR.pack(first, self.time.frame & 0xFF, timing)]
        parts.extend(section.pack() for section in self.sections)
        return b"".join(parts)

    @classmethod
    def unpack(
        cls, data: PayloadBytes, carrier_num_prb: Optional[int] = None
    ) -> "UPlaneMessage":
        if len(data) < _HDR.size:
            raise TruncatedFrame("truncated U-plane header")
        first, frame, timing = _HDR.unpack_from(data)
        message = cls(
            direction=Direction((first >> 7) & 0x1),
            time=SymbolTime(
                frame,
                (timing >> 12) & 0xF,
                (timing >> 6) & 0x3F,
                timing & 0x3F,
            ),
            filter_index=first & 0xF,
        )
        offset = _HDR.size
        while offset < len(data):
            section, offset = UPlaneSection.unpack(data, offset, carrier_num_prb)
            message.sections.append(section)
        return message

    def wire_size(self) -> int:
        """``len(self.pack())`` without packing or reading a payload:
        headers + ``num_prb`` x the codec's PRB size per section."""
        size = _HDR.size
        for section in self.sections:
            size += _SECTION_HDR.size + section.num_prb * section.compression.prb_payload_bytes()
        return size

    def total_prbs(self) -> int:
        return sum(section.num_prb for section in self.sections)
