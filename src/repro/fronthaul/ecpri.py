"""eCPRI transport header and eAxC (antenna-carrier) identifiers.

The O-RAN fronthaul rides on eCPRI over Ethernet.  Each message carries a
4-byte eCPRI common header followed by a 2-byte eAxC id (``ecpriPcid`` for
U-plane, ``ecpriRtcid`` for C-plane) and a 2-byte sequence id.

The eAxC id is the field the dMIMO middlebox rewrites: its ``ru_port``
sub-field identifies the logical antenna stream, and remapping it gives the
DU the illusion of a single large virtual RU (Section 4.2 of the paper).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.fronthaul.errors import MalformedFrame, TruncatedFrame

ECPRI_VERSION = 1

#: Common header (version byte, type, payloadSize) + eAxC id + seq id.
_HEADER = struct.Struct("!BBHHH")

ECPRI_HEADER_SIZE = _HEADER.size


class EcpriMessageType(enum.IntEnum):
    """eCPRI message types used by the O-RAN fronthaul."""

    IQ_DATA = 0  # U-plane
    RT_CONTROL = 2  # C-plane


@dataclass(frozen=True)
class EAxCId:
    """A 16-bit eAxC id split into DU port / band-sector / CC / RU port.

    The bit widths of the four sub-fields are deployment-configurable in
    O-RAN; the widths used here (and by our testbed captures, Figure 2)
    are 4/4/4/4 by default.
    """

    du_port: int
    band_sector: int = 0
    cc: int = 0
    ru_port: int = 0
    widths: Tuple[int, int, int, int] = (4, 4, 4, 4)

    def __post_init__(self) -> None:
        if sum(self.widths) != 16:
            raise ValueError(f"eAxC field widths must sum to 16: {self.widths}")
        for name, value, width in zip(
            ("du_port", "band_sector", "cc", "ru_port"),
            (self.du_port, self.band_sector, self.cc, self.ru_port),
            self.widths,
        ):
            if not 0 <= value < (1 << width):
                raise ValueError(f"eAxC {name}={value} exceeds {width} bits")
        # The wire value, computed once: every span row, stream key and
        # header pack reads it.
        w_du, w_bs, w_cc, w_ru = self.widths
        value = self.du_port
        value = (value << w_bs) | self.band_sector
        value = (value << w_cc) | self.cc
        value = (value << w_ru) | self.ru_port
        object.__setattr__(self, "_value", value)

    def to_int(self) -> int:
        return self._value

    @classmethod
    def from_int(
        cls, value: int, widths: Tuple[int, int, int, int] = (4, 4, 4, 4)
    ) -> "EAxCId":
        if not 0 <= value < (1 << 16):
            raise ValueError(f"eAxC id out of range: {value}")
        w_du, w_bs, w_cc, w_ru = widths
        ru_port = value & ((1 << w_ru) - 1)
        value >>= w_ru
        cc = value & ((1 << w_cc) - 1)
        value >>= w_cc
        band_sector = value & ((1 << w_bs) - 1)
        value >>= w_bs
        du_port = value
        return cls(du_port, band_sector, cc, ru_port, widths)

    def with_ru_port(self, ru_port: int) -> "EAxCId":
        """Return a copy with a different RU port (dMIMO's A4 remap)."""
        return replace(self, ru_port=ru_port)


@dataclass
class EcpriHeader:
    """eCPRI common header + eAxC id + sequence id.

    ``seq_id`` increments per eAxC flow; ``e_bit`` marks the last fragment
    of a message (always set here: the simulator does not fragment) and
    ``sub_seq_id`` numbers fragments within a message.
    """

    message_type: EcpriMessageType
    payload_size: int
    eaxc: EAxCId
    seq_id: int = 0
    e_bit: bool = True
    sub_seq_id: int = 0

    def pack(self, payload_size: Optional[int] = None) -> bytes:
        """Serialize; ``payload_size`` overrides the stored field (the
        packet layer knows the body length only when it packs)."""
        first = (ECPRI_VERSION << 4) & 0xF0  # reserved and C bits zero
        seq_byte = (int(self.e_bit) << 7) | (self.sub_seq_id & 0x7F)
        return _HEADER.pack(
            first,
            int(self.message_type),
            self.payload_size if payload_size is None else payload_size,
            self.eaxc.to_int(),
            ((self.seq_id & 0xFF) << 8) | seq_byte,
        )

    @classmethod
    def unpack(
        cls, data: bytes, widths: Tuple[int, int, int, int] = (4, 4, 4, 4)
    ) -> Tuple["EcpriHeader", int]:
        if len(data) < ECPRI_HEADER_SIZE:
            raise TruncatedFrame("truncated eCPRI header")
        first, msg_type, payload_size, eaxc_raw, seq_raw = _HEADER.unpack_from(
            data
        )
        version = (first >> 4) & 0xF
        if version != ECPRI_VERSION:
            raise MalformedFrame(f"unsupported eCPRI version: {version}")
        try:
            message_type = EcpriMessageType(msg_type)
        except ValueError:
            raise MalformedFrame(
                f"unknown eCPRI message type: {msg_type}"
            ) from None
        header = cls(
            message_type=message_type,
            payload_size=payload_size,
            eaxc=EAxCId.from_int(eaxc_raw, widths),
            seq_id=(seq_raw >> 8) & 0xFF,
            e_bit=bool((seq_raw >> 7) & 0x1),
            sub_seq_id=seq_raw & 0x7F,
        )
        return header, ECPRI_HEADER_SIZE
