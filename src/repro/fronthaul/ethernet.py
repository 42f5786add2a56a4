"""Ethernet II framing with optional 802.1Q VLAN tags.

The O-RAN fronthaul is Ethernet-based (Section 2.2 of the paper): every
C-plane and U-plane message is an Ethernet frame whose source/destination
addresses identify the DU and RU endpoints.  RANBooster's A1 action (route
and drop) works by rewriting exactly these fields, so the framing layer is
implemented as a real, byte-accurate codec.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.fronthaul.errors import TruncatedFrame

ETHERTYPE_ECPRI = 0xAEFE
ETHERTYPE_VLAN = 0x8100

_HDR_NO_VLAN = struct.Struct("!6s6sH")
_HDR_VLAN = struct.Struct("!6s6sHHH")


@dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit IEEE MAC address.

    Stored canonically as 6 raw bytes; constructed from either raw bytes or
    the usual colon-separated string form.
    """

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != 6:
            raise ValueError(f"MAC address must be 6 bytes, got {len(self.raw)}")

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` (case-insensitive)."""
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"malformed MAC address: {text!r}")
        return cls(bytes(int(p, 16) for p in parts))

    @classmethod
    def from_int(cls, value: int) -> "MacAddress":
        """Build a MAC from a 48-bit integer (useful for generated fleets)."""
        if not 0 <= value < (1 << 48):
            raise ValueError(f"MAC integer out of range: {value}")
        return cls(value.to_bytes(6, "big"))

    def to_int(self) -> int:
        return int.from_bytes(self.raw, "big")

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.raw)


@dataclass(frozen=True)
class VlanTag:
    """An 802.1Q tag: priority code point, drop eligible indicator, VLAN id."""

    vlan_id: int
    priority: int = 0
    dei: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.vlan_id < 4096:
            raise ValueError(f"VLAN id out of range: {self.vlan_id}")
        if not 0 <= self.priority < 8:
            raise ValueError(f"VLAN priority out of range: {self.priority}")

    def to_tci(self) -> int:
        return (self.priority << 13) | (int(self.dei) << 12) | self.vlan_id

    @classmethod
    def from_tci(cls, tci: int) -> "VlanTag":
        return cls(
            vlan_id=tci & 0x0FFF,
            priority=(tci >> 13) & 0x7,
            dei=bool((tci >> 12) & 0x1),
        )


@dataclass
class EthernetHeader:
    """An Ethernet II header, optionally VLAN-tagged.

    ``ethertype`` is the *inner* ethertype (0xAEFE for eCPRI fronthaul
    traffic); when ``vlan`` is present the outer TPID 0x8100 is emitted
    automatically.
    """

    dst: MacAddress
    src: MacAddress
    ethertype: int = ETHERTYPE_ECPRI
    vlan: Optional[VlanTag] = None

    @property
    def size(self) -> int:
        """Serialized header length in bytes (14 untagged, 18 tagged)."""
        return _HDR_VLAN.size if self.vlan is not None else _HDR_NO_VLAN.size

    def pack(self) -> bytes:
        if self.vlan is not None:
            return _HDR_VLAN.pack(
                self.dst.raw,
                self.src.raw,
                ETHERTYPE_VLAN,
                self.vlan.to_tci(),
                self.ethertype,
            )
        return _HDR_NO_VLAN.pack(self.dst.raw, self.src.raw, self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["EthernetHeader", int]:
        """Parse a header from ``data``; return (header, bytes consumed)."""
        if len(data) < _HDR_NO_VLAN.size:
            raise TruncatedFrame("truncated Ethernet header")
        dst, src, ethertype = _HDR_NO_VLAN.unpack_from(data)
        if ethertype != ETHERTYPE_VLAN:
            return (
                cls(dst=MacAddress(dst), src=MacAddress(src), ethertype=ethertype),
                _HDR_NO_VLAN.size,
            )
        if len(data) < _HDR_VLAN.size:
            raise TruncatedFrame("truncated 802.1Q header")
        dst, src, _, tci, inner = _HDR_VLAN.unpack_from(data)
        return (
            cls(
                dst=MacAddress(dst),
                src=MacAddress(src),
                ethertype=inner,
                vlan=VlanTag.from_tci(tci),
            ),
            _HDR_VLAN.size,
        )
