"""Top-level fronthaul packets: Ethernet + eCPRI + C/U-plane message.

:class:`FronthaulPacket` is the unit of work RANBooster middleboxes
receive, inspect, and rewrite.  It serializes to the full on-wire byte
sequence and parses back, so middlebox logic can be validated against
byte-exact round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.fronthaul.cplane import CPlaneMessage, Direction
from repro.fronthaul.ecpri import (
    ECPRI_HEADER_SIZE,
    EAxCId,
    EcpriHeader,
    EcpriMessageType,
)
from repro.fronthaul.errors import EcpriLengthError, MalformedFrame
from repro.fronthaul.ethernet import ETHERTYPE_ECPRI, EthernetHeader, MacAddress
from repro.fronthaul.uplane import UPlaneMessage

Message = Union[CPlaneMessage, UPlaneMessage]


def _fresh(obj):
    """A new object of ``obj``'s class holding the same field values."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(obj.__dict__)
    return twin


@dataclass
class FronthaulPacket:
    """One fronthaul Ethernet frame carrying a C-plane or U-plane message.

    ``eth`` addresses identify the DU/RU endpoints (rewritten by action
    A1); ``ecpri.eaxc`` identifies the antenna stream (rewritten by the
    dMIMO middlebox); ``message`` is the O-RAN payload (rewritten by A4).
    """

    eth: EthernetHeader
    ecpri: EcpriHeader
    message: Message

    @property
    def is_cplane(self) -> bool:
        return isinstance(self.message, CPlaneMessage)

    @property
    def is_uplane(self) -> bool:
        return isinstance(self.message, UPlaneMessage)

    @property
    def direction(self) -> Direction:
        return self.message.direction

    @property
    def time(self) -> int:
        return self.message.time

    @property
    def eaxc(self):
        return self.ecpri.eaxc

    def flow_key(self) -> Tuple:
        """(time, direction, ru_port): the key middlebox caches use."""
        return (self.message.time, self.message.direction, self.ecpri.eaxc.ru_port)

    def clone(self) -> "FronthaulPacket":
        """Independent copy — the substrate of the A2 (replicate) action.

        Structural, not deep: everything a middlebox may rewrite (the
        Ethernet and eCPRI headers, the message, its section list and
        every section) is a fresh object, while the leaves no one can
        mutate are shared — ``MacAddress``, ``VlanTag``, ``EAxCId``,
        ``CompressionConfig`` (frozen), the int timestamp, payload bytes or
        read-only frame views, and a section's read-only riding parse
        and pending payload (they describe the shared payload bytes; the
        encode pass packs once, whichever replica reads first).
        """
        message = _fresh(self.message)
        message.sections = [_fresh(section) for section in message.sections]
        return FronthaulPacket(_fresh(self.eth), _fresh(self.ecpri), message)

    def pack(self) -> bytes:
        body = self.message.pack()
        # payloadSize counts the eAxC id + seq id words (4 bytes) + body.
        header = self.ecpri.pack(payload_size=len(body) + 4)
        return b"".join((self.eth.pack(), header, body))

    @property
    def wire_size(self) -> int:
        """Serialized frame length in bytes (used for bandwidth accounting).

        Header arithmetic, never a serialisation: Ethernet (14, 18 with a
        VLAN tag) + the 8-byte eCPRI header + the message's own size.
        """
        return self.eth.size + ECPRI_HEADER_SIZE + self.message.wire_size()


def make_packet(
    src: MacAddress,
    dst: MacAddress,
    message: Message,
    seq_id: int = 0,
    eaxc=None,
) -> FronthaulPacket:
    """Convenience constructor used by the DU/RU models (untagged: a
    VLAN-tagged frame only arrives from outside, see
    :func:`parse_packet`)."""
    if eaxc is None:
        eaxc = EAxCId(du_port=0)
    message_type = (
        EcpriMessageType.RT_CONTROL
        if isinstance(message, CPlaneMessage)
        else EcpriMessageType.IQ_DATA
    )
    eth = EthernetHeader(dst=dst, src=src, ethertype=ETHERTYPE_ECPRI)
    ecpri = EcpriHeader(
        message_type=message_type, payload_size=0, eaxc=eaxc, seq_id=seq_id
    )
    return FronthaulPacket(eth=eth, ecpri=ecpri, message=message)


def parse_packet(
    data: bytes, carrier_num_prb: Optional[int] = None
) -> FronthaulPacket:
    """Parse a full on-wire frame back into a :class:`FronthaulPacket`.

    Strict: the eCPRI ``payloadSize`` field must account for every byte
    after the common header.  A truncated frame — even one cut exactly at
    a section boundary, which would otherwise parse as a shorter message
    — therefore raises :class:`EcpriLengthError` instead of silently
    decoding garbage IQ.
    """
    eth, offset = EthernetHeader.unpack(data)
    if eth.ethertype != ETHERTYPE_ECPRI:
        raise MalformedFrame(
            f"not an eCPRI frame: ethertype 0x{eth.ethertype:04x}"
        )
    ecpri, consumed = EcpriHeader.unpack(data[offset:])
    # payloadSize counts the eAxC id + seq id words (4 bytes) + the body.
    declared = ecpri.payload_size
    actual = len(data) - offset - ECPRI_HEADER_SIZE + 4
    if declared != actual:
        raise EcpriLengthError(
            f"eCPRI payloadSize {declared} != {actual} bytes on the wire"
        )
    if ecpri.message_type is EcpriMessageType.RT_CONTROL:
        message: Message = CPlaneMessage.unpack(
            data[offset + consumed :], carrier_num_prb
        )
    else:
        # Zero-copy: U-plane sections hold views into the frame buffer.
        body = memoryview(data)[offset + consumed :]
        message = UPlaneMessage.unpack(body, carrier_num_prb)
    return FronthaulPacket(eth=eth, ecpri=ecpri, message=message)
