"""O-RAN WG4 open fronthaul protocol substrate.

Implements the CUS-plane wire formats the paper's middleboxes operate on:

- :mod:`repro.fronthaul.ethernet` -- Ethernet II + 802.1Q VLAN framing.
- :mod:`repro.fronthaul.ecpri` -- eCPRI transport header and eAxC ids.
- :mod:`repro.fronthaul.cplane` -- C-plane section type 1 (data) and
  type 3 (PRACH) messages.
- :mod:`repro.fronthaul.uplane` -- U-plane messages carrying IQ samples.
- :mod:`repro.fronthaul.compression` -- Block Floating Point compression.
- :mod:`repro.fronthaul.timing` -- 5G NR frame structure and TDD patterns.
- :mod:`repro.fronthaul.spectrum` -- PRB grids and the Appendix A.1.1
  center-frequency alignment math.
- :mod:`repro.fronthaul.prach` -- PRACH frequency-offset translation
  (Appendix A.1.2, eqs. 5-11).
- :mod:`repro.fronthaul.packet` -- top-level parse/serialize entry points.
"""

from repro.fronthaul.errors import (
    EcpriLengthError,
    MalformedFrame,
    TrailingBytes,
    TruncatedFrame,
)
from repro.fronthaul.ethernet import EthernetHeader, MacAddress, VlanTag
from repro.fronthaul.ecpri import EAxCId, EcpriHeader, EcpriMessageType
from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MOD_COMP_METH,
    BfpCompressor,
    CompressionConfig,
    codec_for,
)
from repro.fronthaul.modcomp import ModCompressor
from repro.fronthaul.timing import Numerology, SlotClock, TddPattern, symbol_time
from repro.fronthaul.spectrum import PrbGrid, aligned_du_center_frequency
from repro.fronthaul.cplane import (
    CPlaneMessage,
    CPlaneSection,
    Direction,
    SectionType,
)
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.fronthaul.packet import FronthaulPacket, parse_packet

__all__ = [
    "MalformedFrame",
    "TruncatedFrame",
    "EcpriLengthError",
    "TrailingBytes",
    "EthernetHeader",
    "MacAddress",
    "VlanTag",
    "EAxCId",
    "EcpriHeader",
    "EcpriMessageType",
    "BFP_COMP_METH",
    "MOD_COMP_METH",
    "BfpCompressor",
    "ModCompressor",
    "CompressionConfig",
    "codec_for",
    "Numerology",
    "SlotClock",
    "TddPattern",
    "symbol_time",
    "PrbGrid",
    "aligned_du_center_frequency",
    "CPlaneMessage",
    "CPlaneSection",
    "Direction",
    "SectionType",
    "UPlaneMessage",
    "UPlaneSection",
    "FronthaulPacket",
    "parse_packet",
]
