"""Shared packet builders and the chain-stage tap for the conformance
test suite."""

import numpy as np

from repro.conformance import WireValidator
from repro.core.middlebox import ActionContext, Middlebox

from repro.fronthaul.cplane import (
    CPlaneMessage,
    CPlaneSection,
    Direction,
    SectionType,
)
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket, make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.ran.stacks import profile_by_name

SRC = MacAddress.from_int(0x02_00_00_00_00_01)
DST = MacAddress.from_int(0x02_00_00_00_00_02)
EAXC = EAxCId.from_int(0x0101)

SRS_COMPRESSION = profile_by_name("srsRAN").compression


def cplane_packet(
    start_prb=0,
    num_prb=10,
    seq=0,
    time=None,
    compression=None,
    direction=Direction.DOWNLINK,
    src=SRC,
    dst=DST,
    eaxc=EAXC,
):
    message = CPlaneMessage(
        direction=direction,
        time=time if time is not None else SymbolTime(0, 0, 0, 0),
        section_type=SectionType.DATA,
        compression=compression or SRS_COMPRESSION,
    )
    message.sections = [
        CPlaneSection(section_id=1, start_prb=start_prb, num_prb=num_prb)
    ]
    return make_packet(src=src, dst=dst, message=message, seq_id=seq, eaxc=eaxc)


def uplane_packet(
    start_prb=0,
    num_prb=4,
    seq=0,
    time=None,
    compression=None,
    payload=None,
    amplitude=7,
    samples=None,
    direction=Direction.DOWNLINK,
    src=SRC,
    dst=DST,
    eaxc=EAXC,
):
    compression = compression or SRS_COMPRESSION
    if payload is None:
        section = UPlaneSection.from_samples(
            section_id=1,
            start_prb=start_prb,
            samples=(
                np.full((num_prb, 24), amplitude, dtype=np.int16)
                if samples is None else samples
            ),
            compression=compression,
        )
    else:
        section = UPlaneSection(
            section_id=1,
            start_prb=start_prb,
            num_prb=num_prb,
            payload=payload,
            compression=compression,
        )
    message = UPlaneMessage(
        direction=direction,
        time=time if time is not None else SymbolTime(0, 0, 0, 0),
        sections=[section],
    )
    return make_packet(src=src, dst=dst, message=message, seq_id=seq, eaxc=eaxc)


class ConformanceTap(Middlebox):
    """A pass-through middlebox that validates every packet it forwards:
    a validator at a chain stage boundary, both directions."""

    app_name = "conformance-tap"

    def __init__(self, validator: WireValidator, **kwargs):
        super().__init__(**kwargs)
        self.validator = validator

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        self.validator.observe(packet, tap=self.name)
        ctx.forward(packet)

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        self.validator.observe(packet, tap=self.name)
        ctx.forward(packet)
