"""The per-packet conformance oracle the burst validator is held to.

:class:`PacketValidator` is :class:`repro.conformance.WireValidator` as it
was written before the datapath checked a burst per call: one
``observe(packet)`` per frame, ten-odd method calls each, every BFP
exponent and modcomp parameter read from the section's wire bytes (so a
riding section's encode pass is packed).  It shares the violation
taxonomy, the report, the sequence tracker and the metric families with
the real validator, so on any frame sequence both must leave an equal
``ConformanceReport.to_dict()`` and equal ``conformance_*`` counters
(``tests/conformance/test_burst_oracle.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro import obs as obs_module
from repro.conformance.violations import (
    ConformanceReport,
    Violation,
    ViolationClass,
)
from repro.faults.sequence import SequenceTracker, SeqVerdict
from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MAX_WIRE_EXPONENT,
    MOD_COMP_METH,
    CompressionConfig,
)
from repro.fronthaul.modcomp import ModCompressor, max_scaler
from repro.fronthaul.cplane import CPlaneMessage, Direction
from repro.fronthaul.ecpri import EcpriMessageType
from repro.fronthaul.errors import EcpriLengthError, MalformedFrame
from repro.fronthaul.packet import FronthaulPacket, parse_packet
from repro.fronthaul.timing import (
    MAX_FRAME_ID,
    Numerology,
    absolute_slot,
    slot_id,
    time_fields,
)
from repro.fronthaul.uplane import UPlaneMessage
from repro.obs.metrics import declare
from repro.ran.stacks import VendorProfile

#: Scheduled C-plane windows retained per direction before eviction.
_WINDOW_CAP = 1024

_FRAMES = declare(
    "counter", "conformance_frames_total",
    "frames checked by the conformance validator",
    ("validator",),
)
_VIOLATIONS = declare(
    "counter", "conformance_violations_total",
    "conformance violations by validator and class",
    ("validator", "class"),
)


def _legal_max_exponent(iq_width: int) -> int:
    """Largest BFP exponent reachable from int16 samples of this width.

    int16 needs at most 16 bits, so a legal exponent never exceeds
    ``16 - iq_width``; the 4-bit wire nibble caps it at 15 regardless.
    """
    return min(MAX_WIRE_EXPONENT, max(0, 16 - iq_width))


class PacketValidator:
    """The packet-at-a-time validator (the oracle)."""

    def __init__(
        self,
        name: str = "validator",
        profile: Optional[VendorProfile] = None,
        carrier_num_prb: Optional[int] = None,
        numerology: Optional[Numerology] = None,
        obs=None,
        report: Optional[ConformanceReport] = None,
        allowed_compressions=None,
    ):
        self.name = name
        self.profile = profile
        #: The set of negotiated wire configs legal on this tap.  When
        #: given it overrides the profile-derived single expectation —
        #: mixed-codec groups list every member cell's negotiation here.
        #: ``None`` falls back to the profile's BFP config (or no
        #: udCompHdr expectation at all when the profile is None too).
        if allowed_compressions is not None:
            self.allowed_compressions: Optional[frozenset] = frozenset(
                allowed_compressions
            )
        elif profile is not None:
            self.allowed_compressions = frozenset((profile.compression,))
        else:
            self.allowed_compressions = None
        self.carrier_num_prb = carrier_num_prb
        self.numerology = numerology or Numerology()
        self.obs = obs if obs is not None else obs_module.DEFAULT_OBSERVABILITY
        self.report = report if report is not None else ConformanceReport()
        self._tracker = SequenceTracker(name=f"{name}-seq", obs=self.obs)
        #: direction -> {(slot_key, ru_port): [(start, end), ...]}
        self._windows = {
            Direction.DOWNLINK: OrderedDict(),
            Direction.UPLINK: OrderedDict(),
        }
        #: (src, dst, eaxc) -> last absolute slot (mod the 256-frame epoch).
        self._last_slot = {}

    # -- entry points --------------------------------------------------------

    def observe_bytes(self, data: bytes, tap: str = "") -> List[Violation]:
        """Validate a raw on-wire frame; classify parse failures too."""
        try:
            packet = parse_packet(data, carrier_num_prb=self.carrier_num_prb)
        except EcpriLengthError as exc:
            return self._parse_failure(
                ViolationClass.BAD_ECPRI_LENGTH, exc, tap
            )
        except (MalformedFrame, ValueError) as exc:
            return self._parse_failure(
                ViolationClass.MALFORMED_FRAME, exc, tap
            )
        return self.observe(packet, tap=tap)

    def observe(
        self, packet: FronthaulPacket, tap: str = ""
    ) -> List[Violation]:
        """Validate one parsed packet and update stream state."""
        self.report.frames_checked += 1
        found: List[Violation] = []
        self._check_ecpri(packet, tap, found)
        if packet.is_cplane:
            self._check_sections(packet, tap, found)
            self._check_cplane_compression(packet, tap, found)
            self._record_windows(packet)
        elif packet.is_uplane:
            self._check_sections(packet, tap, found)
            self._check_compression(packet, tap, found)
            self._check_accounting(packet, tap, found)
        stream = self._stream_key(packet)
        self._check_sequence(packet, stream, tap, found)
        self._check_timing(packet, stream, tap, found)
        for violation in found:
            self.report.record(violation)
        self._export(found)
        return found

    # -- individual checks ---------------------------------------------------

    def _violation(
        self,
        packet: Optional[FronthaulPacket],
        violation_class: ViolationClass,
        detail: str,
        tap: str,
    ) -> Violation:
        if packet is None:
            return Violation(violation_class, detail, tap=tap)
        return Violation(
            violation_class,
            detail,
            tap=tap,
            src=str(packet.eth.src),
            eaxc=packet.eaxc.to_int(),
            seq=packet.ecpri.seq_id,
            time=time_fields(packet.time),
        )

    def _parse_failure(
        self, violation_class: ViolationClass, exc: Exception, tap: str
    ) -> List[Violation]:
        self.report.frames_checked += 1
        violation = Violation(violation_class, str(exc), tap=tap)
        self.report.record(violation)
        self._export([violation])
        return [violation]

    def _check_ecpri(
        self, packet: FronthaulPacket, tap: str, found: List[Violation]
    ) -> None:
        expected_type = (
            EcpriMessageType.RT_CONTROL
            if packet.is_cplane
            else EcpriMessageType.IQ_DATA
        )
        if packet.ecpri.message_type is not expected_type:
            found.append(
                self._violation(
                    packet,
                    ViolationClass.MALFORMED_FRAME,
                    f"eCPRI message type {packet.ecpri.message_type} does "
                    f"not match a {type(packet.message).__name__} payload",
                    tap,
                )
            )
        # In-memory packets built by make_packet() carry payload_size=0
        # ("fill in at pack time"); only a nonzero declared size can lie.
        declared = packet.ecpri.payload_size
        if declared:
            actual = packet.message.wire_size() + 4
            if declared != actual:
                found.append(
                    self._violation(
                        packet,
                        ViolationClass.BAD_ECPRI_LENGTH,
                        f"eCPRI payloadSize {declared} != {actual} bytes "
                        "of message body",
                        tap,
                    )
                )

    def _check_sections(
        self, packet: FronthaulPacket, tap: str, found: List[Violation]
    ) -> None:
        claimed: List[Tuple[int, int]] = []
        for section in packet.message.sections:
            start, end = section.prb_range
            if section.num_prb < 1:
                found.append(
                    self._violation(
                        packet,
                        ViolationClass.SECTION_STRUCTURE,
                        f"section {section.section_id} covers no PRBs",
                        tap,
                    )
                )
                continue
            if (
                self.carrier_num_prb is not None
                and end > self.carrier_num_prb
            ):
                found.append(
                    self._violation(
                        packet,
                        ViolationClass.SECTION_STRUCTURE,
                        f"section {section.section_id} PRBs [{start}, {end})"
                        f" exceed the {self.carrier_num_prb}-PRB carrier",
                        tap,
                    )
                )
            if (
                packet.is_uplane
                and self.profile is not None
                and section.num_prb > self.profile.uplane_section_max_prbs
            ):
                found.append(
                    self._violation(
                        packet,
                        ViolationClass.SECTION_STRUCTURE,
                        f"section {section.section_id} carries "
                        f"{section.num_prb} PRBs > vendor cap "
                        f"{self.profile.uplane_section_max_prbs}",
                        tap,
                    )
                )
            for other_start, other_end in claimed:
                if start < other_end and other_start < end:
                    found.append(
                        self._violation(
                            packet,
                            ViolationClass.SECTION_STRUCTURE,
                            f"section {section.section_id} PRBs "
                            f"[{start}, {end}) overlap a sibling section",
                            tap,
                        )
                    )
                    break
            claimed.append((start, end))

    def _comphdr_mismatch(
        self,
        packet: FronthaulPacket,
        config: CompressionConfig,
        what: str,
        tap: str,
        found: List[Violation],
    ) -> bool:
        """Flag a udCompHdr outside the negotiated set; True if flagged.

        A wrong *codec* (udCompMeth no stream negotiated) is a
        ``CODEC_MISMATCH`` — the RU has no decoder armed for it.  The
        right codec with the wrong parameters (width) stays the original
        ``BFP_WIDTH_MISMATCH`` class.
        """
        allowed = self.allowed_compressions
        if allowed is None or config in allowed:
            return False
        names = ", ".join(
            f"(width {c.iq_width}, meth {c.comp_meth})" for c in sorted(
                allowed, key=lambda c: (c.comp_meth, c.iq_width)
            )
        )
        if config.comp_meth not in {c.comp_meth for c in allowed}:
            found.append(
                self._violation(
                    packet,
                    ViolationClass.CODEC_MISMATCH,
                    f"{what} udCompHdr meth {config.comp_meth} is a codec "
                    f"no stream negotiated (allowed: {names})",
                    tap,
                )
            )
        else:
            found.append(
                self._violation(
                    packet,
                    ViolationClass.BFP_WIDTH_MISMATCH,
                    f"{what} udCompHdr (width {config.iq_width}, "
                    f"meth {config.comp_meth}) outside the negotiated "
                    f"set {names}",
                    tap,
                )
            )
        return True

    def _check_cplane_compression(
        self, packet: FronthaulPacket, tap: str, found: List[Violation]
    ) -> None:
        message: CPlaneMessage = packet.message
        self._comphdr_mismatch(
            packet, message.compression, "C-plane", tap, found
        )

    def _check_compression(
        self, packet: FronthaulPacket, tap: str, found: List[Violation]
    ) -> None:
        for section in packet.message.sections:
            config = section.compression
            if self._comphdr_mismatch(
                packet, config, f"section {section.section_id}", tap, found
            ):
                continue
            if section.num_prb < 1:
                continue
            if config.comp_meth == BFP_COMP_METH:
                self._check_bfp_exponents(packet, section, config, tap, found)
            elif config.comp_meth == MOD_COMP_METH:
                self._check_modcomp_params(packet, section, config, tap, found)

    def _check_bfp_exponents(
        self, packet, section, config, tap, found: List[Violation]
    ) -> None:
        # Raw exponent bytes, unmasked: the upper nibble is reserved
        # and a legal exponent never exceeds 16 - iq_width.
        prb_bytes = config.prb_payload_bytes()
        raw = np.frombuffer(
            section.payload,
            dtype=np.uint8,
            count=section.num_prb * prb_bytes,
        )[::prb_bytes]
        worst = int(raw.max())
        legal = _legal_max_exponent(config.iq_width)
        if worst > legal:
            found.append(
                self._violation(
                    packet,
                    ViolationClass.ILLEGAL_BFP_EXPONENT,
                    f"section {section.section_id} exponent byte "
                    f"{worst} exceeds the legal max {legal} for "
                    f"width-{config.iq_width} BFP",
                    tap,
                )
            )

    def _check_modcomp_params(
        self, packet, section, config, tap, found: List[Violation]
    ) -> None:
        csf, scalers = ModCompressor(config).read_params(
            section.payload, section.num_prb
        )
        worst = int(scalers.max())
        legal = max_scaler(config.iq_width)
        if worst > legal:
            found.append(
                self._violation(
                    packet,
                    ViolationClass.ILLEGAL_MODCOMP_PARAM,
                    f"section {section.section_id} modcomp scaler "
                    f"{worst} exceeds the legal max {legal} for "
                    f"width-{config.iq_width} constellations",
                    tap,
                )
            )
            return
        inconsistent = (csf.astype(bool) != (scalers > 0))
        if bool(inconsistent.any()):
            prb = int(np.argmax(inconsistent))
            found.append(
                self._violation(
                    packet,
                    ViolationClass.ILLEGAL_MODCOMP_PARAM,
                    f"section {section.section_id} PRB {prb} csf flag "
                    f"{int(csf[prb])} inconsistent with scaler "
                    f"{int(scalers[prb])}",
                    tap,
                )
            )

    def _record_windows(self, packet: FronthaulPacket) -> None:
        message: CPlaneMessage = packet.message
        windows = self._windows[message.direction]
        key = (slot_id(packet.time), packet.eaxc.ru_port)
        ranges = windows.get(key)
        if ranges is None:
            ranges = windows[key] = []
            while len(windows) > _WINDOW_CAP:
                windows.popitem(last=False)
        for section in message.sections:
            ranges.append(section.prb_range)

    def _check_accounting(
        self, packet: FronthaulPacket, tap: str, found: List[Violation]
    ) -> None:
        message: UPlaneMessage = packet.message
        windows = self._windows[message.direction]
        key = (slot_id(packet.time), packet.eaxc.ru_port)
        ranges = windows.get(key)
        for section in message.sections:
            start, end = section.prb_range
            if ranges is None:
                found.append(
                    self._violation(
                        packet,
                        ViolationClass.PRB_SECTION_MISMATCH,
                        f"no C-plane scheduled slot "
                        f"{time_fields(packet.time)[:3]} ru_port "
                        f"{packet.eaxc.ru_port} for U-plane section "
                        f"{section.section_id}",
                        tap,
                    )
                )
                continue
            if not any(ws <= start and end <= we for ws, we in ranges):
                found.append(
                    self._violation(
                        packet,
                        ViolationClass.PRB_SECTION_MISMATCH,
                        f"U-plane section {section.section_id} PRBs "
                        f"[{start}, {end}) outside every scheduled "
                        f"C-plane window {ranges}",
                        tap,
                    )
                )

    @staticmethod
    def _stream_key(packet: FronthaulPacket) -> Tuple[int, int, int]:
        """Per-link stream identity: (src, dst, eAxC).

        The destination matters: a DAS replicating one downlink frame to
        several RUs reuses src/eAxC/seq on every copy, and each copy is a
        distinct point-to-point flow, not a duplicate.  Message type stays
        out because DU and RU share one seq counter across C/U-plane.
        """
        return (
            packet.eth.src.to_int(),
            packet.eth.dst.to_int(),
            packet.eaxc.to_int(),
        )

    def _check_sequence(
        self,
        packet: FronthaulPacket,
        stream: Tuple[int, int, int],
        tap: str,
        found: List[Violation],
    ) -> None:
        status = self._tracker.observe(
            stream, packet.ecpri.seq_id, context=packet.flow_key()
        )
        if status.verdict is SeqVerdict.DUPLICATE:
            found.append(
                self._violation(
                    packet,
                    ViolationClass.SEQ_DUP,
                    f"seq {packet.ecpri.seq_id} repeated on stream "
                    f"{packet.eth.src}/eaxc {packet.eaxc.to_int()}",
                    tap,
                )
            )
        elif status.gap:
            found.append(
                self._violation(
                    packet,
                    ViolationClass.SEQ_GAP,
                    f"{status.gap} sequence number(s) skipped before seq "
                    f"{packet.ecpri.seq_id} on stream {packet.eth.src}"
                    f"/eaxc {packet.eaxc.to_int()}",
                    tap,
                )
            )

    def _check_timing(
        self,
        packet: FronthaulPacket,
        stream: Tuple[int, int, int],
        tap: str,
        found: List[Violation],
    ) -> None:
        epoch = MAX_FRAME_ID * self.numerology.slots_per_frame
        current = absolute_slot(packet.time, self.numerology) % epoch
        last = self._last_slot.get(stream)
        if last is None:
            self._last_slot[stream] = current
            return
        delta = (current - last) % epoch
        if delta > epoch // 2:
            # Regressed against the stream head (modular half-window:
            # wrap at the epoch looks like small forward progress).
            found.append(
                self._violation(
                    packet,
                    ViolationClass.STALE_SLOT,
                    f"slot timestamp regressed {epoch - delta} slot(s) "
                    f"behind stream {packet.eth.src}/eaxc "
                    f"{packet.eaxc.to_int()}",
                    tap,
                )
            )
            return
        self._last_slot[stream] = current

    # -- obs export ----------------------------------------------------------

    def _export(self, found: List[Violation]) -> None:
        if not self.obs.enabled:
            return
        self.obs.children(_FRAMES, self.name).inc()
        for violation in found:
            self.obs.children(
                _VIOLATIONS, self.name, violation.violation_class.value
            ).inc()
