"""The stateful wire-level conformance validator.

:class:`WireValidator` can be tapped into any point of the datapath — a
switch port, a chain stage boundary, RU/DU ingress (the
``FronthaulNetwork(validator=...)`` hook) — and checks every frame it observes
against the rules the repo's fronthaul implies:

- eCPRI header well-formedness (version, message type, ``payloadSize``
  accounting for every byte on the wire);
- C/U-plane section structure (non-empty, inside the carrier,
  non-overlapping within a message, vendor section-size caps);
- PRB accounting: every U-plane section must be covered by a C-plane
  section that scheduled the same ``(slot, ru_port)`` window — the rule
  the RU itself enforces on downlink, applied symmetrically to uplink;
- BFP legality per vendor ``stack_profile``: the ``udCompHdr`` must
  match the profile, exponent bytes must fit the 4-bit wire nibble and
  the mantissa width (an exponent above ``16 - iq_width`` cannot arise
  from int16 sources and means corrupted wire bytes);
- 8-bit sequence continuity with wrap, via the fault layer's
  :class:`~repro.faults.sequence.SequenceTracker` (streams keyed by
  ``(src MAC, dst MAC, eAxC)``: DU and RU share one counter across
  planes, so message type stays out of the key, while the destination
  stays in so a DAS replicating one frame to several RUs is N distinct
  point-to-point flows, not a duplicate);
- slot-timing monotonicity per stream over the 256-frame wire epoch
  (modular half-window comparison, mirroring the sequence wrap rule).

A tap hands it one burst per call; each frame is still checked on its
own, in order.  Findings are
:class:`~repro.conformance.violations.Violation` records accumulated in a
:class:`~repro.conformance.violations.ConformanceReport` and exported
through the obs metrics layer when enabled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs as obs_module
from repro.conformance.violations import (
    ConformanceReport,
    Violation,
    ViolationClass,
)
from repro.faults.sequence import SEQ_IN_ORDER, SequenceTracker, SeqVerdict
from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MAX_WIRE_EXPONENT,
    MOD_COMP_METH,
    CompressionConfig,
    codec_for,
)
from repro.fronthaul.modcomp import max_scaler
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


def _legal_max_param(config: CompressionConfig) -> Optional[int]:
    """The largest per-PRB parameter (BFP exponent, modcomp scaler) a
    legal section of ``config`` carries; None for an uncompressed one.

    int16 needs at most 16 bits, so a legal BFP exponent never exceeds
    ``16 - iq_width``; the 4-bit wire nibble caps it at 15 regardless.
    """
    if config.comp_meth == BFP_COMP_METH:
        return min(MAX_WIRE_EXPONENT, max(0, 16 - config.iq_width))
    if config.comp_meth == MOD_COMP_METH:
        return max_scaler(config.iq_width)
    return None


class WireValidator:
    """Stateful validator checking frames against the O-RAN wire rules."""

    def __init__(
        self,
        name: str = "validator",
        profile: Optional[VendorProfile] = None,
        carrier_num_prb: Optional[int] = None,
        numerology: Optional[Numerology] = None,
        obs=None,
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
        self.report = ConformanceReport()
        self._tracker = SequenceTracker(name=f"{name}-seq", obs=self.obs)
        #: direction -> {(frame, subframe, slot, ru_port): [(start, end)]}
        self._windows = {
            Direction.DOWNLINK: OrderedDict(),
            Direction.UPLINK: OrderedDict(),
        }
        #: (src MAC, dst MAC, eAxC) -> last absolute slot (mod the epoch).
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
        return self.observe([packet], tap=tap)

    def observe(
        self, packets: Sequence[FronthaulPacket], tap: str = ""
    ) -> List[Violation]:
        """Validate a burst of parsed packets, in order, and update stream
        state; returns the burst's violations.

        Every check runs per packet (per section where it is a section
        rule), in the order a packet-at-a-time validator would run them;
        what does not change within a burst is read once.  A section
        carrying its encoder's parse is checked from that parse (its
        bytes are not packed); a section parsed off a wire from its raw
        bytes.
        """
        if not packets:
            return []
        found: List[Violation] = []

        def flag(packet, violation_class: ViolationClass, detail: str):
            found.append(self._violation(packet, violation_class, detail, tap))

        carrier = self.carrier_num_prb
        cap = None if self.profile is None else (
            self.profile.uplane_section_max_prbs
        )
        allowed = self.allowed_compressions
        # The last udCompHdr seen, whether ``allowed`` has it, and the
        # largest parameter its codec may carry (None: nothing to check).
        known = known_ok = known_bound = None
        windows_of, last_slot = self._windows, self._last_slot
        numerology = self.numerology
        epoch = MAX_FRAME_ID * numerology.slots_per_frame
        observe_seq = self._tracker.observe
        rt_control = EcpriMessageType.RT_CONTROL
        iq_data = EcpriMessageType.IQ_DATA
        for packet in packets:
            message, ecpri = packet.message, packet.ecpri
            cplane = isinstance(message, CPlaneMessage)
            if ecpri.message_type is not (rt_control if cplane else iq_data):
                flag(packet, ViolationClass.MALFORMED_FRAME,
                     f"eCPRI message type {ecpri.message_type} does not "
                     f"match a {type(message).__name__} payload")
            # In-memory packets built by make_packet() carry payload_size=0
            # ("fill in at pack time"); only a nonzero declared size can lie.
            declared = ecpri.payload_size
            if declared and declared != message.wire_size() + 4:
                flag(packet, ViolationClass.BAD_ECPRI_LENGTH,
                     f"eCPRI payloadSize {declared} != "
                     f"{message.wire_size() + 4} bytes of message body")
            time, eaxc = message.time, ecpri.eaxc
            if cplane or isinstance(message, UPlaneMessage):
                sections = message.sections
                self._check_sections(
                    packet, sections, carrier, None if cplane else cap, flag
                )
                windows = windows_of[message.direction]
                key = (slot_id(time), eaxc.ru_port)
                if cplane:
                    config = message.compression
                    if config is not known:
                        known, known_ok, known_bound = config, (
                            allowed is None or config in allowed
                        ), _legal_max_param(config)
                    if not known_ok:
                        self._comphdr_mismatch(packet, config, "C-plane", flag)
                    ranges = windows.get(key)
                    if ranges is None:
                        ranges = windows[key] = []
                        while len(windows) > _WINDOW_CAP:
                            windows.popitem(last=False)
                    for section in sections:
                        start = section.start_prb
                        ranges.append((start, start + section.num_prb))
                else:
                    for section in sections:
                        config = section.compression
                        if config is not known:
                            known, known_ok, known_bound = config, (
                                allowed is None or config in allowed
                            ), _legal_max_param(config)
                        if not known_ok:
                            self._comphdr_mismatch(
                                packet, config,
                                f"section {section.section_id}", flag,
                            )
                        elif known_bound is not None and section.num_prb > 0:
                            self._check_codec_params(
                                packet, section, config, known_bound, flag
                            )
                    self._check_accounting(
                        packet, sections, windows.get(key), flag
                    )
            eth, eaxc_int, seq = packet.eth, eaxc.to_int(), ecpri.seq_id
            # Per-link stream identity: (src, dst, eAxC).  The destination
            # matters: a DAS replicating one downlink frame to several RUs
            # reuses src/eAxC/seq on every copy, and each copy is a
            # distinct point-to-point flow, not a duplicate.  Message type
            # stays out: DU and RU share one seq counter across planes.
            stream = (eth.src.raw, eth.dst.raw, eaxc_int)
            status = observe_seq(stream, seq, packet.flow_key())
            if status is SEQ_IN_ORDER:
                pass  # the common case: nothing to read off the status
            elif status.verdict is SeqVerdict.DUPLICATE:
                flag(packet, ViolationClass.SEQ_DUP,
                     f"seq {seq} repeated on stream {eth.src}/eaxc {eaxc_int}")
            elif status.gap:
                flag(packet, ViolationClass.SEQ_GAP,
                     f"{status.gap} sequence number(s) skipped before seq "
                     f"{seq} on stream {eth.src}/eaxc {eaxc_int}")
            current = absolute_slot(time, numerology) % epoch
            last = last_slot.get(stream)
            if last is not None and (current - last) % epoch > epoch // 2:
                # Regressed against the stream head (modular half-window:
                # the epoch wrap is small forward progress).
                flag(packet, ViolationClass.STALE_SLOT,
                     f"slot timestamp regressed {(last - current) % epoch} "
                     f"slot(s) behind stream {eth.src}/eaxc {eaxc_int}")
            else:
                last_slot[stream] = current
        report = self.report
        report.frames_checked += len(packets)
        for violation in found:
            report.record(violation)
        self._export(len(packets), found)
        return found

    # -- individual checks ---------------------------------------------------

    @staticmethod
    def _violation(
        packet: FronthaulPacket,
        violation_class: ViolationClass,
        detail: str,
        tap: str,
    ) -> Violation:
        return Violation(
            violation_class,
            detail,
            tap=tap,
            src=str(packet.eth.src),
            eaxc=packet.eaxc.to_int(),
            seq=packet.ecpri.seq_id,
            time=time_fields(packet.message.time),
        )

    def _parse_failure(
        self, violation_class: ViolationClass, exc: Exception, tap: str
    ) -> List[Violation]:
        self.report.frames_checked += 1
        violation = Violation(violation_class, str(exc), tap=tap)
        self.report.record(violation)
        self._export(1, [violation])
        return [violation]

    @staticmethod
    def _check_sections(packet, sections, carrier, cap, flag) -> None:
        """Section structure: non-empty, inside the carrier, within the
        vendor's U-plane cap (``cap`` is None for C-plane), no overlap —
        in half subcarriers, as a type-3 section's freqOffset counts."""
        claimed: Optional[List[Tuple[int, int]]] = (
            [] if len(sections) > 1 else None
        )
        for section in sections:
            start, num_prb = section.start_prb, section.num_prb
            end, section_id = start + num_prb, section.section_id
            if num_prb < 1:
                flag(packet, ViolationClass.SECTION_STRUCTURE,
                     f"section {section_id} covers no PRBs")
                continue
            if carrier is not None and end > carrier:
                flag(packet, ViolationClass.SECTION_STRUCTURE,
                     f"section {section_id} PRBs [{start}, {end}) exceed "
                     f"the {carrier}-PRB carrier")
            if cap is not None and num_prb > cap:
                flag(packet, ViolationClass.SECTION_STRUCTURE,
                     f"section {section_id} carries {num_prb} PRBs > "
                     f"vendor cap {cap}")
            if claimed is None:
                continue
            offset = getattr(section, "freq_offset", None) or 0
            low, high = 24 * start - offset, 24 * end - offset
            for other_low, other_high in claimed:
                if low < other_high and other_low < high:
                    flag(packet, ViolationClass.SECTION_STRUCTURE,
                         f"section {section_id} PRBs [{start}, {end}) "
                         "overlap a sibling section")
                    break
            claimed.append((low, high))

    def _comphdr_mismatch(self, packet, config, what: str, flag) -> None:
        """Flag a udCompHdr outside the negotiated set.

        A wrong *codec* (udCompMeth no stream negotiated) is a
        ``CODEC_MISMATCH`` — the RU has no decoder armed for it.  The
        right codec with the wrong parameters (width) stays the original
        ``BFP_WIDTH_MISMATCH`` class.
        """
        allowed = self.allowed_compressions
        names = ", ".join(
            f"(width {c.iq_width}, meth {c.comp_meth})" for c in sorted(
                allowed, key=lambda c: (c.comp_meth, c.iq_width)
            )
        )
        if config.comp_meth not in {c.comp_meth for c in allowed}:
            flag(packet, ViolationClass.CODEC_MISMATCH,
                 f"{what} udCompHdr meth {config.comp_meth} is a codec "
                 f"no stream negotiated (allowed: {names})")
        else:
            flag(packet, ViolationClass.BFP_WIDTH_MISMATCH,
                 f"{what} udCompHdr (width {config.iq_width}, meth "
                 f"{config.comp_meth}) outside the negotiated set {names}")

    @staticmethod
    def _check_codec_params(packet, section, config, legal, flag) -> None:
        """BFP exponent / modcomp parameter legality of one section
        (``legal``: the largest parameter ``config`` allows).

        A riding parse holds the wire parameters exactly: BFP exponent
        bytes are its shifts (reserved nibble zero), modcomp scalers are
        its shifts with ``csf == (scaler > 0)``.  So only the largest is
        read, and nothing is packed.  A section parsed off a wire has only
        its bytes: the raw parameter bytes are read, unmasked.
        """
        bfp, width = config.comp_meth == BFP_COMP_METH, config.iq_width
        parse, csf = section._parse, None
        if parse is not None:
            worst = int(parse[0].max())
        elif bfp:
            prb_bytes = config.prb_payload_bytes()
            worst = int(np.frombuffer(
                section.payload, dtype=np.uint8,
                count=section.num_prb * prb_bytes,
            )[::prb_bytes].max())
        else:
            csf, scalers = codec_for(config).read_params(
                section.payload, section.num_prb
            )
            worst = int(scalers.max())
        section_id = section.section_id
        if worst > legal:
            # A BFP exponent byte's upper nibble is reserved, and neither
            # parameter exceeds 16 - iq_width from int16 sources.
            if bfp:
                flag(packet, ViolationClass.ILLEGAL_BFP_EXPONENT,
                     f"section {section_id} exponent byte {worst} exceeds "
                     f"the legal max {legal} for width-{width} BFP")
            else:
                flag(packet, ViolationClass.ILLEGAL_MODCOMP_PARAM,
                     f"section {section_id} modcomp scaler {worst} exceeds "
                     f"the legal max {legal} for width-{width} "
                     "constellations")
        elif csf is not None:
            inconsistent = csf.astype(bool) != (scalers > 0)
            if inconsistent.any():
                prb = int(np.argmax(inconsistent))
                flag(packet, ViolationClass.ILLEGAL_MODCOMP_PARAM,
                     f"section {section_id} PRB {prb} csf flag "
                     f"{int(csf[prb])} inconsistent with scaler "
                     f"{int(scalers[prb])}")

    @staticmethod
    def _check_accounting(packet, sections, ranges, flag) -> None:
        """Every U-plane section inside a window C-plane scheduled for its
        ``(slot, ru_port)`` (``ranges``; None when nothing was)."""
        for section in sections:
            start = section.start_prb
            end = start + section.num_prb
            if ranges is None:
                flag(packet, ViolationClass.PRB_SECTION_MISMATCH,
                     f"no C-plane scheduled slot "
                     f"{time_fields(packet.message.time)[:3]} ru_port "
                     f"{packet.eaxc.ru_port} for U-plane section "
                     f"{section.section_id}")
                continue
            for window_start, window_end in ranges:
                if window_start <= start and end <= window_end:
                    break
            else:
                flag(packet, ViolationClass.PRB_SECTION_MISMATCH,
                     f"U-plane section {section.section_id} PRBs "
                     f"[{start}, {end}) outside every scheduled C-plane "
                     f"window {ranges}")

    # -- obs export ----------------------------------------------------------

    def _export(self, frames: int, found: List[Violation]) -> None:
        if not self.obs.enabled:
            return
        self.obs.children(_FRAMES, self.name).inc(frames)
        for violation in found:
            self.obs.children(
                _VIOLATIONS, self.name, violation.violation_class.value
            ).inc()
