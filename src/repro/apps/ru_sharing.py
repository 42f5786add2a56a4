"""The RU sharing middlebox (Section 4.3, Appendix A.1, Algorithms 2-3).

Several DUs — typically belonging to different operators — share one RU.
Downlink, the middlebox multiplexes the DUs' packets into one stream; the
RU believes a single DU controls it.  Uplink, it demultiplexes the RU's
full-band packets back to each DU; every DU believes it owns the RU.

Key mechanisms (all from the paper):

- **numPrb widening**: the first C-plane message per symbol/port is
  rewritten to request the RU's full spectrum, so later DU requests are
  already satisfied; all C-plane messages are cached to remember which
  DUs asked (Algorithm 2).
- **PRB relocation**: each DU's PRBs are copied to their position in the
  RU's grid.  Aligned grids (Figure 6 left, Appendix A.1.1) move raw
  compressed bytes; misaligned grids decompress/shift/recompress.
- **PRACH translation**: C-plane type 3 ``freqOffset`` fields are
  translated into the RU's spectrum (eq. 11) and sections tagged with the
  DU id so uplink PRACH data can be demultiplexed (Algorithm 3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import ActionContext, ExecLocation
from repro.core.middlebox import Middlebox
from repro.fronthaul.compression import CompressionConfig, SAMPLES_PER_PRB
from repro.fronthaul.cplane import (
    CPlaneMessage,
    CPlaneSection,
    Direction,
    SectionType,
)
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.prach import translate_freq_offset
from repro.fronthaul.spectrum import PrbGrid
from repro.fronthaul.timing import slot_id
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.obs.metrics import declare

_PRB_COPIES = declare(
    "counter", "ru_sharing_prb_copies_total",
    "PRB relocations by grid alignment (Figure 6 fast/slow path)",
    ("middlebox", "mode"),
)
_MUX_OCCUPANCY = declare(
    "gauge", "ru_sharing_mux_occupancy",
    "cached entries awaiting their mux/demux counterparts",
    ("middlebox", "kind"),
)


#: What the cache holds, by the first element of its keys:
#: ``("cplane", direction, slot id, port)`` — every DU's data request,
#: ``("dl_uplane", time, port)`` — DL U-plane awaiting the other DUs',
#: ``("prach", slot id, port)`` — translated PRACH requests, likewise.
#: Each packet is tagged with its DU's id.
_KINDS = ("cplane", "dl_uplane", "prach")


def _mux_children(registry, name: str):
    """The three occupancy gauges one packet updates together."""
    return tuple(_MUX_OCCUPANCY(registry, name, kind) for kind in _KINDS)


@dataclass(frozen=True)
class SharedDuConfig:
    """One DU sharing the RU: identity plus its slice of the spectrum."""

    du_id: int
    mac: MacAddress
    grid: PrbGrid

    def prb_offset_in(self, ru_grid: PrbGrid) -> float:
        return ru_grid.offset_of(self.grid)

    def is_aligned_with(self, ru_grid: PrbGrid) -> bool:
        return ru_grid.is_aligned_with(self.grid)


class RuSharingMiddlebox(Middlebox):
    """One shared RU multiplexed among several DUs."""

    app_name = "ru_sharing"
    #: Table 1: RU sharing's XDP data path runs in userspace (caching and
    #: PRB relocation are impractical in eBPF).
    nominal_xdp_location = ExecLocation.USERSPACE

    def __init__(
        self,
        ru_mac: MacAddress,
        ru_grid: PrbGrid,
        dus: Sequence[SharedDuConfig],
        mac: Optional[MacAddress] = None,
        name: str = "",
        obs=None,
        stack_profile=None,
        **kwargs,
    ):
        super().__init__(
            name=name, obs=obs, stack_profile=stack_profile, **kwargs
        )
        if not dus:
            raise ValueError("RU sharing needs at least one DU")
        seen = set()
        for du in dus:
            if du.du_id in seen:
                raise ValueError(f"duplicate DU id {du.du_id}")
            seen.add(du.du_id)
            if not ru_grid.contains(du.grid):
                raise ValueError(
                    f"DU {du.du_id}'s spectrum does not fit in the RU grid"
                )
        self.ru_mac = ru_mac
        self.ru_grid = ru_grid
        self.dus = {du.mac.to_int(): du for du in dus}
        self.dus_by_id = {du.du_id: du for du in dus}
        #: The mux recompresses with the vendor stack's fronthaul
        #: convention when one is known.
        self.compression = (
            stack_profile.compression
            if stack_profile is not None
            else CompressionConfig()
        )
        self.mac = mac or MacAddress.from_int(0x02_00_00_00_30_03)
        self.misaligned_copies = 0
        self.aligned_copies = 0

    # -- helpers -----------------------------------------------------------

    def _du_for(self, packet: FronthaulPacket) -> Optional[SharedDuConfig]:
        return self.dus.get(packet.eth.src.to_int())

    def _requesting_dus(
        self, direction: Direction, slot: int, port: int
    ) -> List[int]:
        key = ("cplane", direction, slot, port)
        return sorted(set(self.cache.tags(key)))

    def _count_copy(self, aligned: bool) -> None:
        if aligned:
            self.aligned_copies += 1
        else:
            self.misaligned_copies += 1
        if self.obs.enabled:
            self.obs.children(
                _PRB_COPIES, self.name, "aligned" if aligned else "misaligned"
            ).inc()

    def _observe_mux_occupancy(self) -> None:
        """Export how much per-symbol mux state is parked in the cache
        (runs on every C-plane and DL U-plane packet)."""
        held = Counter(key[0] for key in self.cache.ring)
        gauges = self.obs.children(_mux_children, self.name)
        for gauge, kind in zip(gauges, _KINDS):
            gauge.set(held[kind])

    # -- handlers ------------------------------------------------------------

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        du = self._du_for(packet)
        if du is None:
            ctx.forward(packet)
            return
        message: CPlaneMessage = packet.message
        if message.section_type is SectionType.PRACH:
            self._handle_prach_cplane(ctx, packet, du)
        else:
            self._handle_data_cplane(ctx, packet, du)
        if self.obs.enabled:
            self._observe_mux_occupancy()

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        if packet.direction is Direction.DOWNLINK:
            du = self._du_for(packet)
            if du is None:
                ctx.forward(packet)
                return
            self._handle_dl_uplane(ctx, packet, du)
        else:
            if packet.message.filter_index == 1:
                self._handle_prach_uplane(ctx, packet)
            else:
                self._handle_ul_uplane(ctx, packet)
        if self.obs.enabled:
            self._observe_mux_occupancy()

    # -- Algorithm 2: data C-plane ------------------------------------------------

    def _handle_data_cplane(
        self, ctx: ActionContext, packet: FronthaulPacket, du: SharedDuConfig
    ) -> None:
        message: CPlaneMessage = packet.message
        key = (
            "cplane", message.direction, slot_id(message.time),
            packet.eaxc.ru_port,
        )
        if ctx.cache_put(key, packet, tag=du.du_id) > 1:
            # A later DU's request is already satisfied by the widened one.
            ctx.drop(packet)
            return
        # First request: widen numPrb to the RU's full spectrum and send.
        ctx.set_cplane_num_prb(packet, self.ru_grid.num_prb, start_prb=0)
        ctx.forward(packet, dst=self.ru_mac, src=self.mac)

    # -- Algorithm 2: downlink U-plane ---------------------------------------------

    def _handle_dl_uplane(
        self, ctx: ActionContext, packet: FronthaulPacket, du: SharedDuConfig
    ) -> None:
        time = packet.time
        port = packet.eaxc.ru_port
        key = ("dl_uplane", time, port)
        ctx.cache_put(key, packet, tag=du.du_id)
        pending = dict(self.cache.peek(key))
        requesting = self._requesting_dus(
            Direction.DOWNLINK, slot_id(time), port
        )
        if not requesting or any(du_id not in pending for du_id in requesting):
            return
        # All requesting DUs delivered their U-plane for this symbol: mux.
        merged = self._multiplex_downlink(
            ctx, time, [pending[du_id] for du_id in requesting]
        )
        ctx.forward(merged, dst=self.ru_mac, src=self.mac)
        self.cache.discard(key)

    def _multiplex_downlink(
        self,
        ctx: ActionContext,
        time: int,
        packets: List[FronthaulPacket],
    ) -> FronthaulPacket:
        """Copy every DU's PRBs into one full-band RU U-plane packet.

        Aligned DUs are batched: their sections' wire bytes are scattered
        into one output buffer in a single :meth:`ActionContext.assemble_prbs`
        pass (unwritten PRBs are idle/zero).  Misaligned DUs then land on
        the slow decompress/shift/recompress path on top of that target.
        """
        aligned_placements: List[Tuple[UPlaneSection, int]] = []
        misaligned: List[Tuple[UPlaneSection, float]] = []
        for source_packet in packets:
            du = self._du_for(source_packet)
            offset = du.prb_offset_in(self.ru_grid)
            for section in source_packet.message.sections:
                if du.is_aligned_with(self.ru_grid):
                    self._count_copy(aligned=True)
                    aligned_placements.append(
                        (section, int(round(offset)) + section.start_prb)
                    )
                else:
                    self._count_copy(aligned=False)
                    misaligned.append((section, offset))
        target = ctx.assemble_prbs(
            num_prb=self.ru_grid.num_prb,
            placements=aligned_placements,
            compression=self.compression,
            section_id=0,
            start_prb=0,
        )
        for section, offset in misaligned:
            target = self._copy_subcarriers(ctx, section, target, offset)
        message = UPlaneMessage(
            direction=Direction.DOWNLINK, time=time, sections=[target]
        )
        template = packets[0]
        return FronthaulPacket(
            eth=template.eth, ecpri=template.ecpri, message=message
        )

    def _copy_subcarriers(
        self,
        ctx: ActionContext,
        source: UPlaneSection,
        target: UPlaneSection,
        prb_offset: float,
    ) -> UPlaneSection:
        """Misaligned relocation: decompress, shift at subcarrier
        granularity, recompress (the Figure 6 right-hand case)."""
        sc_offset = int(round(prb_offset * SAMPLES_PER_PRB))
        src_samples = ctx.decompress(source)  # (n, 24) int16
        dst_samples = ctx.decompress(target)
        src_flat = src_samples.reshape(-1, 2)  # (n*12, 2) per subcarrier
        dst_flat = dst_samples.reshape(-1, 2)
        start = (source.start_prb * SAMPLES_PER_PRB) + sc_offset
        dst_flat[start : start + len(src_flat)] = src_flat
        return ctx.compress(target, dst_flat.reshape(dst_samples.shape))

    # -- Algorithm 2: uplink U-plane ----------------------------------------------

    def _handle_ul_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        """Demultiplex a full-band RU uplink packet to each requesting DU.

        The DUs' copies share the RU packet's sections: a misaligned one
        is decoded once (each copy still records its decode), and every
        DU's slice is encoded in one pass once the packets are forwarded.
        """
        time = packet.time
        port = packet.eaxc.ru_port
        requesting = self._requesting_dus(Direction.UPLINK, slot_id(time), port)
        if not requesting:
            ctx.drop(packet)
            return
        copies = ctx.replicate(packet, len(requesting) - 1)
        all_packets = [packet] + copies
        decoded: Dict[int, np.ndarray] = {}  # by section position
        unbuilt: Dict[CompressionConfig, list] = {}
        for du_id, out_packet in zip(requesting, all_packets):
            du = self.dus_by_id[du_id]
            extracted = self._extract_du_from_ru(
                ctx, out_packet, du, decoded, unbuilt
            )
            ctx.forward(extracted, dst=du.mac, src=self.mac)
        for compression, held in unbuilt.items():
            built = UPlaneSection.from_ranges([p for p, _, _ in held], compression)
            for (_, sections, index), section in zip(held, built):
                sections[index] = section

    def _extract_du_from_ru(
        self,
        ctx: ActionContext,
        packet: FronthaulPacket,
        du: SharedDuConfig,
        decoded: Dict[int, np.ndarray],
        unbuilt: Dict[CompressionConfig, list],
    ) -> FronthaulPacket:
        offset = du.prb_offset_in(self.ru_grid)
        sections_out: List[UPlaneSection] = []
        for position, section in enumerate(packet.message.sections):
            if du.is_aligned_with(self.ru_grid):
                self._count_copy(aligned=True)
                # Zero-copy carve-out: the DU section shares the RU
                # packet's wire bytes instead of round-tripping through a
                # zero-filled target section.
                sections_out.append(
                    ctx.extract_prbs(
                        source=section,
                        source_start_prb=int(round(offset)),
                        num_prb=du.grid.num_prb,
                        section_id=du.du_id,
                        dest_start_prb=0,
                    )
                )
            else:
                self._count_copy(aligned=False)
                samples = decoded[position] = ctx.decompress(
                    section, decoded.get(position)
                )
                flat = samples.reshape(-1, 2)
                sc_offset = int(round(offset * SAMPLES_PER_PRB))
                du_sc = du.grid.num_prb * SAMPLES_PER_PRB
                block = flat[sc_offset : sc_offset + du_sc]
                du_samples = block.reshape(du.grid.num_prb, 2 * SAMPLES_PER_PRB)
                unbuilt.setdefault(section.compression, []).append(
                    ((du.du_id, 0, du_samples), sections_out, len(sections_out))
                )
                sections_out.append(None)
        message = UPlaneMessage(
            direction=Direction.UPLINK,
            time=packet.time,
            sections=sections_out,
            filter_index=packet.message.filter_index,
        )
        return FronthaulPacket(
            eth=packet.eth, ecpri=packet.ecpri, message=message
        )

    # -- Algorithm 3: PRACH ----------------------------------------------------------

    def _handle_prach_cplane(
        self, ctx: ActionContext, packet: FronthaulPacket, du: SharedDuConfig
    ) -> None:
        message: CPlaneMessage = packet.message
        key = ("prach", slot_id(message.time), packet.eaxc.ru_port)
        # Translate each section's freqOffset into the RU spectrum and tag
        # it with the DU id (Algorithm 3 lines 6-7).
        translated: List[CPlaneSection] = []
        for section in message.sections:
            new_offset = translate_freq_offset(
                section.freq_offset,
                du.grid.center_frequency_hz,
                self.ru_grid.center_frequency_hz,
                self.ru_grid.scs_hz,
            )
            ctx.set_section_fields(packet)  # cost accounting for the rewrite
            translated.append(
                CPlaneSection(
                    section_id=du.du_id,
                    start_prb=section.start_prb,
                    num_prb=section.num_prb,
                    num_symbols=section.num_symbols,
                    freq_offset=new_offset,
                )
            )
        message.sections = translated
        ctx.cache_put(key, packet, tag=du.du_id)
        pending = dict(self.cache.peek(key))
        if len(pending) < len(self.dus_by_id):
            return
        # All DUs' PRACH requests arrived: append sections into one packet,
        # sent as the lowest DU id's, so the RU's stream has no seq hole.
        sections = [
            section
            for du_id in sorted(pending)
            for section in pending[du_id].message.sections
        ]
        combined = replace(message, direction=Direction.UPLINK, sections=sections)
        first = pending[min(pending)]
        out = FronthaulPacket(eth=first.eth, ecpri=first.ecpri, message=combined)
        ctx.forward(out, dst=self.ru_mac, src=self.mac)
        self.cache.discard(key)

    def _handle_prach_uplane(
        self, ctx: ActionContext, packet: FronthaulPacket
    ) -> None:
        """Demultiplex PRACH U-plane sections to DUs by section id."""
        by_du: Dict[int, List[UPlaneSection]] = {}
        for section in packet.message.sections:
            if section.section_id in self.dus_by_id:
                by_du.setdefault(section.section_id, []).append(section)
        if not by_du:
            ctx.drop(packet)
            return
        du_ids = sorted(by_du)
        copies = ctx.replicate(packet, len(du_ids) - 1)
        for du_id, out_packet in zip(du_ids, [packet] + copies):
            du = self.dus_by_id[du_id]
            message = UPlaneMessage(
                direction=Direction.UPLINK,
                time=packet.time,
                sections=by_du[du_id],
                filter_index=1,
            )
            out = FronthaulPacket(
                eth=out_packet.eth, ecpri=out_packet.ecpri, message=message
            )
            ctx.forward(out, dst=du.mac, src=self.mac)
