"""The distributed MIMO middlebox (Section 4.2, Figure 5b).

Several small Cat-A RUs are combined into one virtual RU with the sum of
their antennas.  The DU believes it drives a single N-antenna RU; each
physical M-antenna RU believes it talks to an M-antenna DU.  Per packet,
the middlebox:

- remaps the eAxC RU-port id from the DU's global port numbering to the
  owning RU's local numbering (A4 header modification), and
- redirects the packet to the owning RU (A1) — the reverse on uplink.

Because the SSB is transmitted only on the DU's first antenna port, a UE
far from the primary RU would stop receiving it; the middlebox therefore
copies the SSB PRBs from the primary port's U-plane packets into the
first local port of every other RU (A4 payload modification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.actions import ActionContext, ExecLocation
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneSection
from repro.obs.metrics import declare

_REMAPS = declare(
    "counter", "dmimo_remaps_total",
    "antenna-port remaps through the combining middlebox",
    ("middlebox", "direction", "rewritten"),
)


@dataclass(frozen=True)
class RuPortMap:
    """Global-port layout of the virtual RU.

    ``groups`` lists (ru_mac, n_antennas) in global-port order: with two
    2-antenna RUs, global ports 0-1 live on RU 1 (local 0-1) and global
    ports 2-3 on RU 2 (local 0-1) — the Figure 5b example.
    """

    groups: Tuple[Tuple[MacAddress, int], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("virtual RU needs at least one physical RU")
        if any(n < 1 for _, n in self.groups):
            raise ValueError("every RU contributes at least one antenna")

    @property
    def total_ports(self) -> int:
        return sum(n for _, n in self.groups)

    def to_local(self, global_port: int) -> Tuple[MacAddress, int]:
        """(ru_mac, local_port) owning a DU-side global port."""
        base = 0
        for mac, count in self.groups:
            if global_port < base + count:
                return mac, global_port - base
            base += count
        raise ValueError(f"global port {global_port} out of range")

    def to_global(self, ru_mac: MacAddress, local_port: int) -> int:
        base = 0
        for mac, count in self.groups:
            if mac == ru_mac:
                if local_port >= count:
                    raise ValueError(
                        f"RU {ru_mac} has no local port {local_port}"
                    )
                return base + local_port
            base += count
        raise ValueError(f"unknown RU {ru_mac}")

    def secondary_first_ports(self) -> List[Tuple[MacAddress, int]]:
        """(ru_mac, global port of local port 0) for each non-primary RU."""
        result = []
        base = 0
        for index, (mac, count) in enumerate(self.groups):
            if index > 0:
                result.append((mac, base))
            base += count
        return result


@dataclass(frozen=True)
class SsbSchedule:
    """Where the SSB lives: its slots, symbols and PRB range.

    This is public cell configuration (the SSB is "transmitted
    periodically in well known symbols and PRBs of the cell").
    """

    period_slots: int
    symbols: Tuple[int, ...]
    prb_start: int
    num_prb: int

    def covers(self, time: SymbolTime, slots_per_frame: int, slots_per_subframe: int) -> bool:
        absolute = (
            time.frame * slots_per_frame
            + time.subframe * slots_per_subframe
            + time.slot
        )
        return absolute % self.period_slots == 0 and time.symbol in self.symbols


class DmimoMiddlebox(Middlebox):
    """One dMIMO virtual RU composed of several physical RUs."""

    app_name = "dmimo"
    #: Table 1: dMIMO's XDP data path runs in the kernel — its per-packet
    #: work is header remapping.  (SSB replication is periodic and handled
    #: by the userspace component.)
    nominal_xdp_location = ExecLocation.KERNEL

    def __init__(
        self,
        du_mac: MacAddress,
        port_map: RuPortMap,
        ssb: Optional[SsbSchedule] = None,
        slots_per_frame: int = 20,
        slots_per_subframe: int = 2,
        mac: Optional[MacAddress] = None,
        name: str = "",
        obs=None,
        stack_profile=None,
        **kwargs,
    ):
        super().__init__(
            name=name, obs=obs, stack_profile=stack_profile, **kwargs
        )
        self.du_mac = du_mac
        self.port_map = port_map
        self.ssb = ssb
        self.slots_per_frame = slots_per_frame
        self.slots_per_subframe = slots_per_subframe
        self.mac = mac or MacAddress.from_int(0x02_00_00_00_30_02)
        self.ssb_copies = 0

    # -- handlers -----------------------------------------------------------

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        if packet.eth.src == self.du_mac:
            self._downlink_remap(ctx, packet)
        else:
            self._uplink_remap(ctx, packet)

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        if packet.direction is Direction.DOWNLINK:
            if self._is_ssb_packet(packet):
                self._handle_ssb(ctx, packet)
                return
            self._downlink_remap(ctx, packet)
        else:
            self._uplink_remap(ctx, packet)

    # -- port remapping ----------------------------------------------------------

    def _downlink_remap(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        """DU global port -> (RU, local port); redirect to the owner."""
        global_port = ctx.inspect(packet).eaxc.ru_port
        ru_mac, local_port = self.port_map.to_local(global_port)
        if local_port != global_port:
            ctx.set_ru_port(packet, local_port)
        self._count_remap("DL", rewritten=local_port != global_port)
        ctx.forward(packet, dst=ru_mac, src=self.mac)

    def _uplink_remap(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        """(RU, local port) -> DU global port; redirect to the DU."""
        source = packet.eth.src
        local_port = ctx.inspect(packet).eaxc.ru_port
        global_port = self.port_map.to_global(source, local_port)
        if global_port != local_port:
            ctx.set_ru_port(packet, global_port)
        self._count_remap("UL", rewritten=global_port != local_port)
        ctx.forward(packet, dst=self.du_mac, src=self.mac)

    def _count_remap(self, direction: str, rewritten: bool) -> None:
        if self.obs.enabled:
            self.obs.children(
                _REMAPS, self.name, direction, "yes" if rewritten else "no"
            ).inc()

    # -- SSB replication ------------------------------------------------------------

    def _is_ssb_packet(self, packet: FronthaulPacket) -> bool:
        if self.ssb is None or packet.is_cplane:
            return False
        if not self.ssb.covers(
            packet.time, self.slots_per_frame, self.slots_per_subframe
        ):
            return False
        port = packet.eaxc.ru_port
        if port == 0:
            return True
        return any(
            port == global_port
            for _, global_port in self.port_map.secondary_first_ports()
        )

    def _handle_ssb(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        """Copy the primary port's SSB PRBs into each secondary RU's
        first antenna port for the same symbol (A4)."""
        time = packet.time
        if packet.eaxc.ru_port == 0:
            # Primary port: extract the SSB PRBs and keep them, in
            # ``slot_state`` under the symbol time, while the slot is.
            self.slot_state[time] = self._extract_ssb(ctx, packet)
            # Release any secondary packets that arrived first.
            for _, pending in self.cache.pop_all(("ssb-wait", time)):
                self._emit_with_ssb(ctx, pending)
            self._downlink_remap(ctx, packet)
            return
        if time not in self.slot_state:
            # Secondary port-0 packet arrived before the primary; hold it.
            ctx.cache_put(("ssb-wait", time), packet)
            return
        self._emit_with_ssb(ctx, packet)

    def _extract_ssb(
        self, ctx: ActionContext, packet: FronthaulPacket
    ) -> UPlaneSection:
        """The SSB PRBs of the primary port as a standalone section."""
        section = packet.message.sections[0]
        ssb = self.ssb
        samples = ctx.decompress(section)
        start = ssb.prb_start - section.start_prb
        block = samples[start : start + ssb.num_prb]
        return UPlaneSection.from_samples(
            section_id=section.section_id,
            start_prb=ssb.prb_start,
            samples=block,
            compression=section.compression,
        )

    def _emit_with_ssb(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        ssb_section = self.slot_state[packet.time]
        section = packet.message.sections[0]
        updated = ctx.copy_prbs(
            source=ssb_section,
            destination=section,
            source_start_prb=ssb_section.start_prb,
            dest_start_prb=ssb_section.start_prb,
            num_prb=ssb_section.num_prb,
            aligned=True,
        )
        packet.message.sections[0] = updated
        self.ssb_copies += 1
        self._downlink_remap(ctx, packet)
