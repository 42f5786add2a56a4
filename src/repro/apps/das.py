"""The Distributed Antenna System middlebox (Section 4.1, Figure 5a).

Downlink: every C- and U-plane packet from the DU is replicated (A2) and
forwarded (A1) to all DAS RUs, which therefore transmit the identical
signal — extending the cell's coverage.

Uplink: the per-RU U-plane packets for a given symbol and antenna port are
cached (A3) until every RU has reported, then their IQ payloads are
decompressed, summed element-wise per subcarrier, recompressed (A4), and
the single merged packet is forwarded to the DU while the rest are
dropped (A1).  Because one scheduler allocates non-overlapping PRBs to all
UEs under the DAS, each summed PRB carries at most one UE's data per MIMO
layer and the combination is interference-free.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.actions import ActionContext, ExecLocation
from repro.core.middlebox import Middlebox
from repro.faults.sequence import SeqVerdict, SequenceTracker
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.obs.metrics import declare

_MERGE_FANIN = declare(
    "histogram", "das_merge_fanin",
    "RU packets combined per uplink merge",
    ("middlebox",),
    buckets=(1, 2, 3, 4, 6, 8, 12, 16),
)
_MERGED_SYMBOLS = declare(
    "counter", "das_merged_symbols_total",
    "completed uplink IQ merges",
    ("middlebox",),
)
_MISSED_DEADLINES = declare(
    "counter", "das_missed_merge_deadlines_total",
    "uplink merges abandoned at the slot deadline",
    ("middlebox",),
)
_DEGRADED_MERGES = declare(
    "counter", "das_degraded_merges_total",
    "deadline merges completed from a partial RU subset",
    ("middlebox",),
)


class DasMiddlebox(Middlebox):
    """One DAS group: a single DU fanned out to ``ru_macs``.

    The RU set is fixed for the middlebox's life; a ``rechain`` delta
    (:mod:`repro.serve.delta`) is how a live run changes it (Section
    3.2's reconfiguration capability).
    """

    app_name = "das"
    #: Table 1: the XDP implementation of DAS processes packets in
    #: userspace (IQ decompression/summing is impractical in eBPF).
    nominal_xdp_location = ExecLocation.USERSPACE
    deadline_hold = True

    def __init__(
        self,
        du_mac: MacAddress,
        ru_macs: Sequence[MacAddress],
        mac: Optional[MacAddress] = None,
        partial_merge: bool = False,
        name: str = "",
        obs=None,
        stack_profile=None,
        **kwargs,
    ):
        super().__init__(
            name=name, obs=obs, stack_profile=stack_profile, **kwargs
        )
        if not ru_macs:
            raise ValueError("a DAS group needs at least one RU")
        if not isinstance(partial_merge, bool):
            raise ValueError(
                f"partial_merge must be a bool, got {partial_merge!r}"
            )
        self.du_mac = du_mac
        self.mac = mac or MacAddress.from_int(0x02_00_00_00_30_01)
        self.ru_macs: Tuple[MacAddress, ...] = tuple(ru_macs)
        self._ru_set = frozenset(self.ru_macs)
        #: When enabled, the deadline sweep merges whatever subset of RU
        #: packets arrived in time (a *degraded* merge: reduced combining
        #: gain) instead of abandoning the symbol outright.
        self.partial_merge = partial_merge
        #: Per-(RU, eAxC) eCPRI sequence tracking: classifies duplicates
        #: and stragglers with proper 8-bit seq_id wraparound, so the wrap
        #: after packet 255 is not mistaken for a retransmission.
        self.seq_tracker = SequenceTracker(
            name=f"{self.name}-seq", obs=self.obs
        )
        self.merged_uplink_symbols = 0
        #: Symbols whose merge never completed before the slot's deadline
        #: sweep (an RU's packet was lost or late — Section 2.2's strict
        #: windows).
        self.missed_merge_deadlines = 0
        #: Deadline merges completed with fewer than all RU packets.
        self.degraded_merges = 0
        self.duplicate_uplink_packets = 0
        #: Stragglers for symbols already merged and forwarded: dropped so
        #: the DU never sees the same symbol twice.
        self.late_uplink_packets = 0
        #: Per-eAxC seq counter for the DU-facing merged stream: the DAS
        #: originates that stream, so it cannot reuse a source RU's seq
        #: (a merge of N packets into one would leave wire-visible gaps).
        self._seq: Dict[int, int] = {}

    def _next_seq(self, eaxc_int: int) -> int:
        seq = self._seq.get(eaxc_int, 0)
        self._seq[eaxc_int] = (seq + 1) % 256
        return seq

    def _forward_merged(
        self,
        ctx: ActionContext,
        template: FronthaulPacket,
        packets: List[FronthaulPacket],
    ) -> FronthaulPacket:
        """A4 merge + A1 forward: ``packets`` summed into one packet on
        ``template``'s flow, under this DAS's own seq, sent to the DU."""
        message = UPlaneMessage(
            direction=Direction.UPLINK,
            time=template.time,
            sections=self._merge_sections(ctx, packets),
            filter_index=template.message.filter_index,
        )
        ecpri = dataclasses.replace(
            template.ecpri,
            seq_id=self._next_seq(template.ecpri.eaxc.to_int()),
        )
        out = FronthaulPacket(eth=template.eth, ecpri=ecpri, message=message)
        ctx.forward(out, dst=self.du_mac, src=self.mac)
        # Remembered while its slot is: a straggler must not start over.
        self.slot_state[template.flow_key()] = True
        return out

    # -- handlers ----------------------------------------------------------

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        if packet.eth.src == self.du_mac:
            self._fan_out(ctx, packet)
        else:
            # RUs do not originate C-plane traffic; pass through unknown.
            ctx.forward(packet)

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        if packet.direction is not Direction.DOWNLINK:
            self._merge_uplink(ctx, packet)
        elif packet.eth.src == self.du_mac:
            self._fan_out(ctx, packet)
        else:
            ctx.forward(packet)  # another DU's downlink

    # -- downlink fan-out -----------------------------------------------------

    def _fan_out(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        """A2 + A1: one copy of the packet per DAS RU."""
        ru_macs = self.ru_macs
        copies = ctx.replicate(packet, len(ru_macs) - 1)
        for target, copy in zip(ru_macs, [packet] + copies):
            ctx.forward(copy, dst=target, src=self.mac)

    # -- uplink merge -----------------------------------------------------------

    def _merge_uplink(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        """A3 until all RUs reported, then A4 merge + A1 forward."""
        key = packet.flow_key()
        source = packet.eth.src
        if source not in self._ru_set:
            ctx.forward(packet)  # not part of this DAS group
            return
        status = self.seq_tracker.observe(
            (source.to_int(), packet.ecpri.eaxc.to_int()),
            packet.ecpri.seq_id,
            context=key,
        )
        if status.verdict is SeqVerdict.DUPLICATE:
            self.duplicate_uplink_packets += 1
            ctx.drop(packet)
            return
        if key in self.slot_state:
            # Straggler for a symbol that already merged and shipped.
            self.late_uplink_packets += 1
            ctx.drop(packet)
            return
        if source in self.cache.tags(key):
            # Duplicate from the same RU (retransmission); drop.
            self.duplicate_uplink_packets += 1
            ctx.drop(packet)
            return
        occupancy = ctx.cache_put(key, packet, tag=source)
        if occupancy < len(self.ru_macs):
            return
        cached = ctx.cache_pop_all(key)
        if self.obs.enabled:
            self.obs.children(_MERGE_FANIN, self.name).observe(len(cached))
            self.obs.children(_MERGED_SYMBOLS, self.name).inc()
        # The merged packet replaces all cached ones: forward it, the
        # remaining (len-1) cached packets are implicitly dropped.
        self._forward_merged(ctx, packet, [p for _, p in cached])
        self.merged_uplink_symbols += 1

    def _merge_sections(
        self, ctx: ActionContext, packets: List[FronthaulPacket]
    ) -> List[UPlaneSection]:
        """Merge matching sections across per-RU packets element-wise.

        Each section index is merged in one batched A4 pass: the N per-RU
        payloads are decompressed into a single ``(n_rus, n_prbs, 24)``
        stack, summed once, and recompressed once (see
        :meth:`ActionContext.merge_iq`).
        """
        section_counts = {len(p.message.sections) for p in packets}
        if len(section_counts) != 1:
            raise ValueError("RU uplink packets disagree on section count")
        per_index = zip(*(p.message.sections for p in packets))
        return [ctx.merge_iq(operands) for operands in per_index]

    # -- deadline handling -------------------------------------------------

    def end_slot(self) -> Tuple[List[FronthaulPacket], int]:
        """Sweep the slot, then close it.

        A merge still waiting when its slot closes will never complete
        (an RU's packet missed the receive window) — and every cached
        entry was opened in this slot or an earlier one, whatever
        (wrapping) frame its key names.  The symbol is abandoned — the
        DU never receives it, as on a real fronthaul — unless
        ``partial_merge`` is on: then it is merged from whatever RU
        subset arrived in time and the degraded packet is returned for
        delivery to the DU (reduced combining gain beats a silent hole
        in the slot).
        Returns ``(degraded packets, abandoned symbol count)``.
        """
        emitted: List[FronthaulPacket] = []
        abandoned = 0
        partial = self.partial_merge
        for key in self.cache.keys():
            packets = [packet for _, packet in self.cache.pop_all(key)]
            merged = self._degraded_merge(packets) if partial else None
            if merged is None:
                abandoned += 1
            else:
                emitted.append(merged)
        self.missed_merge_deadlines += abandoned
        obs = self.obs
        if obs.enabled:
            if abandoned:
                obs.children(_MISSED_DEADLINES, self.name).inc(abandoned)
            if emitted:
                obs.children(_DEGRADED_MERGES, self.name).inc(len(emitted))
        super().end_slot()
        return emitted, abandoned

    def _degraded_merge(
        self, packets: List[FronthaulPacket]
    ) -> Optional[FronthaulPacket]:
        """Merge a partial RU subset at the deadline; ``None`` on failure."""
        ctx = ActionContext(self.cache)
        try:
            out = self._forward_merged(ctx, packets[-1], packets)
        except ValueError:
            # Corrupted or inconsistent cached packets: the symbol is lost.
            return None
        self.stats.processing_ns_total += ctx.total_ns()
        self.stats.tx_packets += 1
        self.stats.tx_bytes += out.wire_size
        self.degraded_merges += 1
        if self.obs.enabled:
            self.obs.children(_MERGE_FANIN, self.name).observe(len(packets))
        return out
