"""Fronthaul security guard (Section 8.1, "Security").

The open fronthaul lacks mandatory integrity protection; spoofed C-plane
messages can reconfigure an RU and replayed U-plane data can corrupt the
uplink [70].  Adding cryptographic protection costs latency, so the paper
proposes middlebox-based monitoring and filtering as a lightweight
alternative: inspect fronthaul headers (A4) and drop anomalous packets
(A1) in real time.

The guard enforces three invariants per eAxC flow:

- **source allow-list**: frames must come from provisioned DU/RU MACs;
- **sequence continuity**: the eCPRI seq-id must advance (replay and
  injection break monotonicity);
- **timing window**: the message timestamp must stay within a bounded
  distance of the flow's most recent timestamp (stale replays and
  far-future injections fall outside).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.actions import ActionContext, ExecLocation
from repro.core.middlebox import Middlebox
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.timing import MAX_FRAME_ID, Numerology


@dataclass(frozen=True)
class SecurityAlert:
    """One dropped packet and why."""

    reason: str
    source: MacAddress
    eaxc: int
    seq_id: int


@dataclass
class _FlowState:
    last_seq: Optional[int] = None
    last_slot: Optional[int] = None


class FronthaulGuardMiddlebox(Middlebox):
    """Inline spoofing/replay filter for one fronthaul segment."""

    app_name = "fronthaul_guard"
    #: Pure header checks: runs in the kernel XDP program.
    nominal_xdp_location = ExecLocation.KERNEL

    def __init__(
        self,
        allowed_sources: Iterable[MacAddress],
        max_slot_skew: int = 8,
        numerology: Numerology = Numerology(mu=1),
        name: str = "",
        obs=None,
        stack_profile=None,
        **kwargs,
    ):
        super().__init__(
            name=name, obs=obs, stack_profile=stack_profile, **kwargs
        )
        self.allowed: Set[int] = {mac.to_int() for mac in allowed_sources}
        if not self.allowed:
            raise ValueError("the guard needs at least one allowed source")
        self.max_slot_skew = max_slot_skew
        self.numerology = numerology
        self.alerts: List[SecurityAlert] = []
        self._flows: Dict[Tuple[int, int], _FlowState] = {}

    # -- handlers -------------------------------------------------------------

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        self._filter(ctx, packet)

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        self._filter(ctx, packet)

    # -- checks ----------------------------------------------------------------

    def _filter(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        ctx.inspect(packet)
        reason = self._violation(packet)
        if reason is None:
            self._commit(packet)
            ctx.forward(packet)
            return
        alert = SecurityAlert(
            reason=reason,
            source=packet.eth.src,
            eaxc=packet.eaxc.to_int(),
            seq_id=packet.ecpri.seq_id,
        )
        self.alerts.append(alert)
        ctx.drop(packet)

    def _flow_key(self, packet: FronthaulPacket) -> Tuple[int, int]:
        return (packet.eth.src.to_int(), packet.eaxc.to_int())

    def _violation(self, packet: FronthaulPacket) -> Optional[str]:
        if packet.eth.src.to_int() not in self.allowed:
            return "unknown_source"
        state = self._flows.get(self._flow_key(packet))
        if state is None:
            return None  # first sighting establishes the flow
        if state.last_seq is not None:
            advance = (packet.ecpri.seq_id - state.last_seq) % 256
            if advance == 0:
                return "replayed_sequence"
            if advance > 128:
                return "regressed_sequence"
        if state.last_slot is not None:
            slot = packet.time.absolute_slot(self.numerology)
            epoch = MAX_FRAME_ID * self.numerology.slots_per_frame
            skew = min(
                (slot - state.last_slot) % epoch,
                (state.last_slot - slot) % epoch,
            )
            if skew > self.max_slot_skew:
                return "timing_window"
        return None

    def _commit(self, packet: FronthaulPacket) -> None:
        state = self._flows.setdefault(self._flow_key(packet), _FlowState())
        state.last_seq = packet.ecpri.seq_id
        state.last_slot = packet.time.absolute_slot(self.numerology)
