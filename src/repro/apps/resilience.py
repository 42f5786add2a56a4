"""RAN resilience middlebox (Section 8.1, "RAN resilience").

Detects DU failures by monitoring inter-packet gaps on the fronthaul
(action A4 inspection) and re-routes the RU's traffic to a standby DU
within a configurable number of slots (action A1 redirection) — the
failover pattern of Slingshot [38] and Atlas [69] realized as a
RANBooster middlebox, without touching either DU.

The same mechanism doubles as a hitless-upgrade path: draining the
primary DU simply looks like a failure and traffic moves to the standby.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.actions import ActionContext, ExecLocation
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket


@dataclass(frozen=True)
class FailoverEvent:
    """One failover decision (the middlebox's :attr:`events` record)."""

    failed_du: MacAddress
    standby_du: MacAddress
    detected_at_ns: float
    silence_ns: float


class ResilienceMiddlebox(Middlebox):
    """Primary/standby DU failover for one RU's fronthaul.

    Downlink packets from the active DU refresh a liveness timestamp;
    when the gap exceeds ``silence_threshold_ns`` (checked against the
    fronthaul clock carried in packet timestamps), the middlebox fails
    over: uplink traffic is redirected to the standby DU, whose downlink
    is then forwarded to the RU.  Failback is manual (:meth:`failback`),
    as in the systems the paper cites.
    """

    app_name = "resilience"
    #: Liveness tracking and redirection are header-only operations.
    nominal_xdp_location = ExecLocation.KERNEL

    def __init__(
        self,
        primary_du: MacAddress,
        standby_du: MacAddress,
        ru_mac: MacAddress,
        silence_threshold_ns: float = 2_000_000.0,  # 4 slots at 30 kHz SCS
        numerology=None,
        mac: Optional[MacAddress] = None,
        name: str = "",
        obs=None,
        stack_profile=None,
        **kwargs,
    ):
        super().__init__(
            name=name, obs=obs, stack_profile=stack_profile, **kwargs
        )
        from repro.fronthaul.timing import Numerology

        self.primary_du = primary_du
        self.standby_du = standby_du
        self.ru_mac = ru_mac
        self.numerology = numerology or Numerology(mu=1)
        self.mac = mac or MacAddress.from_int(0x02_00_00_00_30_04)
        if not silence_threshold_ns > 0:
            raise ValueError(
                f"silence_threshold_ns must be > 0, got {silence_threshold_ns!r}"
            )
        self.silence_threshold_ns = silence_threshold_ns
        #: True from a detected primary failure until :meth:`failback`.
        self.failed_over = False
        self.events: List[FailoverEvent] = []
        self._last_primary_ns: Optional[float] = None

    @property
    def active_du(self) -> MacAddress:
        return self.standby_du if self.failed_over else self.primary_du

    def failback(self) -> None:
        """Operator-initiated return to the primary DU."""
        self.failed_over = False
        self._last_primary_ns = None

    # -- handlers -------------------------------------------------------------

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        self._handle(ctx, packet)

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        self._handle(ctx, packet)

    def _handle(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        now_ns = packet.time.ns(self.numerology)
        source = packet.eth.src
        if packet.direction is Direction.DOWNLINK or packet.is_cplane:
            if source == self.primary_du:
                self._liveness_update(ctx, now_ns)
                if self.active_du == self.primary_du:
                    ctx.forward(packet, dst=self.ru_mac, src=self.mac)
                else:
                    # A late riser after failover: suppress to avoid two
                    # controllers driving one RU.
                    ctx.drop(packet)
                return
            if source == self.standby_du:
                # The warm standby's stream doubles as the detection clock:
                # its timestamps reveal how long the primary has been quiet
                # even when the RU (and thus uplink) has gone silent too.
                self._check_deadline(ctx, now_ns)
                if self.active_du == self.standby_du:
                    ctx.forward(packet, dst=self.ru_mac, src=self.mac)
                else:
                    ctx.drop(packet)  # standby stays warm but dark
                return
            ctx.forward(packet)
            return
        # Uplink from the RU: check liveness, then steer to the active DU.
        self._check_deadline(ctx, now_ns)
        ctx.forward(packet, dst=self.active_du, src=self.mac)

    def _liveness_update(self, ctx: ActionContext, now_ns: float) -> None:
        ctx.inspect  # liveness is an A4 inspection of the timing header
        self._last_primary_ns = now_ns

    def _check_deadline(self, ctx: ActionContext, now_ns: float) -> None:
        if self.failed_over or self._last_primary_ns is None:
            return
        silence = now_ns - self._last_primary_ns
        if silence > self.silence_threshold_ns:
            self.failed_over = True
            event = FailoverEvent(
                failed_du=self.primary_du,
                standby_du=self.standby_du,
                detected_at_ns=now_ns,
                silence_ns=silence,
            )
            self.events.append(event)
