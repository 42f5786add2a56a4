"""Tap points: attach a validator anywhere in the datapath.

Two attachment styles, matching the two places frames exist:

- :class:`ConformanceTap` — a pass-through middlebox; insert it at any
  chain stage boundary to validate everything flowing through that
  point (both directions, like every other middlebox).
- ``FronthaulNetwork(validator=...)`` — the network observes every
  post-chain burst at RU ingress (downlink) and DU ingress (uplink);
  see :mod:`repro.sim.network_sim`.

Validation never mutates or drops a frame: a tap is an observer, and a
violating frame continues on its way (the report records it).
"""

from __future__ import annotations

from repro.conformance.validator import WireValidator
from repro.core.middlebox import ActionContext, Middlebox
from repro.fronthaul.packet import FronthaulPacket


class ConformanceTap(Middlebox):
    """A pass-through middlebox that validates every packet it forwards."""

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
