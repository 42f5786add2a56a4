"""The fault-injecting middlebox.

:class:`FaultInjectorMiddlebox` wraps a :class:`~repro.faults.injector.
FaultInjector` as a chain stage, modeling an impaired wire segment
*between* two middleboxes.
"""

from __future__ import annotations

from repro.core.actions import ActionContext
from repro.core.middlebox import Middlebox
from repro.faults.injector import FaultInjector
from repro.fronthaul.packet import FronthaulPacket


class FaultInjectorMiddlebox(Middlebox):
    """An impaired wire segment as a chain stage.

    Survivors of the injector are forwarded unchanged; absorbed packets
    become ordinary middlebox drops (so the chain's accounting sees
    them).  Duplicates and released reorder stragglers come out as extra
    emissions of the packet that triggered their release.
    """

    app_name = "impaired_wire"

    def __init__(self, injector: FaultInjector, **kwargs):
        kwargs.setdefault("name", f"wire-{injector.name}")
        super().__init__(**kwargs)
        self.injector = injector

    def _relay(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        for survivor in self.injector.apply_one(packet):
            ctx.forward(survivor)

    on_cplane = _relay
    on_uplane = _relay
