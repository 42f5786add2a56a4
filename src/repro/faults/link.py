"""An impaired point-to-point link: a fault injector on the access wire.

Every frame crossing the wire passes through a
:class:`~repro.faults.injector.FaultInjector`; the frames it absorbs are
counted by cause — ``loss`` for vanished frames, ``malformed`` for
frames the corruptor rendered unparseable — and exported as
``link_drops_total`` on the injector's observability handle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.faults.injector import FaultInjector
from repro.fronthaul.packet import FronthaulPacket
from repro.obs.metrics import declare

_DROPS = declare(
    "counter", "link_drops_total",
    "frames dropped on a link by cause",
    ("link", "reason"),
)


class ImpairedLink:
    """A link whose frames pass through a fault injector."""

    def __init__(self, injector: FaultInjector):
        self.injector = injector
        self.name = f"{injector.name}-link"
        #: Frames that died on the wire, by cause.
        self.drops: Dict[str, int] = {"loss": 0, "malformed": 0}

    def carry(
        self, packets: Sequence[FronthaulPacket]
    ) -> List[FronthaulPacket]:
        """Impair one burst; returns the delivered packets."""
        stats = self.injector.stats
        lost_before = (
            stats.lost_iid + stats.lost_burst + stats.silenced
        )
        malformed_before = stats.corrupt_dropped + stats.truncate_dropped
        survivors = self.injector.apply(list(packets))
        self._drop(
            "loss",
            stats.lost_iid + stats.lost_burst + stats.silenced - lost_before,
        )
        self._drop(
            "malformed",
            stats.corrupt_dropped + stats.truncate_dropped - malformed_before,
        )
        return survivors

    def _drop(self, reason: str, count: int) -> None:
        if not count:
            return
        self.drops[reason] += count
        obs = self.injector.obs
        if obs.enabled:
            obs.children(_DROPS, self.name, reason).inc(count)
