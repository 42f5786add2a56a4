"""A middlebox that raises on schedule: the adversary the chain's
per-stage isolation and circuit breaker are tested against."""

from typing import Optional, Tuple

from repro.core.actions import ActionContext
from repro.core.middlebox import Middlebox
from repro.fronthaul.packet import FronthaulPacket


class InjectedFault(RuntimeError):
    """The exception a :class:`FaultyMiddlebox` raises on schedule."""


class FaultyMiddlebox(Middlebox):
    """Pass-through middlebox that raises on scheduled packets.

    Either ``fail_every`` (raise on every Nth packet) or ``fail_range``
    (raise on packets with ordinal in ``[start, stop)``) can be set; the
    latter produces exactly ``stop - start`` *consecutive* faults, which
    is how the chaos test opens a circuit breaker a precise number of
    times.
    """

    app_name = "faulty"

    def __init__(
        self,
        fail_every: Optional[int] = None,
        fail_range: Optional[Tuple[int, int]] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if fail_every is not None and fail_every < 1:
            raise ValueError("fail_every must be >= 1")
        if fail_range is not None and fail_range[0] >= fail_range[1]:
            raise ValueError("fail_range must be a non-empty [start, stop)")
        self.fail_every = fail_every
        self.fail_range = fail_range
        self.seen = 0
        self.raised = 0

    def _maybe_raise(self, packet: FronthaulPacket) -> None:
        self.seen += 1
        ordinal = self.seen
        should_fail = False
        if self.fail_every is not None and ordinal % self.fail_every == 0:
            should_fail = True
        if self.fail_range is not None:
            start, stop = self.fail_range
            if start <= ordinal < stop:
                should_fail = True
        if should_fail:
            self.raised += 1
            raise InjectedFault(
                f"{self.name}: scheduled fault on packet {ordinal}"
            )

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        self._maybe_raise(packet)
        ctx.forward(packet)

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        self._maybe_raise(packet)
        ctx.forward(packet)
