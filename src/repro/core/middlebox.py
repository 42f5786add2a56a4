"""The templated middlebox design (Section 3.2.2).

Developers subclass :class:`Middlebox` and implement ``on_cplane`` /
``on_uplane`` handlers using the :class:`~repro.core.actions.ActionContext`
API.  The base class supplies everything else: the packet cache and the
per-slot ring it is built on, closed once a slot, statistics, and the
flight-recorder instrumentation (:mod:`repro.obs`) every packet is
accounted against when observability is enabled.  An app's knobs are
plain attributes its ``__init__`` checks once, and its telemetry is the
record list it keeps.  All four reference applications of the paper (and
this repo) are built from this one template.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, List, Optional, Tuple

from repro import obs as obs_module
from repro.core.actions import (
    ActionContext,
    ActionKind,
    PacketCache,
    SlotRing,
    shared_event,
)
from repro.core.latency import DEFAULT_COST_MODEL
from repro.fronthaul.cplane import Direction
from repro.fronthaul.packet import FronthaulPacket
from repro.obs import Observability
from repro.obs.metrics import declare

#: Figure 15b's four traffic classes, indexed ``[downlink][cplane]``.
_TRAFFIC_CLASSES = (
    ("UL U-Plane", "UL C-Plane"),
    ("DL U-Plane", "DL C-Plane"),
)

_PACKETS = declare(
    "counter", "middlebox_packets_total",
    "packets processed per middlebox and traffic class",
    ("middlebox", "class"),
)
_BYTES = declare(
    "counter", "middlebox_bytes_total",
    "wire bytes through each middlebox by direction",
    ("middlebox", "direction"),
)
_DROPS = declare(
    "counter", "middlebox_drops_total",
    "packets absorbed (no emission) per middlebox",
    ("middlebox",),
)
_MODELED_NS = declare(
    "histogram", "middlebox_modeled_ns",
    "modelled per-packet processing time (ActionCostModel)",
    ("middlebox", "class"),
)
_WALL_NS = declare(
    "histogram", "middlebox_wall_ns",
    "measured per-packet wall time of this Python implementation",
    ("middlebox", "class"),
)


class BreakerState(enum.Enum):
    """Circuit-breaker states for one chain stage."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Consecutive faults that open a stage's breaker.
FAILURE_THRESHOLD = 5
#: Admissions an open breaker refuses before its half-open probe.
PROBATION_PACKETS = 16


class CircuitBreaker:
    """Fail-open circuit breaker for one middlebox stage.

    :data:`FAILURE_THRESHOLD` consecutive faults open the breaker; while
    open, the next :data:`PROBATION_PACKETS` admissions are refused (the
    stage is bypassed), after which one probe packet is admitted in
    half-open state.  A successful probe closes the breaker; a failed
    probe re-opens it for another probation period.
    """

    def __init__(
        self,
        on_transition: Optional[
            Callable[[BreakerState, BreakerState], None]
        ] = None,
    ):
        self.on_transition = on_transition
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self.recoveries = 0
        self._open_remaining = 0

    def _transition(self, to: BreakerState) -> None:
        previous = self.state
        self.state = to
        if to is BreakerState.OPEN:
            self.opens += 1
            self._open_remaining = PROBATION_PACKETS
        elif to is BreakerState.CLOSED and previous is BreakerState.HALF_OPEN:
            self.recoveries += 1
        if self.on_transition is not None:
            self.on_transition(previous, to)

    def admit(self) -> bool:
        """Should the stage see the next packet?"""
        if self.state is not BreakerState.OPEN:
            return True
        if self._open_remaining > 0:
            self._open_remaining -= 1
            return False
        self._transition(BreakerState.HALF_OPEN)
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._transition(BreakerState.OPEN)


@dataclass
class MiddleboxStats:
    """Counters every middlebox maintains."""

    rx_packets: int = 0
    tx_packets: int = 0
    dropped_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0
    processing_ns_total: float = 0.0


class Middlebox:
    """Base class of all RANBooster middleboxes.

    Subclasses implement :meth:`on_cplane` and :meth:`on_uplane`; the
    default for both is transparent forwarding, so an empty subclass is a
    valid (pass-through) middlebox, and a plane left at the default is
    forwarded without a context.  ``carrier_num_prb`` gives handlers the
    context to resolve ``numPrb=0`` wire encodings.

    ``obs`` is the observability handle packets are accounted against;
    it defaults to the module-level (disabled) handle, in which case the
    cost is a single attribute check per burst.

    ``stack_profile`` is the vendor stack profile
    (:class:`~repro.ran.stacks.VendorProfile`) of the deployment the
    middlebox serves, if known.  Middleboxes take no vendor-specific code
    paths (Section 6.2), but apps may derive configuration defaults from
    it (e.g. the fronthaul compression convention), and scenario-built
    deployments record it for reporting.  Every ``repro.apps`` middlebox
    accepts the same ``(name, obs, stack_profile)`` base keywords.
    """

    #: Human-readable application name (overridden by subclasses).
    app_name = "passthrough"
    #: True for a stage that holds uplink packets for their peers and may
    #: release them from :meth:`end_slot` (the DAS merge): a packet already
    #: forced out at the slot boundary must not be captured by another.
    deadline_hold = False

    def __init__(
        self,
        name: str = "",
        obs: Optional[Observability] = None,
        stack_profile=None,
    ):
        self.name = name or self.app_name
        self.obs = obs if obs is not None else obs_module.DEFAULT_OBSERVABILITY
        self.stack_profile = stack_profile
        self.cache = PacketCache()
        #: Per-slot values that are not packets (what a handler must
        #: remember about a symbol until its slot is over).
        self.slot_state = SlotRing()
        self.stats = MiddleboxStats()
        #: Position in an enclosing chain (set by MiddleboxChain).
        self.chain_stage: int = 0

    # -- handler hooks ---------------------------------------------------------

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        ctx.forward(packet)

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        ctx.forward(packet)

    def end_slot(self) -> Tuple[List[FronthaulPacket], int]:
        """Close the slot, once all its packets went through: the one
        place per-slot state ages out (the cache and ``slot_state`` are
        the only per-slot stores a middlebox has).

        Returns ``(packets released towards the DUs, symbols abandoned)``
        — nothing and 0 unless a stage holds packets at the deadline,
        which it sweeps here.
        """
        self.cache.ring.close()
        self.slot_state.close()
        return [], 0

    # -- engine ------------------------------------------------------------------

    def process(self, packet: FronthaulPacket) -> ActionContext:
        """Run one packet through its handler; returns the context it ran
        (``emissions``, ``events``, ``wire_bytes``, ``traffic_class``).

        A one-packet :meth:`process_burst` that asks for the context; a
        handler's exception propagates.
        """
        contexts: List[ActionContext] = []
        self.process_burst([packet], [packet.wire_size], contexts=contexts)
        return contexts[0]

    def process_burst(
        self,
        packets: List[FronthaulPacket],
        sizes: List[int],
        chain=None,
        direction: str = "",
        contexts: Optional[List[ActionContext]] = None,
    ) -> Tuple[List[FronthaulPacket], List[int]]:
        """The one per-packet stage loop: run a burst through the handlers;
        returns the packets emitted, in order, and their wire sizes.

        ``sizes`` is the burst's size column (the previous stage's
        transmit sizes).  An emission's size is read once, when its
        handler returns, and is the next stage's receive size: a stage
        must not change a packet after emitting it.  In ``chain`` (running
        ``direction``) the stage's breaker admits each packet and a
        handler's exception is a drop the chain counts; alone, it
        propagates.  A plane whose handler is the template's forward gets
        no :class:`ActionContext` unless ``contexts`` asks for one per
        processed packet.  Stats and counters are updated once per burst
        (``processing_ns_total`` still adds each packet's modelled ns, in
        order); histograms and span rows stay per packet.
        """
        if contexts is None:
            on_cplane = _own_handler(self.on_cplane, Middlebox.on_cplane)
            on_uplane = _own_handler(self.on_uplane, Middlebox.on_uplane)
        else:
            on_cplane, on_uplane = self.on_cplane, self.on_uplane
        breaker = None if chain is None else chain.breakers[self.chain_stage]
        closed = BreakerState.CLOSED
        stats, obs = self.stats, self.obs
        recording = obs.enabled
        cache = self.cache
        forward_ns = DEFAULT_COST_MODEL.forward_ns
        total_ns = stats.processing_ns_total
        if on_cplane is None and on_uplane is None and not recording and (
            breaker is None or breaker.state is closed
            and not breaker.consecutive_failures
        ):
            # Nothing to dispatch, admit or record: out as it came in.
            for _ in packets:
                total_ns += forward_ns
            stats.processing_ns_total = total_ns
            count, size = len(packets), sum(sizes)
            stats.rx_packets += count
            stats.tx_packets += count
            stats.rx_bytes += size
            stats.tx_bytes += size
            return packets, sizes
        start_ns = obs.clock() if recording else 0
        observed: list = []
        faults: List[str] = []
        emitted: List[FronthaulPacket] = []
        emitted_sizes: List[int] = []
        received = received_bytes = sent = sent_bytes = dropped = bypassed = 0
        try:
            for packet, size in zip(packets, sizes):
                # A closed breaker with no failure pending admits every
                # packet and has nothing to reset: consulted only once a
                # fault happened (the same transitions, two calls fewer).
                guarded = breaker is not None and (
                    breaker.state is not closed or breaker.consecutive_failures
                )
                if guarded and not breaker.admit():
                    # Breaker open: fail open, the packet skips the stage.
                    bypassed += 1
                    emitted.append(packet)
                    emitted_sizes.append(size)
                    continue
                received += 1
                received_bytes += size
                cplane = packet.is_cplane
                handler = on_cplane if cplane else on_uplane
                if handler is None:
                    # The template's forward, without a context.
                    events, modeled_ns = None, forward_ns
                    out, out_bytes = 1, size
                    emitted.append(packet)
                    emitted_sizes.append(size)
                else:
                    ctx = ActionContext(cache)
                    ctx.wire_bytes = size
                    try:
                        handler(ctx, packet)
                    except Exception as exc:  # noqa: BLE001 — isolation
                        if breaker is None:
                            raise
                        breaker.record_failure()
                        faults.append(repr(exc))
                        continue
                    if contexts is not None:
                        ctx.traffic_class = _TRAFFIC_CLASSES[
                            packet.direction is Direction.DOWNLINK
                        ][cplane]
                        contexts.append(ctx)
                    events, modeled_ns = ctx.events, ctx.total_ns()
                    out, out_bytes = len(ctx.emissions), 0
                    for packet_out in ctx.emissions:
                        out_size = packet_out.wire_size
                        out_bytes += out_size
                        emitted_sizes.append(out_size)
                    emitted += ctx.emissions
                sent += out
                sent_bytes += out_bytes
                if not out:
                    dropped += 1
                total_ns += modeled_ns
                if guarded:
                    breaker.record_success()
                if recording:
                    observed.append(
                        (packet, cplane, modeled_ns, events, out, out_bytes, size)
                    )
        finally:
            stats.processing_ns_total = total_ns
            stats.rx_packets += received
            stats.rx_bytes += received_bytes
            stats.tx_packets += sent
            stats.tx_bytes += sent_bytes
            stats.dropped_packets += dropped
            if observed:
                self._observe(obs, observed, start_ns)
            if bypassed or faults:
                chain.count_isolated(self, direction, bypassed, faults)
        return emitted, emitted_sizes

    def _observe(self, obs: Observability, observed: list, start_ns: int) -> None:
        """Account a burst's processed packets in the metrics registry —
        each counter once per (burst, class), each class's modelled ns
        observed per packet in order, the burst's wall ÷ n as each
        packet's wall — and leave a span row in the flight recorder per
        sampled packet, all rows in one append."""
        count = len(observed)
        wall_ns = (obs.clock() - start_ns) / count
        name, stage = self.name, self.chain_stage
        sampled = obs.sample_positions(count)
        if len(sampled) == count:
            flags = repeat(True, count)
        else:
            flags = [False] * count
            for position in sampled:
                flags[position] = True
        # Row starts add the wall one packet at a time (the same floats).
        starts = accumulate(repeat(wall_ns, count - 1), initial=start_ns)
        # Each traffic class's modelled ns, indexed like _TRAFFIC_CLASSES.
        modeled = (([], []), ([], []))
        rows: list = []
        received_bytes = sent_bytes = drops = 0
        for (packet, cplane, modeled_ns, events, out, out_bytes, size), \
                row_start, sample in zip(observed, starts, flags):
            message = packet.message
            downlink = message.direction is Direction.DOWNLINK
            modeled[downlink][cplane].append(modeled_ns)
            received_bytes += size
            if out:
                sent_bytes += out_bytes
            else:
                drops += 1
            if sample:
                if events is None:
                    events = [shared_event(ActionKind.ROUTE, modeled_ns)]
                ecpri = packet.ecpri
                rows.append((
                    ecpri.eaxc.to_int(), message.time,
                    "DL" if downlink else "UL", ecpri.seq_id, name,
                    _TRAFFIC_CLASSES[downlink][cplane], modeled_ns, wall_ns,
                    int(row_start), events, out, not out, stage,
                ))
        if rows:
            obs.recorder.record(rows)
        children = obs.children
        for classes, lists in zip(_TRAFFIC_CLASSES, modeled):
            for traffic_class, values in zip(classes, lists):
                if not values:
                    continue
                modeled_child, packets, wall = children(
                    _class_children, name, traffic_class
                )
                modeled_child.observe_all(values)
                packets.inc(len(values))
                wall.observe(wall_ns, len(values))
        children(_BYTES, name, "rx").inc(received_bytes)
        if drops < count:  # some packet emitted
            children(_BYTES, name, "tx").inc(sent_bytes)
        if drops:
            children(_DROPS, name).inc(drops)


def _class_children(registry, name: str, traffic_class: str):
    """The three series a burst updates per traffic class it carried."""
    return (
        _MODELED_NS(registry, name, traffic_class),
        _PACKETS(registry, name, traffic_class),
        _WALL_NS(registry, name, traffic_class),
    )


def _own_handler(handler, template):
    """``handler``, or ``None`` when it is the template's forward."""
    return None if getattr(handler, "__func__", None) is template else handler
