"""The templated middlebox design (Section 3.2.2).

Developers subclass :class:`Middlebox` and implement ``on_cplane`` /
``on_uplane`` handlers using the :class:`~repro.core.actions.ActionContext`
API.  The base class supplies everything else: the packet cache and the
per-slot ring it is built on, closed once a slot, telemetry and
management interfaces, statistics, and the flight-recorder instrumentation
(:mod:`repro.obs`) every packet is accounted against when observability
is enabled.  All four reference applications of the paper (and this repo)
are built from this one template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import obs as obs_module
from repro.core.actions import ActionContext, PacketCache, SlotRing
from repro.core.latency import DEFAULT_COST_MODEL, ActionCostModel
from repro.core.management import ManagementInterface
from repro.core.telemetry import TelemetryBus
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


def _packet_children(
    registry, name: str, traffic_class: str, emitted: bool
) -> tuple:
    """What one packet updates, by class and outcome.  The last child is
    the ``tx`` byte counter for a packet that emitted and the drop counter
    for one that did not, so either series appears only once it happens."""
    return (
        _PACKETS(registry, name, traffic_class),
        _BYTES(registry, name, "rx"),
        _MODELED_NS(registry, name, traffic_class),
        _WALL_NS(registry, name, traffic_class),
        _BYTES(registry, name, "tx") if emitted else _DROPS(registry, name),
    )


@dataclass
class MiddleboxStats:
    """Counters every middlebox maintains."""

    rx_packets: int = 0
    tx_packets: int = 0
    dropped_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0
    processing_ns_total: float = 0.0

    def account_tx(self, emissions: List[FronthaulPacket]) -> int:
        """Count emitted packets; returns the emitted wire bytes."""
        tx_bytes = sum(packet.wire_size for packet in emissions)
        self.tx_packets += len(emissions)
        self.tx_bytes += tx_bytes
        return tx_bytes


class Middlebox:
    """Base class of all RANBooster middleboxes.

    Subclasses implement :meth:`on_cplane` and :meth:`on_uplane`; the
    default for both is transparent forwarding, so an empty subclass is a
    valid (pass-through) middlebox.  ``carrier_num_prb`` gives handlers
    the context to resolve ``numPrb=0`` wire encodings.

    ``obs`` is the observability handle packets are accounted against;
    it defaults to the module-level (disabled) handle, in which case the
    per-packet cost is a single attribute check.

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
        telemetry: Optional[TelemetryBus] = None,
        cost_model: ActionCostModel = DEFAULT_COST_MODEL,
        obs: Optional[Observability] = None,
        stack_profile=None,
    ):
        self.name = name or self.app_name
        self.telemetry = telemetry or TelemetryBus()
        self.cost_model = cost_model
        self.obs = obs if obs is not None else obs_module.DEFAULT_OBSERVABILITY
        self.stack_profile = stack_profile
        self.cache = PacketCache()
        #: Per-slot values that are not packets (what a handler must
        #: remember about a symbol until its slot is over).
        self.slot_state = SlotRing()
        self.management = ManagementInterface(owner=self.name)
        self.stats = MiddleboxStats()
        #: Position in an enclosing chain (set by MiddleboxChain).
        self.chain_stage: int = 0

    # -- handler hooks ---------------------------------------------------------

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        ctx.forward(packet)

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        ctx.forward(packet)

    def end_slot(
        self, deadline_flush: bool = False
    ) -> Tuple[List[FronthaulPacket], int]:
        """Close the slot, once all its packets went through: the one
        place per-slot state ages out (the cache and ``slot_state`` are
        the only per-slot stores a middlebox has).

        Returns ``(packets released towards the DUs, symbols abandoned)``
        — nothing and 0 unless a stage holds packets at the deadline;
        ``deadline_flush`` says whether such a stage should sweep them.
        """
        self.cache.ring.close()
        self.slot_state.close()
        return [], 0

    # -- engine ------------------------------------------------------------------

    def process(self, packet: FronthaulPacket) -> ActionContext:
        """Run one packet through the handler; returns the context it ran
        (``emissions``, ``events``, ``wire_bytes``, ``traffic_class``).

        Allocates the context — the packet's one record, which the box
        does not keep — and nothing else per packet: the events are
        shared values, the modelled total is kept running, and the
        counters are adds here.
        """
        obs = self.obs
        recording = obs.enabled
        start_ns = obs.clock() if recording else 0
        stats = self.stats
        ctx = ActionContext(self.cache, self.cost_model)
        ctx.wire_bytes = wire_bytes = packet.wire_size
        stats.rx_packets += 1
        stats.rx_bytes += wire_bytes
        cplane = packet.is_cplane
        if cplane:
            self.on_cplane(ctx, packet)
        else:
            self.on_uplane(ctx, packet)
        ctx.traffic_class = _TRAFFIC_CLASSES[
            packet.direction is Direction.DOWNLINK
        ][cplane]
        emissions = ctx.emissions
        if not emissions:
            stats.dropped_packets += 1
            tx_bytes = 0
        elif len(emissions) == 1:
            tx_bytes = emissions[0].wire_size
            stats.tx_packets += 1
            stats.tx_bytes += tx_bytes
        else:
            tx_bytes = stats.account_tx(emissions)
        modeled_ns = ctx.total_ns()
        stats.processing_ns_total += modeled_ns
        if recording:
            self._observe(obs, packet, ctx, tx_bytes, modeled_ns, start_ns)
        return ctx

    def _observe(
        self,
        obs: Observability,
        packet: FronthaulPacket,
        ctx: ActionContext,
        tx_bytes: int,
        modeled_ns: float,
        start_ns: int,
    ) -> None:
        """Account one processed packet in the metrics registry and, when
        sampled, leave a span row in the flight recorder."""
        wall_ns = obs.clock() - start_ns
        traffic_class = ctx.traffic_class
        emitted = bool(ctx.emissions)
        packets, rx_bytes, modeled, wall, outcome = obs.children(
            _packet_children, self.name, traffic_class, emitted
        )
        packets.inc()
        rx_bytes.inc(ctx.wire_bytes)
        outcome.inc(tx_bytes if emitted else 1)
        modeled.observe(modeled_ns)
        wall.observe(wall_ns)
        if obs.should_sample():
            time = packet.time
            obs.recorder.record((
                packet.ecpri.eaxc.to_int(),
                time.frame,
                time.subframe,
                time.slot,
                time.symbol,
                "DL" if packet.direction is Direction.DOWNLINK else "UL",
                packet.ecpri.seq_id,
                self.name,
                traffic_class,
                modeled_ns,
                float(wall_ns),
                start_ns,
                ctx.events,
                len(ctx.emissions),
                not emitted,
                self.chain_stage,
            ))
