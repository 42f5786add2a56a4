"""Middlebox deployment and chaining (Section 5, Figure 8).

A :class:`MiddleboxChain` runs packets through an ordered sequence of
middleboxes — the forwarding graph the NIC's SR-IOV embedded switch
realises on the testbed; the RU-sharing ⊕ DAS composition of Figure 12 is
exactly ``MiddleboxChain([sharing, das])``.  Delivery by destination MAC
between the chain and the endpoints is
:class:`repro.sim.network_sim.FronthaulNetwork`'s.

The chain is instrumented against :mod:`repro.obs`: it records per-stage
latency propagation (how modelled latency accumulates along the chain)
and every circuit-breaker transition.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro import obs as obs_module
from repro.core.middlebox import BreakerState, CircuitBreaker, Middlebox
from repro.fronthaul.packet import FronthaulPacket
from repro.obs import Observability
from repro.obs.metrics import declare

_BREAKER_TRANSITIONS = declare(
    "counter", "chain_breaker_transitions_total",
    "circuit-breaker state transitions per stage",
    ("chain", "stage", "to"),
)
_BREAKER_STATE = declare(
    "gauge", "chain_breaker_state",
    "breaker state per stage (0 closed, 1 open, 2 half-open)",
    ("chain", "stage"),
)
_STAGE_BYPASSED = declare(
    "counter", "chain_stage_bypassed_total",
    "packets that skipped a stage with an open breaker",
    ("chain", "stage"),
)
_STAGE_FAULTS = declare(
    "counter", "chain_stage_faults_total",
    "exceptions raised by a stage, absorbed as drops",
    ("chain", "stage", "direction"),
)
_STAGE_BURST_NS = declare(
    "histogram", "chain_stage_burst_ns",
    "modelled processing added by each chain stage per burst",
    ("chain", "stage", "direction"),
)
_CUMULATIVE_BURST_NS = declare(
    "histogram", "chain_cumulative_burst_ns",
    "modelled latency accumulated through the chain per burst",
    ("chain", "stage", "direction"),
)
_CHAIN_PACKETS = declare(
    "counter", "chain_packets_total",
    "packets entering the chain per direction",
    ("chain", "direction"),
)


#: Numeric encoding of breaker states for the obs gauge.
BREAKER_STATE_VALUE = {
    BreakerState.CLOSED: 0,
    BreakerState.OPEN: 1,
    BreakerState.HALF_OPEN: 2,
}


class MiddleboxChain:
    """An ordered composition of middleboxes (service chaining).

    ``process_downlink`` pushes packets through boxes in order (towards
    the RUs); ``process_uplink`` through the reverse order (towards the
    DUs), matching Figure 8's bidirectional chain over one NIC.

    The chain reads each packet's wire size once, when the burst enters,
    and hands every stage its whole burst in one
    :meth:`Middlebox.process_burst` call with the size column.  A stage
    that raises becomes a counted drop instead of crashing the chain, and
    every stage gets a :class:`CircuitBreaker`: after
    :data:`~repro.core.middlebox.FAILURE_THRESHOLD` consecutive faults the
    stage is bypassed (packets pass through unprocessed) for
    :data:`~repro.core.middlebox.PROBATION_PACKETS` packets, then probed
    half-open.

    When observability is enabled, every burst records per-stage latency
    propagation: the modelled time each stage added and the cumulative
    latency a packet has accumulated when it leaves that stage.
    """

    def __init__(
        self,
        middleboxes: Sequence[Middlebox],
        name: str = "chain",
        obs: Optional[Observability] = None,
    ):
        if not middleboxes:
            raise ValueError("a chain needs at least one middlebox")
        self.middleboxes = list(middleboxes)
        self.name = name
        self.obs = obs if obs is not None else obs_module.DEFAULT_OBSERVABILITY
        self.stage_faults = [0] * len(self.middleboxes)
        self.stage_bypassed = [0] * len(self.middleboxes)
        #: Bounded log of ``(stage, middlebox, repr(exc))`` for post-mortems.
        self.fault_log: Deque[Tuple[int, str, str]] = deque(maxlen=64)
        #: Bounded log of ``(stage, from, to)`` breaker transitions.
        self.breaker_events: Deque[Tuple[int, str, str]] = deque(maxlen=64)
        self.breakers: List[CircuitBreaker] = []
        #: The ``stage`` metric label of each stage: ``"<index>:<name>"``.
        self._stage_labels: List[str] = []
        for stage, middlebox in enumerate(self.middleboxes):
            middlebox.chain_stage = stage
            self._stage_labels.append(f"{stage}:{middlebox.name}")
            self.breakers.append(
                CircuitBreaker(on_transition=self._breaker_observer(stage))
            )

    def _breaker_observer(
        self, stage: int
    ) -> Callable[[BreakerState, BreakerState], None]:
        def observe(previous: BreakerState, state: BreakerState) -> None:
            self.breaker_events.append(
                (stage, previous.value, state.value)
            )
            obs = self.obs
            if obs.enabled:
                label = self._stage_labels[stage]
                obs.children(
                    _BREAKER_TRANSITIONS, self.name, label, state.value
                ).inc()
                obs.children(_BREAKER_STATE, self.name, label).set(
                    BREAKER_STATE_VALUE[state]
                )

        return observe

    def count_isolated(
        self, middlebox: Middlebox, direction: str, bypassed: int,
        faults: List[str],
    ) -> None:
        """Count what one stage burst's isolation did: ``bypassed``
        packets its open breaker refused and the ``repr`` of each
        exception its handler raised, in order."""
        stage = middlebox.chain_stage
        label = self._stage_labels[stage]
        obs = self.obs
        if bypassed:
            self.stage_bypassed[stage] += bypassed
            if obs.enabled:
                obs.children(_STAGE_BYPASSED, self.name, label).inc(bypassed)
        if faults:
            self.stage_faults[stage] += len(faults)
            self.fault_log.extend(
                (stage, middlebox.name, fault) for fault in faults
            )
            if obs.enabled:
                obs.children(
                    _STAGE_FAULTS, self.name, label, direction
                ).inc(len(faults))

    def _run(
        self, packets: List[FronthaulPacket], boxes: Sequence[Middlebox],
        direction: str,
    ) -> List[FronthaulPacket]:
        """Each stage in one call, with the burst's wire sizes read once
        here.  ``process_burst`` is looked up per call, so an instance's
        own (see :func:`repro.eval.kit.run_recorded`) is the one called."""
        current = list(packets)
        sizes = [packet.wire_size for packet in current]
        obs = self.obs
        recording = obs.enabled
        if recording:
            obs.children(_CHAIN_PACKETS, self.name, direction).inc(len(current))
        cumulative = 0.0
        for middlebox in boxes:
            before_ns = middlebox.stats.processing_ns_total
            current, sizes = middlebox.process_burst(
                current, sizes, self, direction
            )
            if recording:
                added = middlebox.stats.processing_ns_total - before_ns
                cumulative += added
                labels = (
                    self.name, self._stage_labels[middlebox.chain_stage],
                    direction,
                )
                obs.children(_STAGE_BURST_NS, *labels).observe(added)
                obs.children(_CUMULATIVE_BURST_NS, *labels).observe(cumulative)
        return current

    def process_downlink(
        self, packets: List[FronthaulPacket]
    ) -> List[FronthaulPacket]:
        return self._run(packets, self.middleboxes, "DL")

    def process_uplink(
        self,
        packets: List[FronthaulPacket],
        *,
        source: Optional[int] = None,
    ) -> List[FronthaulPacket]:
        """Run packets towards the DUs (reverse stage order).

        ``source=None`` runs the full chain, the path of packets entering
        from the RU side.  Otherwise the burst is a deadline release:
        ``source`` is the index of the stage that let it go at the slot
        boundary, and only the stages below it (the uplink tail) run,
        except the hold-capable ones (``deadline_hold``, like the DAS
        merge), so a merge already forced out is never re-captured (and
        re-delayed) by another merge stage further down the chain.
        """
        if source is None:
            boxes = list(reversed(self.middleboxes))
        elif 0 <= source <= len(self.middleboxes):
            boxes = [
                box for box in reversed(self.middleboxes[:source])
                if not box.deadline_hold
            ]
        else:
            raise IndexError(
                f"stage {source} out of range for a "
                f"{len(self.middleboxes)}-stage chain"
            )
        if not boxes:
            return list(packets)
        return self._run(packets, boxes, "UL")
