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

import enum
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple, Union

from repro import obs as obs_module
from repro.core.middlebox import Middlebox
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


class BreakerState(enum.Enum):
    """Circuit-breaker states for one chain stage."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Numeric encoding of breaker states for the obs gauge.
BREAKER_STATE_VALUE = {
    BreakerState.CLOSED: 0,
    BreakerState.OPEN: 1,
    BreakerState.HALF_OPEN: 2,
}


class CircuitBreaker:
    """Fail-open circuit breaker for one middlebox stage.

    ``failure_threshold`` consecutive faults open the breaker; while
    open, the next ``probation_packets`` admissions are refused (the
    stage is bypassed), after which one probe packet is admitted in
    half-open state.  A successful probe closes the breaker; a failed
    probe re-opens it for another probation period.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        probation_packets: int = 16,
        on_transition: Optional[
            Callable[[BreakerState, BreakerState], None]
        ] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if probation_packets < 0:
            raise ValueError("probation_packets must be >= 0")
        self.failure_threshold = failure_threshold
        self.probation_packets = probation_packets
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
            self._open_remaining = self.probation_packets
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
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._transition(BreakerState.OPEN)


class MiddleboxChain:
    """An ordered composition of middleboxes (service chaining).

    ``process_downlink`` pushes packets through boxes in order (towards
    the RUs); ``process_uplink`` through the reverse order (towards the
    DUs), matching Figure 8's bidirectional chain over one NIC.

    The chain owns dispatch: :meth:`_run_stage` is the only loop that
    calls :meth:`Middlebox.process`.  A stage that raises becomes a
    counted drop instead of crashing the chain, and every stage gets a
    :class:`CircuitBreaker`: after ``breaker_threshold`` consecutive
    faults the stage is bypassed (packets pass through unprocessed) for
    ``breaker_probation`` packets, then probed half-open.

    When observability is enabled, every burst records per-stage latency
    propagation: the modelled time each stage added and the cumulative
    latency a packet has accumulated when it leaves that stage.
    """

    def __init__(
        self,
        middleboxes: Sequence[Middlebox],
        name: str = "chain",
        obs: Optional[Observability] = None,
        breaker_threshold: int = 5,
        breaker_probation: int = 16,
    ):
        if not middleboxes:
            raise ValueError("a chain needs at least one middlebox")
        self.middleboxes = list(middleboxes)
        self.name = name
        self.obs = obs if obs is not None else obs_module.DEFAULT_OBSERVABILITY
        self.stage_faults = [0] * len(self.middleboxes)
        self.stage_bypassed = [0] * len(self.middleboxes)
        #: Packets that skipped a hold-capable stage because the caller
        #: passed ``deadline_flush=False`` (see :meth:`process_uplink`).
        self.hold_bypassed = 0
        #: Bounded log of ``(stage, middlebox, repr(exc))`` for post-mortems.
        self.fault_log: Deque[Tuple[int, str, str]] = deque(maxlen=64)
        self.breaker_events: List[Tuple[int, str, str]] = []
        self.breakers: List[CircuitBreaker] = []
        #: The ``stage`` metric label of each stage: ``"<index>:<name>"``.
        self._stage_labels: List[str] = []
        for stage, middlebox in enumerate(self.middleboxes):
            middlebox.chain_stage = stage
            self._stage_labels.append(f"{stage}:{middlebox.name}")
            self.breakers.append(
                CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    probation_packets=breaker_probation,
                    on_transition=self._breaker_observer(stage),
                )
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

    def _run_stage(
        self,
        middlebox: Middlebox,
        packets: List[FronthaulPacket],
        direction: str,
    ) -> List[FronthaulPacket]:
        """Run one stage with per-packet fault isolation + breaker.

        A closed breaker with no failure pending admits every packet and
        has nothing to reset on success, so it is consulted only once a
        fault happened (the same transitions, minus two calls a packet).
        """
        stage = middlebox.chain_stage
        label = self._stage_labels[stage]
        breaker = self.breakers[stage]
        closed = BreakerState.CLOSED
        process = middlebox.process
        obs = self.obs
        out: List[FronthaulPacket] = []
        for packet in packets:
            guarded = (
                breaker.state is not closed or breaker.consecutive_failures
            )
            if guarded and not breaker.admit():
                # Breaker open: fail open — the packet skips the stage.
                self.stage_bypassed[stage] += 1
                if obs.enabled:
                    obs.children(_STAGE_BYPASSED, self.name, label).inc()
                out.append(packet)
                continue
            try:
                ctx = process(packet)
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                breaker.record_failure()
                self.stage_faults[stage] += 1
                self.fault_log.append((stage, middlebox.name, repr(exc)))
                if obs.enabled:
                    obs.children(
                        _STAGE_FAULTS, self.name, label, direction
                    ).inc()
                continue
            if guarded:
                breaker.record_success()
            out.extend(ctx.emissions)
        return out

    @property
    def total_stage_faults(self) -> int:
        return sum(self.stage_faults)

    def _run(
        self, packets: List[FronthaulPacket], boxes: Sequence[Middlebox],
        direction: str,
    ) -> List[FronthaulPacket]:
        current = list(packets)
        obs = self.obs
        recording = obs.enabled
        if recording:
            obs.children(_CHAIN_PACKETS, self.name, direction).inc(len(current))
        cumulative = 0.0
        for middlebox in boxes:
            before_ns = middlebox.stats.processing_ns_total
            current = self._run_stage(middlebox, current, direction)
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

    def _resolve_stage(self, source: Union[int, str, Middlebox]) -> int:
        """Stage index of ``source`` (an index, a middlebox, or its name)."""
        if isinstance(source, Middlebox):
            return source.chain_stage
        if isinstance(source, str):
            for middlebox in self.middleboxes:
                if middlebox.name == source:
                    return middlebox.chain_stage
            raise KeyError(f"no chain stage named {source!r}")
        stage = int(source)
        if not 0 <= stage <= len(self.middleboxes):
            raise IndexError(
                f"stage {stage} out of range for a "
                f"{len(self.middleboxes)}-stage chain"
            )
        return stage

    def process_downlink(
        self, packets: List[FronthaulPacket]
    ) -> List[FronthaulPacket]:
        return self._run(packets, self.middleboxes, "DL")

    def process_uplink(
        self,
        packets: List[FronthaulPacket],
        *,
        source: Optional[Union[int, str, Middlebox]] = None,
        deadline_flush: bool = True,
    ) -> List[FronthaulPacket]:
        """Run packets towards the DUs (reverse stage order).

        ``source`` names the stage that *emitted* the packets — a stage
        index, a middlebox instance, or a middlebox name.  Only stages
        below it (the uplink tail) run; ``None`` runs the full chain, the
        path of packets entering from the RU side.

        ``deadline_flush`` controls whether hold-capable stages — those
        declaring ``deadline_hold``, like the DAS merge — may capture
        packets from this burst.  The default ``True`` is normal
        traversal.  Deadline sweeps pass ``False`` so a merge that was
        already force-flushed at the slot boundary is never re-captured
        (and re-delayed) by another merge stage further down the chain;
        such stages are bypassed and counted in ``hold_bypassed``.
        """
        if source is None:
            boxes = list(reversed(self.middleboxes))
        else:
            boxes = list(reversed(self.middleboxes[: self._resolve_stage(source)]))
        if not deadline_flush:
            holding = sum(box.deadline_hold for box in boxes)
            if holding:
                self.hold_bypassed += holding * len(packets)
                boxes = [box for box in boxes if not box.deadline_hold]
        if not boxes:
            return list(packets)
        return self._run(packets, boxes, "UL")
