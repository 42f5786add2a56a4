"""The packet-level testbed: DUs, middleboxes, RUs and the air interface.

``FronthaulNetwork`` runs slot-synchronous packet exchange: every slot the
DUs emit their C-/U-plane packets, the middlebox chain processes them,
RUs accept scheduled downlink IQ and answer uplink C-plane requests with
digitized air samples, and the chain processes the uplink back to the DUs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.faults.link import ImpairedLink
    from repro.obs.deadline import DeadlineAccountant

import numpy as np

from repro.core.chain import MiddleboxChain
from repro.core.middlebox import Middlebox
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.timing import SlotClock
from repro.phy.geometry import Position
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit


@dataclass
class SlotReport:
    """Per-slot accounting from :meth:`FronthaulNetwork.run_slot`."""

    absolute_slot: int
    dl_packets: int = 0
    ul_packets: int = 0
    undeliverable: int = 0
    #: Frames an endpoint's parser rejected (contained, not propagated).
    malformed: int = 0
    #: Frames the impaired wire absorbed this slot (loss/corruption).
    wire_dropped: int = 0
    #: Partial (degraded) merges delivered at the slot deadline.
    degraded_merges: int = 0
    #: Symbols abandoned at the slot deadline (nothing mergeable arrived).
    abandoned_merges: int = 0


#: The counters a slot report carries, in field order: the network keeps
#: one int32 column each.
_REPORT_COUNTERS = tuple(f.name for f in fields(SlotReport))[1:]

UplinkSignalFn = Callable[[RadioUnit, Position, int, int], Optional[np.ndarray]]


class FronthaulNetwork:
    """Slot-synchronous fronthaul between DUs, a middlebox chain, and RUs.

    The chain is an ordered middlebox list applied downlink in order and
    uplink in reverse.  Packets are delivered by destination MAC; frames
    addressed to unknown MACs are counted as undeliverable (the fate of
    packets a middlebox forgot to redirect).
    """

    def __init__(
        self,
        middleboxes: Sequence[Middlebox] = (),
        deadline_accountant: Optional["DeadlineAccountant"] = None,
        wire: Optional["ImpairedLink"] = None,
        obs=None,
        name: str = "network",
        validator=None,
    ):
        self.name = name
        self.middleboxes = list(middleboxes)
        self._dus: Dict[int, DistributedUnit] = {}
        self._rus: Dict[int, Tuple[RadioUnit, Position]] = {}
        #: Every slot's report, as one int32 column per counter: row ``i``
        #: is slot ``clock.start_slot + i`` (``run_slot`` is the only
        #: writer, and it advances the clock once a row).
        self._report_columns = {name: array("i") for name in _REPORT_COUNTERS}
        #: The run's one slot counter, born at 0 with the first DU's
        #: numerology; ``run_slot`` reads and advances it, every DU is
        #: told its value.  A test translates a run in time by replacing
        #: it with a clock started elsewhere before the first slot.
        self.clock: Optional[SlotClock] = None
        #: Optional per-slot latency budget checker (repro.obs.deadline):
        #: fed every slot's per-stage modelled processing time.
        self.deadline_accountant = deadline_accountant
        #: Optional impaired access wire (repro.faults.ImpairedLink): all
        #: traffic entering the middlebox chain passes through it, in
        #: both directions.
        self.wire = wire
        #: Optional conformance validator
        #: (:class:`repro.conformance.WireValidator`): one call per
        #: post-chain burst at RU ingress (downlink) and DU ingress
        #: (uplink, deadline releases included) — a pure observer, never
        #: drops or mutates frames.
        self.validator = validator
        #: The middleboxes run inside a fault-isolating chain: a raising
        #: stage is a counted drop guarded by a circuit breaker, never a
        #: crashed slot.
        self.chain: Optional[MiddleboxChain] = None
        if self.middleboxes:
            self.chain = MiddleboxChain(self.middleboxes, name=name, obs=obs)

    def add_du(self, du: DistributedUnit) -> None:
        numerology = du.cell.numerology
        if self.clock is None:
            self.clock = SlotClock(numerology)
        elif numerology != self.clock.numerology:
            raise ValueError(
                f"DU {du.du_id} runs {numerology}, the network's clock "
                f"{self.clock.numerology}: one network, one slot duration"
            )
        self._dus[du.mac.to_int()] = du

    def add_ru(self, ru: RadioUnit, position: Position = Position(0, 0)) -> None:
        self._rus[ru.mac.to_int()] = (ru, position)

    @property
    def dus(self) -> List[DistributedUnit]:
        return list(self._dus.values())

    @property
    def rus(self) -> List[RadioUnit]:
        return [ru for ru, _ in self._rus.values()]

    # -- chain application ---------------------------------------------------

    def _through_chain(
        self, packets: List[FronthaulPacket], uplink: bool
    ) -> List[FronthaulPacket]:
        if self.chain is None:
            return packets
        if uplink:
            return self.chain.process_uplink(packets)
        return self.chain.process_downlink(packets)

    def _carry(
        self, packets: List[FronthaulPacket], report: SlotReport
    ) -> List[FronthaulPacket]:
        """Pass a burst over the impaired access wire, if one is set."""
        if self.wire is None:
            return packets
        absorbed_before = self.wire.injector.stats.absorbed
        survivors = self.wire.carry(packets)
        report.wire_dropped += (
            self.wire.injector.stats.absorbed - absorbed_before
        )
        return survivors

    # -- slot loop ----------------------------------------------------------------

    def run_slot(
        self, uplink_signal_fn: Optional[UplinkSignalFn] = None
    ) -> SlotReport:
        """Advance every DU one slot and exchange all fronthaul packets."""
        if not self._dus:
            raise RuntimeError("no DUs in the network")
        absolute_slot = self.clock.advance()
        report = SlotReport(absolute_slot=absolute_slot)
        accountant = self.deadline_accountant
        if accountant is not None:
            processing_before = [
                m.stats.processing_ns_total for m in self.middleboxes
            ]

        downlink: List[FronthaulPacket] = []
        for du in self._dus.values():
            downlink.extend(du.advance_slot(absolute_slot))
        # Fronthaul timing windows close C-plane transmission before
        # U-plane transmission for a symbol, so across *all* DUs every
        # C-plane message precedes the U-plane data — the ordering the
        # RU-sharing middlebox's Algorithm 2 relies on.  Stable sort keeps
        # per-DU sequence numbers in order.
        downlink.sort(key=lambda packet: packet.is_uplane)
        downlink = self._through_chain(
            self._carry(downlink, report), uplink=False
        )
        if self.validator is not None:
            self.validator.observe(downlink, tap=f"{self.name}:ru-ingress")
        for packet in downlink:
            entry = self._rus.get(packet.eth.dst.to_int())
            if entry is None:
                report.undeliverable += 1
                continue
            try:
                entry[0].receive(packet)
            except ValueError:
                # Damaged frame rejected at the RU: contained drop.
                report.malformed += 1
                continue
            report.dl_packets += 1

        uplink: List[FronthaulPacket] = []
        air_of = uplink_signal_fn or (lambda *_: None)
        for ru, position in self._rus.values():
            # A generator: each symbol's air signal lives only while the
            # RU digitizes it; the slot's int16 is compressed in one pass.
            items = (
                (time, port, air_of(ru, position, time, port))
                for time, port in ru.pending_uplink_symbols()
            )
            uplink.extend(ru.build_uplink(items))
            ru.end_slot()
        uplink = self._carry(uplink, report)
        self._deliver_uplink(self._through_chain(uplink, uplink=True), report)

        self._end_slot(report)

        if accountant is not None:
            from repro.obs.deadline import account_middleboxes

            accountant.observe_slot(
                absolute_slot,
                account_middleboxes(self.middleboxes, processing_before),
            )
        for name, column in self._report_columns.items():
            column.append(getattr(report, name))
        return report

    def report_rows(self) -> List[Dict[str, int]]:
        """Every slot's report, in run order, as ``dataclasses.asdict``
        gives it."""
        rows = zip(*self._report_columns.values())
        return [
            {"absolute_slot": self.clock.start_slot + index,
             **dict(zip(_REPORT_COUNTERS, row))}
            for index, row in enumerate(rows)
        ]

    def _deliver_uplink(
        self, packets: List[FronthaulPacket], report: SlotReport
    ) -> None:
        if self.validator is not None:
            self.validator.observe(packets, tap=f"{self.name}:du-ingress")
        for packet in packets:
            du = self._dus.get(packet.eth.dst.to_int())
            if du is None:
                report.undeliverable += 1
                continue
            try:
                du.receive(packet)
            except ValueError:
                # Damaged frame rejected at the DU: contained drop.
                report.malformed += 1
                continue
            report.ul_packets += 1

    def _end_slot(self, report: SlotReport) -> None:
        """Close the slot on every stage, then on every DU (each RU closed
        its own once its uplink was built): the one place per-slot state
        ages out.  A stage may release what it held for the deadline —
        partial merges, and a count of symbols abandoned."""
        for stage, middlebox in enumerate(self.middleboxes):
            flushed, abandoned = middlebox.end_slot()
            report.abandoned_merges += abandoned
            if not flushed:
                continue
            report.degraded_merges += len(flushed)
            # A degraded merge leaves the DAS mid-chain: it still has to
            # traverse the uplink tail of the chain towards the DUs.
            self._deliver_uplink(
                self.chain.process_uplink(flushed, source=stage), report
            )
        for du in self._dus.values():
            du.end_slot()

    def run(
        self,
        n_slots: int,
        uplink_signal_fn: Optional[UplinkSignalFn] = None,
    ) -> List[SlotReport]:
        return [self.run_slot(uplink_signal_fn) for _ in range(n_slots)]
