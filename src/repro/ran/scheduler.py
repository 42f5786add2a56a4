"""MAC scheduler: per-slot PRB allocation.

The DU's scheduler allocates frequency-domain resources (PRBs) to UEs each
slot.  Two properties of this layer matter to the paper:

- A *single* scheduler allocates non-overlapping PRBs to all UEs under a
  DAS cell, which is why summing per-RU uplink IQ is interference-free
  (Section 4.1).
- The scheduler's allocation log is the ground truth that the PRB
  monitoring middlebox's estimates are compared against (Figure 10c: "we
  record the MAC scheduling logs emitted by the RAN stack").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fronthaul.cplane import Direction
from repro.fronthaul.timing import SYMBOLS_PER_SLOT
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN, VendorProfile

SUBCARRIERS_PER_PRB = 12


@dataclass
class UeContext:
    """Scheduler-side state for one attached UE."""

    ue_id: str
    dl_queue_bits: int = 0
    ul_queue_bits: int = 0
    #: Aggregate spectral efficiency (summed over layers) from CQI/RI.
    dl_aggregate_se: float = 4.0
    ul_se: float = 2.0
    dl_layers: int = 1

    def dl_bits_per_prb(self, data_symbols: int, overhead: float) -> float:
        return (
            self.dl_aggregate_se
            * SUBCARRIERS_PER_PRB
            * data_symbols
            * (1.0 - overhead)
        )

    def ul_bits_per_prb(self, data_symbols: int, overhead: float) -> float:
        return self.ul_se * SUBCARRIERS_PER_PRB * data_symbols * (1.0 - overhead)


@dataclass(frozen=True)
class PrbAllocation:
    """One scheduling grant: a UE's PRB range in one slot direction."""

    ue_id: str
    direction: Direction
    start_prb: int
    num_prb: int
    layers: int
    bits: int

    @property
    def prb_range(self) -> Tuple[int, int]:
        return (self.start_prb, self.start_prb + self.num_prb)


@dataclass(frozen=True)
class SlotLog:
    """MAC log entry: ground truth utilization for one slot direction."""

    absolute_slot: int
    direction: Direction
    allocated_prbs: int
    total_prbs: int

    @property
    def utilization(self) -> float:
        return self.allocated_prbs / self.total_prbs if self.total_prbs else 0.0


class MacScheduler:
    """A greedy full-buffer scheduler with round-robin fairness.

    UEs are served in rotating order each slot; each UE receives enough
    contiguous PRBs to drain its queue at its current spectral efficiency,
    subject to the cell's PRB budget scaled by the vendor profile's
    scheduler efficiency.
    """

    def __init__(
        self,
        cell: CellConfig,
        profile: VendorProfile = SRSRAN,
    ):
        self.cell = cell
        self.profile = profile
        self.ues: Dict[str, UeContext] = {}
        self.mac_log: List[SlotLog] = []
        self._rr_offset = 0

    # -- UE management -------------------------------------------------------

    def add_ue(self, ue_id: str, dl_layers: int = 1) -> UeContext:
        if ue_id in self.ues:
            raise ValueError(f"UE {ue_id} already attached to scheduler")
        context = UeContext(ue_id=ue_id, dl_layers=dl_layers)
        self.ues[ue_id] = context
        return context

    def update_ue_quality(
        self,
        ue_id: str,
        dl_aggregate_se: Optional[float] = None,
        ul_se: Optional[float] = None,
    ) -> None:
        """Apply a CQI report (clamped to the vendor's MCS ceilings)."""
        context = self.ues[ue_id]
        if dl_aggregate_se is not None:
            layers = max(context.dl_layers, 1)
            per_layer = min(dl_aggregate_se / layers, self.profile.dl_max_se)
            context.dl_aggregate_se = per_layer * layers
        if ul_se is not None:
            context.ul_se = min(ul_se, self.profile.ul_max_se)

    def enqueue_dl(self, ue_id: str, bits: int) -> None:
        self.ues[ue_id].dl_queue_bits += bits

    def enqueue_ul(self, ue_id: str, bits: int) -> None:
        self.ues[ue_id].ul_queue_bits += bits

    # -- scheduling ----------------------------------------------------------

    def _data_symbols(self, direction: Direction, absolute_slot: int) -> int:
        tdd = self.profile.tdd
        counter = 0
        for symbol in range(SYMBOLS_PER_SLOT):
            if direction is Direction.DOWNLINK and tdd.is_downlink_symbol(
                absolute_slot, symbol
            ):
                counter += 1
            if direction is Direction.UPLINK and tdd.is_uplink_symbol(
                absolute_slot, symbol
            ):
                counter += 1
        return counter

    def schedule_slot(self, absolute_slot: int) -> List[PrbAllocation]:
        """Allocate PRBs for one slot; appends ground truth to the MAC log."""
        allocations: List[PrbAllocation] = []
        for direction in (Direction.DOWNLINK, Direction.UPLINK):
            data_symbols = self._data_symbols(direction, absolute_slot)
            if data_symbols == 0:
                continue
            allocations.extend(
                self._schedule_direction(absolute_slot, direction, data_symbols)
            )
        self._rr_offset += 1
        return allocations

    def _schedule_direction(
        self, absolute_slot: int, direction: Direction, data_symbols: int
    ) -> List[PrbAllocation]:
        budget = int(self.cell.num_prb * self.profile.scheduler_efficiency)
        overhead = (
            self.profile.dl_overhead
            if direction is Direction.DOWNLINK
            else self.profile.ul_overhead
        )
        next_prb = 0
        allocations: List[PrbAllocation] = []
        ue_ids = sorted(self.ues)
        order = ue_ids[self._rr_offset % max(len(ue_ids), 1) :] + ue_ids[
            : self._rr_offset % max(len(ue_ids), 1)
        ]
        for ue_id in order:
            context = self.ues[ue_id]
            if direction is Direction.DOWNLINK:
                queue = context.dl_queue_bits
                bits_per_prb = context.dl_bits_per_prb(data_symbols, overhead)
                layers = context.dl_layers
            else:
                queue = context.ul_queue_bits
                bits_per_prb = context.ul_bits_per_prb(data_symbols, overhead)
                layers = 1
            if queue <= 0 or bits_per_prb <= 0 or next_prb >= budget:
                continue
            wanted = -(-queue // int(max(bits_per_prb, 1)))  # ceil division
            granted = min(wanted, budget - next_prb)
            bits = min(int(granted * bits_per_prb), queue)
            allocation = PrbAllocation(
                ue_id=ue_id,
                direction=direction,
                start_prb=next_prb,
                num_prb=granted,
                layers=layers,
                bits=bits,
            )
            allocations.append(allocation)
            next_prb += granted
            if direction is Direction.DOWNLINK:
                context.dl_queue_bits -= bits
            else:
                context.ul_queue_bits -= bits
        self.mac_log.append(
            SlotLog(
                absolute_slot=absolute_slot,
                direction=direction,
                allocated_prbs=sum(a.num_prb for a in allocations),
                total_prbs=self.cell.num_prb,
            )
        )
        return allocations

    # -- ground truth for Figure 10c ----------------------------------------

    def average_utilization(self, direction: Direction) -> float:
        """Mean PRB utilization across logged slots of one direction."""
        entries = [e for e in self.mac_log if e.direction is direction]
        if not entries:
            return 0.0
        return sum(e.utilization for e in entries) / len(entries)
