"""Analytic network throughput evaluation.

Maps a deployment (cells radiating from RU groups, UEs with offered
loads) to sustained per-UE throughput:

1. per-UE link quality from the channel model (DAS cells combine RU
   powers into one signal; dMIMO/single cells expose per-RU antenna
   groups),
2. rank selection and aggregate spectral efficiency from the MIMO model,
   clamped by the vendor profile's MCS ceilings,
3. scheduler sharing: UEs on the same cell split PRBs proportionally to
   demand,
4. inter-cell interference coupling: a cell's transmit activity is its
   PRB utilization, which feeds other cells' SINRs — iterated to a fixed
   point (the Figure 11b mechanism).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.phy.channel import LinkBudget
from repro.phy.geometry import Position
from repro.phy.mimo import spectral_efficiency, throughput_mbps
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN, VendorProfile
from repro.ran.ue import CellView, UserEquipment


@dataclass
class DeployedCell:
    """One cell radiating from one or more RUs.

    ``mode`` selects how the RUs combine: ``"das"`` replicates one signal
    (powers add, layers limited by per-RU antennas); ``"dmimo"`` forms a
    virtual RU (antennas add, per-RU SINR differs); ``"single"`` is a
    one-RU cell (equivalent to dmimo with one group).
    """

    name: str
    config: CellConfig
    ru_positions: List[Position]
    ru_antennas: List[int]
    mode: str = "single"
    profile: VendorProfile = SRSRAN
    budget: LinkBudget = field(default_factory=LinkBudget)

    def __post_init__(self) -> None:
        if self.mode not in ("das", "dmimo", "single"):
            raise ValueError(f"unknown cell mode {self.mode!r}")
        if len(self.ru_positions) != len(self.ru_antennas):
            raise ValueError("one antenna count per RU required")
        if self.mode == "single" and len(self.ru_positions) != 1:
            raise ValueError("single mode takes exactly one RU")

    def view(self) -> CellView:
        return CellView(
            pci=self.config.pci,
            plmn="00101",
            ru_positions=self.ru_positions,
            ru_antennas=self.ru_antennas,
            n_subcarriers=self.config.num_prb * 12,
            ru_budget=self.budget,
        )

    def overlaps(self, other: "DeployedCell") -> bool:
        """Frequency overlap (co-channel interference condition)."""
        low_a = self.config.grid.prb0_frequency_hz
        high_a = low_a + self.config.grid.occupied_bandwidth_hz
        low_b = other.config.grid.prb0_frequency_hz
        high_b = low_b + other.config.grid.occupied_bandwidth_hz
        return low_a < high_b and low_b < high_a


@dataclass
class UePlacement:
    """One UE attached to a named cell with offered traffic."""

    ue: UserEquipment
    cell_name: str
    dl_offered_mbps: float = 0.0
    ul_offered_mbps: float = 0.0


@dataclass
class UeResult:
    imsi: str
    cell_name: str
    dl_mbps: float
    ul_mbps: float
    dl_capacity_mbps: float
    ul_capacity_mbps: float
    rank: int
    sinr_db: float


@dataclass
class NetworkEvaluation:
    ues: List[UeResult]
    cell_activity: Dict[str, float]

    def ue(self, imsi: str) -> UeResult:
        for result in self.ues:
            if result.imsi == imsi:
                return result
        raise KeyError(f"no result for IMSI {imsi}")

    def total_dl_mbps(self) -> float:
        return sum(r.dl_mbps for r in self.ues)

    def total_ul_mbps(self) -> float:
        return sum(r.ul_mbps for r in self.ues)


def _dl_link(
    cell: DeployedCell,
    placement: UePlacement,
    interferers: Sequence[Tuple[Position, float]],
):
    view = cell.view()
    bandwidth = cell.config.occupied_bandwidth_hz
    max_layers = cell.config.max_dl_layers
    if cell.mode == "das":
        layer_ceiling = min(cell.ru_antennas)
    else:
        layer_ceiling = sum(cell.ru_antennas)
    layer_ceiling = min(layer_ceiling, max_layers, placement.ue.n_antennas)
    max_se = (
        cell.profile.dl_max_se_rank1
        if layer_ceiling == 1
        else cell.profile.dl_max_se
    )
    if cell.mode == "das":
        return placement.ue.das_link(
            view, bandwidth, interferers, max_layers=max_layers, max_se=max_se
        )
    return placement.ue.mimo_link(
        view, bandwidth, interferers, max_layers=max_layers, max_se=max_se
    )


#: Link adaptation is driven by HARQ feedback: even a low-duty-cycle
#: interferer forces the outer loop to a collision-safe MCS, so the
#: *effective* interference activity is super-linear in the true duty
#: cycle.  activity_eff = activity ** CQI_CONSERVATISM.
CQI_CONSERVATISM = 0.3
#: Cells transmit SSB/reference signals even with no user traffic.
BROADCAST_ACTIVITY = 0.04


def evaluate_network(
    cells: Sequence[DeployedCell], placements: Sequence[UePlacement]
) -> NetworkEvaluation:
    """Fixed-point throughput evaluation of a deployment."""
    by_name = {cell.name: cell for cell in cells}
    for placement in placements:
        if placement.cell_name not in by_name:
            raise KeyError(f"unknown cell {placement.cell_name!r}")
    # Start from full activity (worst-case interference) and iterate down.
    activity: Dict[str, float] = {cell.name: 1.0 for cell in cells}
    results: List[UeResult] = []
    for _ in range(5):
        results = []
        demand_fractions: Dict[str, float] = {cell.name: 0.0 for cell in cells}
        per_ue: List[Tuple[UePlacement, float, float, int, float]] = []
        for placement in placements:
            cell = by_name[placement.cell_name]
            interferers: List[Tuple[Position, float]] = []
            for other in cells:
                if other.name == cell.name or not cell.overlaps(other):
                    continue
                effective = max(
                    activity[other.name] ** CQI_CONSERVATISM
                    if activity[other.name] > 0
                    else 0.0,
                    BROADCAST_ACTIVITY,
                )
                for position in other.ru_positions:
                    interferers.append((position, effective))
            link = _dl_link(cell, placement, interferers)
            rank = link.best_rank()
            dl_capacity = throughput_mbps(
                link.aggregate_se(),
                cell.config.occupied_bandwidth_hz,
                cell.profile.tdd.downlink_symbol_fraction(),
                cell.profile.dl_overhead,
            ) * cell.profile.scheduler_efficiency
            ul_sinr = placement.ue.uplink_sinr_db(
                cell.view(), cell.config.occupied_bandwidth_hz
            )
            ul_se = min(spectral_efficiency(ul_sinr), cell.profile.ul_max_se)
            ul_capacity = throughput_mbps(
                ul_se,
                cell.config.occupied_bandwidth_hz,
                cell.profile.tdd.uplink_symbol_fraction(),
                cell.profile.ul_overhead,
            ) * cell.profile.scheduler_efficiency
            sinr = max(link.antenna_sinrs_db)
            per_ue.append((placement, dl_capacity, ul_capacity, rank, sinr))
            if dl_capacity > 0:
                demand_fractions[cell.name] += (
                    placement.dl_offered_mbps / dl_capacity
                )
        # Scheduler sharing within each cell.
        for placement, dl_capacity, ul_capacity, rank, sinr in per_ue:
            cell_demand = demand_fractions[placement.cell_name]
            scale = 1.0 if cell_demand <= 1.0 else 1.0 / cell_demand
            dl_achieved = min(placement.dl_offered_mbps * scale, dl_capacity)
            ul_achieved = min(placement.ul_offered_mbps, ul_capacity)
            results.append(
                UeResult(
                    imsi=placement.ue.imsi,
                    cell_name=placement.cell_name,
                    dl_mbps=dl_achieved,
                    ul_mbps=ul_achieved,
                    dl_capacity_mbps=dl_capacity,
                    ul_capacity_mbps=ul_capacity,
                    rank=rank,
                    sinr_db=sinr,
                )
            )
        activity = {
            name: min(demand_fractions[name], 1.0) for name in demand_fractions
        }
    return NetworkEvaluation(ues=results, cell_activity=activity)
