"""Figure 14: energy savings from middlebox chaining (Section 6.3.2).

Two ways to cover the five-floor building:

- **(a)** one dMIMO cell per floor (5 cells, frequency reuse across
  floors): two servers, ~400 W, ~650 Mbps per floor with all 20 UEs
  active.
- **(b)** one cell across all five floors via a DAS+dMIMO chain: a single
  half-loaded server, ~180 W, ~150 Mbps per floor when all UEs are active
  (instantaneous per-floor traffic can still reach the full cell rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.eval.report import format_table
from repro.eval.throughput import DeployedCell, UePlacement, evaluate_network
from repro.phy.channel import ChannelModel, LinkBudget
from repro.phy.geometry import FloorPlan, Position
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN
from repro.ran.ue import UserEquipment
from repro.sim.power import (
    CORES_PER_CELL,
    CORES_PER_MIDDLEBOX,
    ServerLoad,
    ServerPowerModel,
    deployment_power_w,
)

SATURATING_LOAD_MBPS = 2_000.0
ONE_ANTENNA_RU_BUDGET = LinkBudget(tx_power_dbm=21.0, antenna_gain_db=3.0)


@dataclass
class Fig14Config:
    label: str
    power_w: float
    per_floor_dl_mbps: List[float]
    per_floor_peak_mbps: List[float]


@dataclass
class Fig14Result:
    per_floor_cells: Fig14Config
    single_cell_chain: Fig14Config

    def format(self) -> str:
        rows = []
        for config in (self.per_floor_cells, self.single_cell_chain):
            rows.append(
                (
                    config.label,
                    config.power_w,
                    sum(config.per_floor_dl_mbps) / len(config.per_floor_dl_mbps),
                    sum(config.per_floor_peak_mbps)
                    / len(config.per_floor_peak_mbps),
                )
            )
        return format_table(
            "Figure 14: power vs per-floor downlink (all-UEs avg / peak Mbps)",
            ("configuration", "power W", "per-floor Mbps", "peak Mbps"),
            rows,
        )


def _floor_ues(plan: FloorPlan, floor: int, channel: ChannelModel):
    positions = [
        Position(x, y, floor)
        for x, y in (
            (8.0, 6.0),
            (20.0, 14.0),
            (33.0, 6.0),
            (45.0, 14.0),
        )
    ]
    return [
        UserEquipment(f"0010100001{floor}{i:03d}", position, channel=channel)
        for i, position in enumerate(positions)
    ]


def run_fig14() -> Fig14Result:
    plan = FloorPlan()
    channel = ChannelModel(seed=23)
    power_model = ServerPowerModel()

    # -- (a) one dMIMO cell per floor ----------------------------------------
    cells_a = [
        DeployedCell(
            f"floor{floor}",
            CellConfig(pci=150 + floor, n_antennas=4, max_dl_layers=4),
            plan.ru_positions(floor),
            [1] * 4,
            mode="dmimo",
            profile=SRSRAN,
            budget=ONE_ANTENNA_RU_BUDGET,
        )
        for floor in range(plan.floors)
    ]
    placements_a = []
    ues_by_floor = {}
    for floor in range(plan.floors):
        ues = _floor_ues(plan, floor, channel)
        ues_by_floor[floor] = ues
        placements_a.extend(
            UePlacement(ue, f"floor{floor}", SATURATING_LOAD_MBPS) for ue in ues
        )
    result_a = evaluate_network(cells_a, placements_a)
    per_floor_a = [
        sum(
            result_a.ue(ue.imsi).dl_mbps for ue in ues_by_floor[floor]
        )
        for floor in range(plan.floors)
    ]
    # Peak = one floor's UEs alone on their cell.
    peak_a = per_floor_a  # each floor has its own cell: peak == sustained
    cores_a = plan.floors * (CORES_PER_CELL + CORES_PER_MIDDLEBOX) + 5
    server_capacity = power_model.total_cores
    servers_a = []
    remaining = cores_a
    while remaining > 0:
        servers_a.append(ServerLoad(active_cores=min(remaining, server_capacity)))
        remaining -= server_capacity
    power_a = deployment_power_w(servers_a, power_model)

    # -- (b) one cell over all floors: DAS + per-floor dMIMO chain -------------
    all_rus = [
        position
        for floor in range(plan.floors)
        for position in plan.ru_positions(floor)
    ]
    # The DAS stage replicates the 4-port cell across floors and each
    # floor's dMIMO stage maps the ports onto its four RUs; for any UE the
    # four same-floor RUs dominate (45 dB/floor isolation), which the
    # distributed-MIMO link model captures by selecting the strongest
    # antenna groups.
    cell_b = DeployedCell(
        "building",
        CellConfig(pci=160, n_antennas=4, max_dl_layers=4),
        all_rus,
        [1] * len(all_rus),
        mode="dmimo",
        profile=SRSRAN,
        budget=ONE_ANTENNA_RU_BUDGET,
    )
    placements_b = []
    for floor in range(plan.floors):
        placements_b.extend(
            UePlacement(ue, "building", SATURATING_LOAD_MBPS)
            for ue in ues_by_floor[floor]
        )
    result_b = evaluate_network([cell_b], placements_b)
    per_floor_b = [
        sum(result_b.ue(ue.imsi).dl_mbps for ue in ues_by_floor[floor])
        for floor in range(plan.floors)
    ]
    peak_b = []
    for floor in range(plan.floors):
        alone = evaluate_network(
            [cell_b],
            [
                UePlacement(ue, "building", SATURATING_LOAD_MBPS)
                for ue in ues_by_floor[floor]
            ],
        )
        peak_b.append(alone.total_dl_mbps())
    # One cell + (1 DAS + 5 dMIMO) middleboxes on a single server; the
    # second server shuts down and half the first's cores run low-freq.
    cores_b = CORES_PER_CELL + 6 * CORES_PER_MIDDLEBOX + 1
    power_b = deployment_power_w(
        [
            ServerLoad(
                active_cores=cores_b,
                low_freq_cores=power_model.total_cores // 2,
            ),
            ServerLoad(active_cores=0, powered=False),
        ],
        power_model,
    )
    return Fig14Result(
        per_floor_cells=Fig14Config(
            label="(a) one dMIMO cell per floor, 2 servers",
            power_w=power_a,
            per_floor_dl_mbps=per_floor_a,
            per_floor_peak_mbps=peak_a,
        ),
        single_cell_chain=Fig14Config(
            label="(b) single cell, DAS+dMIMO chain, 1 server",
            power_w=power_b,
            per_floor_dl_mbps=per_floor_b,
            per_floor_peak_mbps=peak_b,
        ),
    )
