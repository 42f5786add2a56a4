"""Figure 13: flexible upgrades — swap the DAS middlebox for a dMIMO
middlebox over the same 4x1-antenna RUs (Section 6.3.2, "Boosting the
network's performance").

With cheap single-antenna RUs, a DAS middlebox gives a uniform ~250 Mbps
SISO cell across the floor; replacing it with a dMIMO middlebox turns the
same four RUs into a 4-layer cell, raising downlink throughput by a factor
of 2-3 depending on the location — purely a software swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.eval.report import format_table
from repro.eval.throughput import DeployedCell, UePlacement, evaluate_network
from repro.phy.channel import ChannelModel, LinkBudget
from repro.phy.geometry import FloorPlan, WalkPath
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN
from repro.ran.ue import UserEquipment

SATURATING_LOAD_MBPS = 2_000.0
#: Cheap single-antenna RUs transmit at lower power than the 4x4 units.
ONE_ANTENNA_RU_BUDGET = LinkBudget(tx_power_dbm=21.0, antenna_gain_db=3.0)


@dataclass
class Fig13Result:
    das_walk_mbps: List[float]
    dmimo_walk_mbps: List[float]

    def improvement_factors(self) -> List[float]:
        return [
            dmimo / das if das > 0 else float("inf")
            for das, dmimo in zip(self.das_walk_mbps, self.dmimo_walk_mbps)
        ]

    def format(self) -> str:
        das = np.array(self.das_walk_mbps)
        dmimo = np.array(self.dmimo_walk_mbps)
        factors = np.array(self.improvement_factors())
        rows = [
            ("DAS (vendor A) - SISO", das.min(), das.mean(), das.max()),
            ("dMIMO (vendor B) - 4 layers", dmimo.min(), dmimo.mean(),
             dmimo.max()),
            ("improvement factor", factors.min(), factors.mean(),
             factors.max()),
        ]
        return format_table(
            "Figure 13: DAS vs dMIMO middlebox over 4x1-antenna RUs (Mbps)",
            ("configuration", "min", "mean", "max"),
            rows,
        )


def run_fig13(step_m: float = 3.0) -> Fig13Result:
    plan = FloorPlan()
    channel = ChannelModel(seed=19)
    rus = plan.ru_positions(0)
    config_siso = CellConfig(pci=140, n_antennas=1, max_dl_layers=1)
    config_dmimo = CellConfig(pci=141, n_antennas=4, max_dl_layers=4)

    das_cell = DeployedCell(
        "das",
        config_siso,
        list(rus),
        [1] * 4,
        mode="das",
        profile=SRSRAN,
        budget=ONE_ANTENNA_RU_BUDGET,
    )
    dmimo_cell = DeployedCell(
        "dmimo",
        config_dmimo,
        list(rus),
        [1] * 4,
        mode="dmimo",
        profile=SRSRAN,
        budget=ONE_ANTENNA_RU_BUDGET,
    )
    walk = list(WalkPath(floor=0).points(step_m))
    das_series: List[float] = []
    dmimo_series: List[float] = []
    for index, position in enumerate(walk):
        ue = UserEquipment(f"0010100000090{index:02d}", position,
                           channel=channel)
        das_result = evaluate_network(
            [das_cell], [UePlacement(ue, "das", SATURATING_LOAD_MBPS)]
        )
        dmimo_result = evaluate_network(
            [dmimo_cell], [UePlacement(ue, "dmimo", SATURATING_LOAD_MBPS)]
        )
        das_series.append(das_result.ue(ue.imsi).dl_mbps)
        dmimo_series.append(dmimo_result.ue(ue.imsi).dl_mbps)
    return Fig13Result(das_walk_mbps=das_series, dmimo_walk_mbps=dmimo_series)
