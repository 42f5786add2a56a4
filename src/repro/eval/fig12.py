"""Figure 12: chaining RU sharing with DAS for multi-tenancy
(Section 6.3.2, "Enhancing the network's capabilities").

Two MNOs deploy over the same four 100 MHz RUs: the RU-sharing middlebox
splits each RU's spectrum into two aligned 40 MHz slices, and each MNO's
DAS middlebox distributes its cell across all four RUs.  Each MNO's UE
achieves ~350 Mbps anywhere on the floor, with no infrastructure change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.eval.report import format_table
from repro.eval.throughput import DeployedCell, UePlacement, evaluate_network
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum
from repro.phy.channel import ChannelModel
from repro.phy.geometry import FloorPlan, WalkPath
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN
from repro.ran.ue import UserEquipment

SATURATING_LOAD_MBPS = 1_000.0


@dataclass
class Fig12Result:
    mno1_walk_mbps: List[float]
    mno2_walk_mbps: List[float]

    def summary(self, series: List[float]):
        arr = np.array(series)
        return float(arr.min()), float(arr.mean()), float(arr.max())

    def format(self) -> str:
        rows = []
        for name, series in (
            ("MNO 1 (40MHz over shared DAS)", self.mno1_walk_mbps),
            ("MNO 2 (40MHz over shared DAS)", self.mno2_walk_mbps),
        ):
            low, mean, high = self.summary(series)
            rows.append((name, low, mean, high))
        return format_table(
            "Figure 12: per-MNO UE downlink across the floor (Mbps)",
            ("network", "min", "mean", "max"),
            rows,
        )


def run_fig12(step_m: float = 4.0) -> Fig12Result:
    plan = FloorPlan()
    channel = ChannelModel(seed=17)
    rus = plan.ru_positions(0)
    ru_grid = PrbGrid(3.46e9, 273)
    grid_1, grid_2 = split_ru_spectrum(ru_grid, [106, 106])

    cells = []
    for index, grid in enumerate((grid_1, grid_2), start=1):
        config = CellConfig(
            pci=130 + index,
            bandwidth_hz=40_000_000,
            center_frequency_hz=grid.center_frequency_hz,
        )
        cells.append(
            DeployedCell(
                f"mno{index}",
                config,
                list(rus),
                [4] * len(rus),
                mode="das",
                profile=SRSRAN,
            )
        )

    walk = list(WalkPath(floor=0).points(step_m))
    mno1_series: List[float] = []
    mno2_series: List[float] = []
    for index, position in enumerate(walk):
        ue1 = UserEquipment(f"0010100000081{index:02d}", position,
                            channel=channel)
        ue2 = UserEquipment(f"0010100000082{index:02d}", position,
                            channel=channel)
        result = evaluate_network(
            cells,
            [
                UePlacement(ue1, "mno1", SATURATING_LOAD_MBPS),
                UePlacement(ue2, "mno2", SATURATING_LOAD_MBPS),
            ],
        )
        mno1_series.append(result.ue(ue1.imsi).dl_mbps)
        mno2_series.append(result.ue(ue2.imsi).dl_mbps)
    return Fig12Result(mno1_walk_mbps=mno1_series, mno2_walk_mbps=mno2_series)
