"""Figure 11: floor-walk comparison of deployment options (Section 6.3.1).

Covering one floor with 100 MHz of spectrum and four RUs:

- **O1**: four 25 MHz 4x4 cells on non-overlapping frequencies — no
  interference, but the mobile UE caps at ~200 Mbps from limited spectrum.
- **O2**: four 100 MHz 4x4 cells with full frequency reuse — inter-cell
  interference from the static UE's serving cell carves throughput dips.
- **O3**: one 100 MHz 4x4 cell distributed over all four RUs by the
  RANBooster DAS middlebox — ~700 Mbps everywhere.

A static UE near RU 1 receives 100 Mbps throughout; the mobile UE walks
the floor requesting 700 Mbps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.eval.report import format_table
from repro.eval.throughput import DeployedCell, UePlacement, evaluate_network
from repro.phy.channel import ChannelModel
from repro.phy.geometry import FloorPlan, Position, WalkPath
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN
from repro.ran.ue import UserEquipment

MOBILE_LOAD_MBPS = 700.0
STATIC_LOAD_MBPS = 100.0


@dataclass
class WalkSample:
    position: Tuple[float, float]
    serving_cell: str
    dl_mbps: float


@dataclass
class FloorWalkResult:
    option: str
    samples: List[WalkSample]
    static_dl_mbps: List[float]

    def mbps(self) -> np.ndarray:
        return np.array([s.dl_mbps for s in self.samples])

    def summary(self) -> Tuple[float, float, float]:
        series = self.mbps()
        return float(series.min()), float(series.mean()), float(series.max())


@dataclass
class Fig11Result:
    o1: FloorWalkResult
    o2: FloorWalkResult
    o3: FloorWalkResult

    def format(self) -> str:
        rows = []
        for result in (self.o1, self.o2, self.o3):
            low, mean, high = result.summary()
            rows.append((result.option, low, mean, high))
        return format_table(
            "Figure 11: mobile UE downlink along the floor walk (Mbps)",
            ("option", "min", "mean", "max"),
            rows,
        )


def _walk_positions(step_m: float) -> List[Position]:
    return list(WalkPath(floor=0).points(step_m))


def run_fig11(step_m: float = 2.0) -> Fig11Result:
    plan = FloorPlan()
    channel = ChannelModel(seed=13)
    rus = plan.ru_positions(0)
    static_position = Position(rus[0].x + 2.0, rus[0].y + 1.0, 0)
    walk = _walk_positions(step_m)

    def run_option(option: str, cells: List[DeployedCell]) -> FloorWalkResult:
        views = [cell.view() for cell in cells]
        samples: List[WalkSample] = []
        static_series: List[float] = []
        for index, position in enumerate(walk):
            mobile = UserEquipment(
                f"0010100000007{index:02d}", position, channel=channel
            )
            static = UserEquipment("001010000000699", static_position,
                                   channel=channel)
            # Attach by strongest RSRP among this option's cells.
            mobile_cell = cells[
                max(range(len(cells)), key=lambda i: mobile.rsrp_dbm(views[i]))
            ]
            static_cell = cells[
                max(range(len(cells)), key=lambda i: static.rsrp_dbm(views[i]))
            ]
            result = evaluate_network(
                cells,
                [
                    UePlacement(static, static_cell.name, STATIC_LOAD_MBPS),
                    UePlacement(mobile, mobile_cell.name, MOBILE_LOAD_MBPS),
                ],
            )
            samples.append(
                WalkSample(
                    position=(position.x, position.y),
                    serving_cell=mobile_cell.name,
                    dl_mbps=result.ue(mobile.imsi).dl_mbps,
                )
            )
            static_series.append(result.ue(static.imsi).dl_mbps)
        return FloorWalkResult(
            option=option, samples=samples, static_dl_mbps=static_series
        )

    # O1: four 25 MHz cells on non-overlapping center frequencies.
    o1_cells = [
        DeployedCell(
            f"o1_cell{i}",
            CellConfig(
                pci=100 + i,
                bandwidth_hz=25_000_000,
                center_frequency_hz=3.40e9 + i * 25_000_000,
            ),
            [rus[i]],
            [4],
            mode="single",
            profile=SRSRAN,
        )
        for i in range(4)
    ]
    # O2: four 100 MHz cells re-using the same spectrum.
    o2_cells = [
        DeployedCell(
            f"o2_cell{i}",
            CellConfig(pci=110 + i),
            [rus[i]],
            [4],
            mode="single",
            profile=SRSRAN,
        )
        for i in range(4)
    ]
    # O3: one 100 MHz DAS cell across all four RUs.
    o3_cells = [
        DeployedCell(
            "o3_das",
            CellConfig(pci=120),
            list(rus),
            [4] * 4,
            mode="das",
            profile=SRSRAN,
        )
    ]
    return Fig11Result(
        o1=run_option("O1 4x25MHz cells", o1_cells),
        o2=run_option("O2 4x100MHz cells", o2_cells),
        o3=run_option("O3 RANBooster DAS", o3_cells),
    )
