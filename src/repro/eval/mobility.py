"""Mobility: handovers under multi-cell vs DAS/dMIMO deployments.

Sections 4.1-4.2 motivate DAS and dMIMO with "handover-free mobility": a
single distributed cell never hands a moving UE over, while a multi-cell
deployment hands over at every cell boundary, each handover risking an
interruption.  This experiment walks a UE across the floor under both
deployments, counts handovers (serving-PCI changes with hysteresis), and
accounts the interruption time a real stack would pay per handover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.eval.report import format_table
from repro.eval.throughput import DeployedCell
from repro.phy.channel import ChannelModel
from repro.phy.geometry import FloorPlan, WalkPath
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN
from repro.ran.ue import UserEquipment

#: A2 handover hysteresis: the target must beat the server by this margin.
HANDOVER_HYSTERESIS_DB = 3.0
#: Typical NR Xn handover interruption (control-plane driven).
HANDOVER_INTERRUPTION_MS = 45.0
WALK_SPEED_MPS = 1.4  # pedestrian


@dataclass
class MobilityResult:
    deployment: str
    handovers: int
    walk_seconds: float
    interruption_ms_total: float
    serving_trace: List[int]

    @property
    def interruption_fraction(self) -> float:
        return self.interruption_ms_total / (self.walk_seconds * 1000.0)


@dataclass
class MobilityComparison:
    multi_cell: MobilityResult
    das: MobilityResult
    dmimo: MobilityResult

    def format(self) -> str:
        rows = [
            (
                result.deployment,
                result.handovers,
                round(result.interruption_ms_total, 0),
                f"{result.interruption_fraction:.2%}",
            )
            for result in (self.multi_cell, self.das, self.dmimo)
        ]
        return format_table(
            "Mobility: handovers along a floor walk (pedestrian, one lap)",
            ("deployment", "handovers", "interruption ms", "time interrupted"),
            rows,
        )


def _walk_serving_trace(
    cells: List[DeployedCell], channel: ChannelModel, step_m: float
) -> List[int]:
    """Serving PCI at each walk position with handover hysteresis."""
    views = [cell.view() for cell in cells]
    serving: int = -1
    trace: List[int] = []
    for index, position in enumerate(WalkPath(floor=0).points(step_m)):
        ue = UserEquipment(f"00101060000{index:04d}", position,
                           channel=channel)
        rsrps = {view.pci: ue.rsrp_dbm(view) for view in views}
        if serving < 0:
            serving = max(rsrps, key=rsrps.get)
        else:
            best_pci = max(rsrps, key=rsrps.get)
            if (
                best_pci != serving
                and rsrps[best_pci] > rsrps[serving] + HANDOVER_HYSTERESIS_DB
            ):
                serving = best_pci
        trace.append(serving)
    return trace


def _result(name: str, trace: List[int], step_m: float) -> MobilityResult:
    handovers = sum(1 for a, b in zip(trace, trace[1:]) if a != b)
    walk_seconds = len(trace) * step_m / WALK_SPEED_MPS
    return MobilityResult(
        deployment=name,
        handovers=handovers,
        walk_seconds=walk_seconds,
        interruption_ms_total=handovers * HANDOVER_INTERRUPTION_MS,
        serving_trace=trace,
    )


def run_mobility(step_m: float = 1.0) -> MobilityComparison:
    plan = FloorPlan()
    channel = ChannelModel(seed=37)
    rus = plan.ru_positions(0)

    multi_cells = [
        DeployedCell(f"cell{i}", CellConfig(pci=i + 1), [rus[i]], [4],
                     mode="single", profile=SRSRAN)
        for i in range(4)
    ]
    das_cell = [
        DeployedCell("das", CellConfig(pci=50), list(rus), [4] * 4,
                     mode="das", profile=SRSRAN)
    ]
    dmimo_cell = [
        DeployedCell("dmimo", CellConfig(pci=51), list(rus), [1] * 4,
                     mode="dmimo", profile=SRSRAN)
    ]
    return MobilityComparison(
        multi_cell=_result(
            "4 cells (handover at boundaries)",
            _walk_serving_trace(multi_cells, channel, step_m),
            step_m,
        ),
        das=_result(
            "RANBooster DAS (one cell)",
            _walk_serving_trace(das_cell, channel, step_m),
            step_m,
        ),
        dmimo=_result(
            "RANBooster dMIMO (one cell)",
            _walk_serving_trace(dmimo_cell, channel, step_m),
            step_m,
        ),
    )
