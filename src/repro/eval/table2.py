"""Table 2: distributed MIMO vs single-RU MIMO (Section 6.2.2).

Baselines use one RU with 2 or 4 antennas; the dMIMO configurations place
two RUs ~5 m apart contributing 1 or 2 antennas each.  The paper verifies
that throughput and the UE rank indicator match between each baseline and
its distributed counterpart, and that uplink (SISO) throughput is
unaffected (~70 Mbps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.eval.report import format_table
from repro.eval.throughput import DeployedCell, UePlacement, evaluate_network
from repro.phy.channel import ChannelModel
from repro.phy.geometry import Position
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN
from repro.ran.ue import UserEquipment

SATURATING_LOAD_MBPS = 2_000.0


@dataclass
class Table2Row:
    label: str
    layers: int
    dl_mbps: float
    rank: int
    ul_mbps: float


@dataclass
class Table2Result:
    rows: List[Table2Row]

    def row(self, label: str) -> Table2Row:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def format(self) -> str:
        return format_table(
            "Table 2: dMIMO vs single-RU MIMO",
            ("configuration", "layers", "DL Mbps", "rank", "UL Mbps"),
            [
                (r.label, r.layers, r.dl_mbps, r.rank, r.ul_mbps)
                for r in self.rows
            ],
        )


def run_table2() -> Table2Result:
    channel = ChannelModel(seed=11)
    # Two RUs ~5 m apart (Section 6.2.2), UE in close range between them.
    ru_a = Position(20.0, 10.0, 0, height=3.0)
    ru_b = Position(25.0, 10.0, 0, height=3.0)
    ue_position = Position(22.5, 12.5, 0)

    configurations = [
        ("Single RU - 2 antennas", [ru_a], [2], 2),
        ("Two RUs - 1 antenna each (RANBooster)", [ru_a, ru_b], [1, 1], 2),
        ("Single RU - 4 antennas", [ru_a], [4], 4),
        ("Two RUs - 2 antennas each (RANBooster)", [ru_a, ru_b], [2, 2], 4),
    ]
    rows: List[Table2Row] = []
    for index, (label, positions, antennas, layers) in enumerate(configurations):
        config = CellConfig(
            pci=40 + index,
            n_antennas=sum(antennas),
            max_dl_layers=layers,
        )
        cell = DeployedCell(
            label,
            config,
            list(positions),
            list(antennas),
            mode="single" if len(positions) == 1 else "dmimo",
            profile=SRSRAN,
        )
        ue = UserEquipment(f"0010100000005{index:02d}", ue_position,
                           channel=channel)
        result = evaluate_network(
            [cell],
            [UePlacement(ue, label, SATURATING_LOAD_MBPS, SATURATING_LOAD_MBPS)],
        )
        entry = result.ue(ue.imsi)
        rows.append(
            Table2Row(
                label=label,
                layers=layers,
                dl_mbps=entry.dl_mbps,
                rank=entry.rank,
                ul_mbps=entry.ul_mbps,
            )
        )
    return Table2Result(rows=rows)
