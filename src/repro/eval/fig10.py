"""Figure 10: correctness of the DAS, RU-sharing and PRB-monitoring
middleboxes (Sections 6.2.1, 6.2.3, 6.2.4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.eval import kit
from repro.eval.report import format_table
from repro.eval.throughput import DeployedCell, UePlacement, evaluate_network
from repro.fronthaul.cplane import Direction
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum
from repro.phy.channel import ChannelModel
from repro.phy.geometry import FloorPlan, Position
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN
from repro.ran.ue import AttachError, UserEquipment

SATURATING_LOAD_MBPS = 2_000.0


@dataclass
class Fig10aResult:
    """Figure 10a rows: single-cell baseline vs DAS across five floors."""

    baseline_dl_mbps: float
    baseline_ul_mbps: float
    das_simultaneous_dl_mbps: float
    das_simultaneous_ul_mbps: float
    das_individual_dl_mbps: List[float]
    das_individual_ul_mbps: List[float]
    upper_floor_attach_failures: int

    def rows(self) -> List[Tuple[str, float, float]]:
        rows = [
            ("Single cell - 1 RU (2 near UEs)", self.baseline_dl_mbps,
             self.baseline_ul_mbps),
            ("DAS 5 RUs - all UEs transmitting", self.das_simultaneous_dl_mbps,
             self.das_simultaneous_ul_mbps),
        ]
        for floor, (dl, ul) in enumerate(
            zip(self.das_individual_dl_mbps, self.das_individual_ul_mbps)
        ):
            rows.append((f"DAS 5 RUs - floor {floor} UE alone", dl, ul))
        return rows

    def format(self) -> str:
        return format_table(
            "Figure 10a: DAS aggregate throughput (Mbps)",
            ("configuration", "downlink", "uplink"),
            self.rows(),
        )


def run_fig10a() -> Fig10aResult:
    plan = FloorPlan()
    channel = ChannelModel(seed=7)
    ground_ru = plan.ru_positions(0)[0]
    config = CellConfig(pci=1)

    def near(position: Position, dx: float) -> Position:
        return Position(position.x + dx, position.y + 1.0, position.floor)

    # -- baseline: one ground-floor RU, two near UEs --------------------------
    baseline = DeployedCell(
        "baseline", config, [ground_ru], [4], mode="single", profile=SRSRAN
    )
    ue_a = UserEquipment("001010000000001", near(ground_ru, 3.0), channel=channel)
    ue_b = UserEquipment("001010000000002", near(ground_ru, -4.0), channel=channel)
    result = evaluate_network(
        [baseline],
        [
            UePlacement(ue_a, "baseline", SATURATING_LOAD_MBPS,
                        SATURATING_LOAD_MBPS),
            UePlacement(ue_b, "baseline", SATURATING_LOAD_MBPS,
                        SATURATING_LOAD_MBPS),
        ],
    )
    baseline_dl = result.total_dl_mbps()
    baseline_ul = min(result.total_ul_mbps(),
                      max(r.ul_capacity_mbps for r in result.ues))

    # -- upper-floor UEs cannot attach to the single ground cell --------------
    attach_failures = 0
    for floor in range(1, plan.floors):
        ue = UserEquipment(
            f"00101000000010{floor}",
            near(plan.ru_positions(floor)[0], 2.0),
            channel=channel,
        )
        try:
            ue.scan_and_attach([baseline.view()])
        except AttachError:
            attach_failures += 1

    # -- DAS: one RU per floor, one UE per floor -------------------------------
    das_rus = [plan.ru_positions(floor)[0] for floor in range(plan.floors)]
    das = DeployedCell(
        "das", config, das_rus, [4] * len(das_rus), mode="das", profile=SRSRAN
    )
    das_ues = [
        UserEquipment(
            f"00101000000020{floor}", near(das_rus[floor], 3.0), channel=channel
        )
        for floor in range(plan.floors)
    ]
    for ue in das_ues:
        ue.scan_and_attach([das.view()])  # all floors attach now

    simultaneous = evaluate_network(
        [das],
        [
            UePlacement(ue, "das", SATURATING_LOAD_MBPS, SATURATING_LOAD_MBPS)
            for ue in das_ues
        ],
    )
    individual_dl, individual_ul = [], []
    for ue in das_ues:
        alone = evaluate_network(
            [das],
            [UePlacement(ue, "das", SATURATING_LOAD_MBPS, SATURATING_LOAD_MBPS)],
        )
        individual_dl.append(alone.total_dl_mbps())
        individual_ul.append(alone.ue(ue.imsi).ul_mbps)

    return Fig10aResult(
        baseline_dl_mbps=baseline_dl,
        baseline_ul_mbps=baseline_ul,
        das_simultaneous_dl_mbps=simultaneous.total_dl_mbps(),
        das_simultaneous_ul_mbps=min(
            simultaneous.total_ul_mbps(),
            max(r.ul_capacity_mbps for r in simultaneous.ues),
        ),
        das_individual_dl_mbps=individual_dl,
        das_individual_ul_mbps=individual_ul,
        upper_floor_attach_failures=attach_failures,
    )


@dataclass
class Fig10bResult:
    """Figure 10b: dedicated 40 MHz RU vs shared 100 MHz RU."""

    dedicated_dl_mbps: float
    dedicated_ul_mbps: float
    shared_dl_mbps: Dict[str, float]
    shared_ul_mbps: Dict[str, float]

    def format(self) -> str:
        rows = [
            ("40MHz cell - dedicated 40MHz RU", self.dedicated_dl_mbps,
             self.dedicated_ul_mbps)
        ]
        for name in sorted(self.shared_dl_mbps):
            rows.append(
                (f"40MHz cell {name} - shared 100MHz RU",
                 self.shared_dl_mbps[name], self.shared_ul_mbps[name])
            )
        return format_table(
            "Figure 10b: RU sharing throughput (Mbps)",
            ("configuration", "downlink", "uplink"),
            rows,
        )


def run_fig10b() -> Fig10bResult:
    plan = FloorPlan()
    channel = ChannelModel(seed=7)
    ru = plan.ru_positions(0)[1]

    def make_ue(suffix: str, dx: float) -> UserEquipment:
        return UserEquipment(
            f"0010100000003{suffix}",
            Position(ru.x + dx, ru.y + 1.0, 0),
            channel=channel,
        )

    # Dedicated: a 40 MHz cell on its own 40 MHz RU.
    dedicated_config = CellConfig(
        pci=5, bandwidth_hz=40_000_000, center_frequency_hz=3.43e9
    )
    dedicated = DeployedCell(
        "dedicated", dedicated_config, [ru], [4], mode="single", profile=SRSRAN
    )
    ue0 = make_ue("01", 3.0)
    res = evaluate_network(
        [dedicated],
        [UePlacement(ue0, "dedicated", SATURATING_LOAD_MBPS, SATURATING_LOAD_MBPS)],
    )
    dedicated_dl = res.ue(ue0.imsi).dl_mbps
    dedicated_ul = res.ue(ue0.imsi).ul_mbps

    # Shared: two 40 MHz cells carved out of one 100 MHz RU, PRB-aligned
    # per Appendix A.1.1.
    ru_grid = PrbGrid(3.46e9, 273)
    grid_a, grid_b = split_ru_spectrum(ru_grid, [106, 106])
    shared_dl: Dict[str, float] = {}
    shared_ul: Dict[str, float] = {}
    cells = []
    placements = []
    ues = {}
    for name, grid, pci in (("A", grid_a, 6), ("B", grid_b, 7)):
        config = CellConfig(
            pci=pci,
            bandwidth_hz=40_000_000,
            center_frequency_hz=grid.center_frequency_hz,
        )
        cells.append(
            DeployedCell(
                f"mno_{name}", config, [ru], [4], mode="single", profile=SRSRAN
            )
        )
        ue = make_ue(f"1{pci}", -3.0 if name == "A" else 4.0)
        ues[name] = ue
        placements.append(
            UePlacement(ue, f"mno_{name}", SATURATING_LOAD_MBPS,
                        SATURATING_LOAD_MBPS)
        )
    shared = evaluate_network(cells, placements)
    for name in ("A", "B"):
        shared_dl[name] = shared.ue(ues[name].imsi).dl_mbps
        shared_ul[name] = shared.ue(ues[name].imsi).ul_mbps
    return Fig10bResult(
        dedicated_dl_mbps=dedicated_dl,
        dedicated_ul_mbps=dedicated_ul,
        shared_dl_mbps=shared_dl,
        shared_ul_mbps=shared_ul,
    )


@dataclass
class Fig10cPoint:
    offered_mbps: float
    estimated_utilization: float
    ground_truth_utilization: float


@dataclass
class Fig10cResult:
    """Figure 10c: monitor estimate vs MAC-log ground truth per load."""

    downlink: List[Fig10cPoint]
    uplink: List[Fig10cPoint]

    def max_error(self) -> float:
        points = self.downlink + self.uplink
        return max(
            abs(p.estimated_utilization - p.ground_truth_utilization)
            for p in points
        )

    def format(self) -> str:
        rows = []
        for label, points in (("DL", self.downlink), ("UL", self.uplink)):
            for p in points:
                rows.append(
                    (label, p.offered_mbps,
                     round(p.estimated_utilization * 100, 1),
                     round(p.ground_truth_utilization * 100, 1))
                )
        return format_table(
            "Figure 10c: PRB utilization, estimate vs ground truth (%)",
            ("dir", "offered Mbps", "RANBooster", "ground truth"),
            rows,
        )


def run_fig10c(
    loads_mbps: Tuple[float, ...] = (0, 100, 200, 300, 400, 500, 600, 700),
    n_slots: int = 30,
    seed: int = 3,
) -> Fig10cResult:
    """Packet-level run of the PRB monitor against scheduler ground truth.

    A 100 MHz cell (one monitored antenna port) serves one UE at each
    offered load; the monitor's estimates (Algorithm 1 over real BFP
    exponents) are compared with the scheduler's MAC log.
    """
    from repro.apps.prb_monitor import PrbMonitorMiddlebox
    from repro.fronthaul.compression import SAMPLES_PER_PRB
    from repro.phy.iq import QamModulator

    downlink_points: List[Fig10cPoint] = []
    uplink_points: List[Fig10cPoint] = []
    for load in loads_mbps:
        flows = []
        if load > 0:
            flows = [kit.flow("dl", load), kit.flow("ul", load / 10.0)]
        # A 4x4-class aggregate SE so the load/utilization mapping matches
        # the paper's 100 MHz 4x4 cell (only port 0 carries monitored IQ).
        fragment = kit.cell(
            "monitored", 9, flows,
            rus=kit.radios(1, seed, n_antennas=1),
            ue={"dl_layers": 4, "dl_aggregate_se": 16.0},
            bandwidth_hz=100_000_000, n_antennas=1, max_dl_layers=1,
            seed=seed,
        )
        du, (ru,) = kit.endpoints(fragment, du_id=3, ru_id_base=9)
        monitor = PrbMonitorMiddlebox(carrier_num_prb=du.cell.num_prb)
        network = kit.network([du], [ru], [monitor])
        modulator = QamModulator(16)
        rng = np.random.default_rng(seed)

        def ue_uplink(ru_obj, position, time, port, _du=du, _rng=rng):
            """Transmit QAM on the PRBs the DU granted this slot."""
            pending = _du._pending_ul.get(time.slot_key())
            if not pending:
                return None
            n_sc = ru_obj.config.num_prb * SAMPLES_PER_PRB
            grid = np.zeros(n_sc, dtype=np.complex128)
            for allocation in pending:
                start = allocation.start_prb * SAMPLES_PER_PRB
                count = allocation.num_prb * SAMPLES_PER_PRB
                grid[start : start + count] = modulator.modulate(
                    _rng.integers(0, 16, count)
                ) * 0.5
            return grid

        network.run(n_slots, uplink_signal_fn=ue_uplink)
        # Estimates exist only for slots that carried U-plane traffic;
        # slots with no U-plane are idle by definition, so normalize per
        # direction-capable slot (what a wall-clock monitor does).
        from collections import defaultdict

        def per_slot_estimate(direction: Direction) -> float:
            per_slot: Dict[Tuple, List[float]] = defaultdict(list)
            for estimate in monitor.estimates:
                if estimate.direction is direction:
                    per_slot[estimate.time.slot_key()].append(
                        estimate.utilization
                    )
            n_capable = sum(
                1
                for entry in du.scheduler.mac_log
                if entry.direction is direction
            )
            if not n_capable:
                return 0.0
            return (
                sum(float(np.mean(v)) for v in per_slot.values()) / n_capable
            )

        ul_estimate = per_slot_estimate(Direction.UPLINK)
        downlink_points.append(
            Fig10cPoint(
                offered_mbps=load,
                estimated_utilization=per_slot_estimate(Direction.DOWNLINK),
                ground_truth_utilization=du.scheduler.average_utilization(
                    Direction.DOWNLINK
                ),
            )
        )
        uplink_points.append(
            Fig10cPoint(
                offered_mbps=load / 10.0,
                estimated_utilization=ul_estimate,
                ground_truth_utilization=du.scheduler.average_utilization(
                    Direction.UPLINK
                ),
            )
        )
    return Fig10cResult(downlink=downlink_points, uplink=uplink_points)
