"""Figure 16: CPU utilization of DPDK vs XDP middleboxes (Section 6.4.2).

The DAS and dMIMO middleboxes run on a 40 MHz cell (the XDP limit) pinned
to one core under three conditions: no UE, UE attached but idle, and UE
receiving downlink at full capacity.  DPDK's poll-mode driver burns 100%
of the core regardless; XDP's interrupt-driven path scales with traffic,
and DAS costs ~25-30% more CPU than dMIMO under load because its IQ work
crosses into userspace while dMIMO's header remaps stay in the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.datapath import DpdkDatapath, PacketWork, XdpDatapath
from repro.eval.report import format_table
from repro.fronthaul.cplane import Direction
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN, VendorProfile

CONDITIONS = ("Idle", "UE Attached", "Traffic")


@dataclass
class Fig16Result:
    #: {app: {condition: utilization}} for each datapath.
    dpdk: Dict[str, Dict[str, float]]
    xdp: Dict[str, Dict[str, float]]

    def format(self) -> str:
        rows = []
        for app in sorted(self.dpdk):
            for condition in CONDITIONS:
                rows.append(
                    (
                        app,
                        condition,
                        round(self.dpdk[app][condition] * 100.0, 1),
                        round(self.xdp[app][condition] * 100.0, 1),
                    )
                )
        return format_table(
            "Figure 16: CPU utilization, DPDK vs XDP (%)",
            ("middlebox", "cell condition", "DPDK %", "XDP %"),
            rows,
        )


def _build_app(app: str, du, rus):
    from repro.apps.das import DasMiddlebox
    from repro.apps.dmimo import DmimoMiddlebox, RuPortMap

    if app == "das":
        return DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus])
    port_map = RuPortMap(groups=tuple((ru.mac, 1) for ru in rus))
    return DmimoMiddlebox(du_mac=du.mac, port_map=port_map)


def run_fig16(
    profile: VendorProfile = SRSRAN,
    n_slots: int = 40,
    seed: int = 31,
) -> Fig16Result:
    from repro.ran.du import DistributedUnit
    from repro.ran.ru import RadioUnit, RuConfig
    from repro.ran.traffic import ConstantBitrateFlow
    from repro.sim.network_sim import FronthaulNetwork

    dpdk_model = DpdkDatapath()
    xdp_model = XdpDatapath()
    dpdk: Dict[str, Dict[str, float]] = {}
    xdp: Dict[str, Dict[str, float]] = {}
    for app in ("das", "dmimo"):
        dpdk[app] = {}
        xdp[app] = {}
        for condition in CONDITIONS:
            if app == "das":
                cell = CellConfig(
                    pci=1, bandwidth_hz=40_000_000, n_antennas=2,
                    max_dl_layers=2,
                )
                ru_antennas = 2
                n_rus = 2
            else:
                cell = CellConfig(
                    pci=1, bandwidth_hz=40_000_000, n_antennas=2,
                    max_dl_layers=2,
                )
                ru_antennas = 1
                n_rus = 2
            du = DistributedUnit(du_id=1, cell=cell, symbols_per_slot=None,
                                 seed=seed)
            rus = [
                RadioUnit(
                    ru_id=index,
                    config=RuConfig(num_prb=cell.num_prb,
                                    n_antennas=ru_antennas),
                    du_mac=du.mac,
                    seed=seed,
                )
                for index in range(n_rus)
            ]
            middlebox = _build_app(app, du, rus)
            if condition != "Idle":
                du.scheduler.add_ue("ue", dl_layers=cell.max_dl_layers)
                du.scheduler.update_ue_quality(
                    "ue", dl_aggregate_se=11.0, ul_se=3.0
                )
            if condition == "UE Attached":
                # Attached-idle UEs exchange sporadic control traffic only
                # (CQI reports, RRC keepalives): a packet every few slots.
                from repro.ran.traffic import PoissonFlow

                du.attach_flow(
                    "ue",
                    PoissonFlow(2.0, packet_bits=12_000, seed=seed),
                    Direction.DOWNLINK,
                )
                du.attach_flow(
                    "ue",
                    PoissonFlow(0.5, packet_bits=6_000, seed=seed + 1),
                    Direction.UPLINK,
                )
            elif condition == "Traffic":
                du.attach_flow("ue", ConstantBitrateFlow(2000.0, "dl"),
                               Direction.DOWNLINK)
                du.attach_flow("ue", ConstantBitrateFlow(10.0, "ul"),
                               Direction.UPLINK)
            network = FronthaulNetwork(middleboxes=[middlebox])
            network.add_du(du)
            for ru in rus:
                network.add_ru(ru)
            network.run(n_slots)
            interval_ns = n_slots * cell.numerology.slot_duration_ns
            works = [
                PacketWork(trace, trace.wire_bytes)
                for trace in middlebox.complete_traces()
            ]
            dpdk[app][condition] = dpdk_model.cpu_utilization(
                works, interval_ns
            )
            xdp[app][condition] = xdp_model.cpu_utilization(works, interval_ns)
    return Fig16Result(dpdk=dpdk, xdp=xdp)
