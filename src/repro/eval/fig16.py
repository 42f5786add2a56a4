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

from repro.core.datapath import DpdkDatapath, XdpDatapath
from repro.eval import kit
from repro.eval.report import format_table

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


def _flows(condition: str, seed: int):
    """The UE's traffic per cell condition; ``None`` means no UE at all."""
    if condition == "Idle":
        return None
    if condition == "UE Attached":
        # Attached-idle UEs exchange sporadic control traffic only
        # (CQI reports, RRC keepalives): a packet every few slots.
        return [
            kit.flow("dl", 2.0, "poisson", packet_bits=12_000, seed=seed),
            kit.flow("ul", 0.5, "poisson", packet_bits=6_000, seed=seed + 1),
        ]
    return [kit.flow("dl", 2000.0), kit.flow("ul", 10.0)]


def run_fig16(n_slots: int = 40) -> Fig16Result:
    seed = 31
    dpdk_model = DpdkDatapath()
    xdp_model = XdpDatapath()
    dpdk: Dict[str, Dict[str, float]] = {}
    xdp: Dict[str, Dict[str, float]] = {}
    for app in ("das", "dmimo"):
        dpdk[app] = {}
        xdp[app] = {}
        for condition in CONDITIONS:
            # A 40 MHz 2x2 cell on two RUs: both antennas each for the
            # DAS, one antenna each for dMIMO.  Every symbol is sent.
            du, rus = kit.endpoints(
                kit.cell(
                    app, 1, _flows(condition, seed),
                    rus=kit.radios(2, seed, 2 if app == "das" else 1),
                    ue={"dl_aggregate_se": 11.0},
                    bandwidth_hz=40_000_000, symbols_per_slot=None,
                    seed=seed,
                )
            )
            middlebox = _build_app(app, du, rus)
            contexts = kit.run_recorded(
                kit.network([du], rus, [middlebox]), middlebox, n_slots
            )
            interval_ns = n_slots * du.cell.numerology.slot_duration_ns
            dpdk[app][condition] = dpdk_model.cpu_utilization(contexts, interval_ns)
            xdp[app][condition] = xdp_model.cpu_utilization(contexts, interval_ns)
    return Fig16Result(dpdk=dpdk, xdp=xdp)
