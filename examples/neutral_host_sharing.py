#!/usr/bin/env python3
"""Neutral host: two operators sharing one 100 MHz RU (Section 4.3).

Plans the spectrum carve with the Appendix A.1.1 alignment formula, runs
the packet-level RU-sharing middlebox with both DUs live (including PRACH
translation so both operators' UEs can attach), and reports per-operator
results.

Run:  python examples/neutral_host_sharing.py
"""

from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.fronthaul.cplane import Direction
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork


def main() -> None:
    # 1. The neutral host owns one 100 MHz RU at 3.46 GHz.
    ru_grid = PrbGrid(3.46e9, 273)
    ru = RadioUnit(ru_id=1, config=RuConfig(num_prb=273, n_antennas=2))

    # 2. Carve two aligned 40 MHz slices (Appendix A.1.1) for the MNOs.
    slices = split_ru_spectrum(ru_grid, [106, 106])
    print("Spectrum plan for the shared RU:")
    for name, grid in zip(("MNO-A", "MNO-B"), slices):
        offset = ru_grid.aligned_prb_offset(grid)
        print(f"  {name}: center {grid.center_frequency_hz / 1e9:.5f} GHz, "
              f"106 PRBs at RU offset {offset} (aligned: byte-copy fast path)")

    # 3. One DU per operator.
    dus, configs = [], []
    for index, (name, grid) in enumerate(zip(("MNO-A", "MNO-B"), slices),
                                         start=1):
        cell = CellConfig(
            pci=index,
            bandwidth_hz=40_000_000,
            center_frequency_hz=grid.center_frequency_hz,
            n_antennas=2,
            max_dl_layers=2,
        )
        du = DistributedUnit(du_id=index, cell=cell, ru_mac=ru.mac,
                             symbols_per_slot=1, seed=index)
        du.scheduler.add_ue(f"{name}-ue", dl_layers=2)
        du.scheduler.update_ue_quality(f"{name}-ue", dl_aggregate_se=10.0,
                                       ul_se=3.0)
        du.attach_flow(f"{name}-ue", ConstantBitrateFlow(100, "dl"),
                       Direction.DOWNLINK)
        du.attach_flow(f"{name}-ue", ConstantBitrateFlow(15, "ul"),
                       Direction.UPLINK)
        dus.append(du)
        configs.append(SharedDuConfig(du_id=index, mac=du.mac, grid=grid))

    # 4. The RU-sharing middlebox in the middle.
    sharing = RuSharingMiddlebox(ru_mac=ru.mac, ru_grid=ru_grid, dus=configs)
    ru.du_mac = sharing.mac
    network = FronthaulNetwork(middleboxes=[sharing])
    for du in dus:
        network.add_du(du)
    network.add_ru(ru)

    # 5. Run 100 slots (50 ms), spanning PRACH occasions.
    reports = network.run(100)

    print()
    print("After 50 ms of shared operation:")
    print(f"  undeliverable frames: {sum(r.undeliverable for r in reports)}")
    print(f"  RU unsolicited drops: {ru.counters.unsolicited_uplane}")
    print(f"  aligned PRB copies  : {sharing.aligned_copies} "
          f"(misaligned: {sharing.misaligned_copies})")
    for du, name in zip(dus, ("MNO-A", "MNO-B")):
        elapsed_s = 100 * du.cell.numerology.slot_duration_ns / 1e9
        print(f"  {name}: DL {du.counters.dl_bits / elapsed_s / 1e6:6.1f} Mbps, "
              f"UL {du.counters.ul_bits / elapsed_s / 1e6:5.1f} Mbps, "
              f"PRACH occasions received: {du.counters.prach_detections}")
    print()
    print("Each DU believes it owns the RU; the RU believes one DU drives")
    print("it — multi-tenancy added with zero infrastructure changes.")


if __name__ == "__main__":
    main()
