#!/usr/bin/env python3
"""Neutral host: two operators sharing one 100 MHz RU (Section 4.3).

Plans the spectrum carve with the Appendix A.1.1 alignment formula, runs
the packet-level RU-sharing middlebox with both DUs live (including PRACH
translation so both operators' UEs can attach), and reports per-operator
results.

Run:  python examples/neutral_host_sharing.py
"""

from repro.api import Scenario
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum

OPERATORS = ("MNO-A", "MNO-B")
SLOTS = 100


def operator_cell(index: int, name: str, grid: PrbGrid, **fields) -> dict:
    """One operator's 40 MHz 2x2 cell on its slice of the shared band."""
    return {
        "name": name, "pci": index, "seed": index, "group": "neutral-host",
        "bandwidth_hz": 40_000_000,
        "center_frequency_hz": grid.center_frequency_hz,
        "n_antennas": 2, "max_dl_layers": 2,
        "ues": [{
            "ue_id": f"{name}-ue", "dl_layers": 2, "dl_aggregate_se": 10.0,
            "ul_se": 3.0,
            "flows": [
                {"kind": "cbr", "rate_mbps": 100, "direction": "dl"},
                {"kind": "cbr", "rate_mbps": 15, "direction": "ul"},
            ],
        }],
        **fields,
    }


def main() -> None:
    # 1. The neutral host owns one 100 MHz RU at 3.46 GHz.
    ru_grid = PrbGrid(3.46e9, 273)

    # 2. Carve two aligned 40 MHz slices (Appendix A.1.1) for the MNOs.
    slices = split_ru_spectrum(ru_grid, [106, 106])
    print("Spectrum plan for the shared RU:")
    for name, grid in zip(OPERATORS, slices):
        offset = ru_grid.aligned_prb_offset(grid)
        print(f"  {name}: center {grid.center_frequency_hz / 1e9:.5f} GHz, "
              f"106 PRBs at RU offset {offset} (aligned: byte-copy fast path)")

    # 3. One DU per operator, both in one coupling group.  MNO-A's cell
    #    declares the shared RU and the RU-sharing middlebox that muxes
    #    both DUs onto it; every cell declares an RU, and MNO-B's stands
    #    idle.
    shared_ru = {"name": "shared-ru", "n_antennas": 2, "num_prb": 273,
                 "center_frequency_hz": ru_grid.center_frequency_hz}
    sharing = {"stage": "ru_sharing",
               "params": {"ru": "shared-ru", "cells": list(OPERATORS)}}
    (group,) = Scenario.from_dict({
        "name": "neutral-host", "slots": SLOTS, "seed": 1,
        "cells": [
            operator_cell(1, OPERATORS[0], slices[0],
                          rus=[shared_ru], chain=[sharing]),
            operator_cell(2, OPERATORS[1], slices[1],
                          rus=[{"name": "mno-b-ru", "n_antennas": 2}]),
        ],
    }).build()
    (sharing_box,) = group.middleboxes
    ru, _ = group.cells[0].rus["shared-ru"]

    # 4. Run 100 slots (50 ms), spanning PRACH occasions.
    reports = group.network.run(SLOTS)

    print()
    print("After 50 ms of shared operation:")
    print(f"  undeliverable frames: {sum(r.undeliverable for r in reports)}")
    print(f"  RU unsolicited drops: {ru.counters.unsolicited_uplane}")
    print(f"  aligned PRB copies  : {sharing_box.aligned_copies} "
          f"(misaligned: {sharing_box.misaligned_copies})")
    for cell, name in zip(group.cells, OPERATORS):
        du = cell.du
        elapsed_s = SLOTS * du.cell.numerology.slot_duration_ns / 1e9
        print(f"  {name}: DL {du.counters.dl_bits / elapsed_s / 1e6:6.1f} Mbps, "
              f"UL {du.counters.ul_bits / elapsed_s / 1e6:5.1f} Mbps, "
              f"PRACH occasions received: {du.counters.prach_detections}")
    print()
    print("Each DU believes it owns the RU; the RU believes one DU drives")
    print("it — multi-tenancy added with zero infrastructure changes.")


if __name__ == "__main__":
    main()
