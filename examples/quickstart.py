#!/usr/bin/env python3
"""Quickstart: deploy a DAS middlebox between a DU and two RUs.

Declares the smallest interesting RANBooster deployment — one 40 MHz
cell whose signal is distributed over two RUs by the DAS middlebox — as
a scenario spec, runs traffic through the packet-level fronthaul, and
prints what happened.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import Scenario
from repro.fronthaul.cplane import Direction
from repro.fronthaul.timing import time_fields

SLOTS = 40

SPEC = {
    "name": "quickstart",
    "slots": SLOTS,
    "seed": 1,
    "cells": [{
        # 1. A 40 MHz 2x2 cell and its DU.
        "name": "cell", "pci": 1, "bandwidth_hz": 40_000_000,
        "n_antennas": 2, "max_dl_layers": 2, "symbols_per_slot": 2,
        # 2. Two commodity RUs (the DAS group).
        "rus": [
            {"name": "ru-a", "n_antennas": 2, "position": [10, 10, 0, 3.0]},
            {"name": "ru-b", "n_antennas": 2, "position": [40, 10, 0, 3.0]},
        ],
        # 3. A UE with bidirectional iperf-like traffic.
        "ues": [{
            "ue_id": "ue-1", "dl_layers": 2, "dl_aggregate_se": 10.0,
            "ul_se": 3.0,
            "flows": [
                {"kind": "cbr", "rate_mbps": 150, "direction": "dl"},
                {"kind": "cbr", "rate_mbps": 25, "direction": "ul"},
            ],
        }],
        # 4. The middleboxes: a passive PRB monitor chained before the DAS.
        "chain": [{"stage": "prb_monitor"}, {"stage": "das"}],
    }],
}


def main() -> None:
    # 5. Build the live deployment and run 40 slots (20 ms).
    (group,) = Scenario.from_dict(SPEC).build()
    (cell,) = group.cells
    du, rus = cell.du, [radio for radio, _ in cell.rus.values()]
    monitor, das = group.middleboxes
    reports = group.network.run(SLOTS)

    # 6. What happened.
    elapsed_ms = SLOTS * cell.config.numerology.slot_duration_ns / 1e6
    print(f"Simulated {elapsed_ms:.0f} ms of fronthaul traffic")
    print(f"  DL packets delivered to RUs : {sum(r.dl_packets for r in reports)}")
    print(f"  UL packets returned to DU   : {sum(r.ul_packets for r in reports)}")
    print(f"  undeliverable frames        : {sum(r.undeliverable for r in reports)}")
    print()
    print("DAS middlebox:")
    print(f"  rx/tx packets    : {das.stats.rx_packets}/{das.stats.tx_packets}")
    print(f"  uplink merges    : {das.merged_uplink_symbols}")
    print(f"  modelled CPU time: {das.stats.processing_ns_total / 1e3:.1f} us")
    print()
    print("Both RUs transmitted the identical cell signal:")
    key = rus[0].transmitted_symbols()[0]
    same = np.array_equal(rus[0].transmit_grid(*key),
                          rus[1].transmit_grid(*key))
    frame, subframe, slot, symbol = time_fields(key[0])
    print(f"  grids identical at frame {frame} subframe {subframe} slot "
          f"{slot} symbol {symbol} port {key[1]}: {same}")
    print()
    print("PRB monitor (Algorithm 1) vs scheduler ground truth:")
    estimated = monitor.average_utilization(Direction.DOWNLINK)
    # Normalize per DL-capable slot, as a wall-clock monitor would.
    truth = du.scheduler.average_utilization(Direction.DOWNLINK)
    print(f"  estimated DL utilization : {estimated:6.1%} (per observed symbol)")
    print(f"  scheduler ground truth   : {truth:6.1%} (per DL slot)")


if __name__ == "__main__":
    main()
