"""Benchmark: a shared RU through the frame-number wrap (long horizon).

Fronthaul keys carry ``(frame, subframe, slot)`` and the frame counter
wraps every 256 frames — 5,120 slots, 2.56 s of air time at 30 kHz SCS.
The shared-RU pair of the ``cells8_bfp`` benchmark topology runs 5,400
slots here: every 300-slot window must deliver the same packets, the
one that crosses slot 5,120 included (before per-slot state was a ring,
a request remembered from 256 frames earlier made each new C-plane
request look "already satisfied": 1,200 DL / 4,320 UL packets per window
fell to 528 / 288), and every per-slot holder must be the size it was
after the first window.
"""

from _harness import report

from repro.eval import kit
from repro.eval.report import format_table

#: Past the wrap at slot 256 * 20 = 5,120, in whole windows.
SLOTS = 5_400
WINDOW = 300


def campus_pair():
    """cell7 hosts a wide RU, cell8's DU muxes onto it (both carry a
    40 Mbps downlink and uplink, as in ``bench/workloads.py``)."""

    def flows(pci):
        return [kit.flow("dl", 40.0),
                kit.flow("ul", 40.0, "poisson", seed=1000 + pci)]

    def radio(name):
        return [{"name": name, "n_antennas": 2}]

    sharing = {
        "stage": "ru_sharing", "name": "ru_sharing",
        "params": {"ru": "cell7-ru1", "cells": ["cell7", "cell8"]},
    }
    host = kit.cell(
        "cell7", 7, flows(7), rus=radio("cell7-ru1"), chain=[sharing],
        group="campus", center_frequency_hz=3.45e9,
    )
    host["rus"][0].update(num_prb=160, center_frequency_hz=3.46e9)
    guest = kit.cell(
        "cell8", 8, flows(8), rus=radio("cell8-ru1"),
        group="campus", center_frequency_hz=3.47e9,
    )
    (group,) = kit.scenario("campus", SLOTS, 1, [host, guest]).build()
    return group


def holder_sizes(group):
    network = group.network
    (sharing,) = network.middleboxes
    return (
        len(sharing.cache),
        sum(len(du._pending_ul) for du in network.dus),
        sum(len(du.uplink_receptions) for du in network.dus),
        sum(len(radio._tx_grids) for radio in network.rus),
    )


def run():
    group = campus_pair()
    rows = []
    for start in range(0, SLOTS, WINDOW):
        reports = group.network.run(WINDOW)
        rows.append(
            (
                f"{start}-{start + WINDOW}",
                sum(r.dl_packets for r in reports),
                sum(r.ul_packets for r in reports),
                sum(r.undeliverable + r.malformed for r in reports),
            )
            + holder_sizes(group)
        )
    return rows


def test_long_horizon(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        "Shared RU across the frame wrap at slot 5,120 (cells8_bfp campus pair)",
        ("slots", "DL pkts", "UL pkts", "lost", "cache pkts", "pending UL",
         "DU log", "RU grids"),
        rows,
    )
    report("long_horizon", text)
    first = rows[0]
    assert first[1] > 0 and first[2] > 0 and first[3] == 0
    # Delivery and every holder's size: flat, window after window.
    assert all(row[1:] == first[1:] for row in rows), text
