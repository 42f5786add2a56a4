#!/usr/bin/env python3
"""RAN resilience as a middlebox (Section 8.1).

A primary and a warm-standby DU drive one RU through the resilience
middlebox.  Mid-run the primary DU dies; the middlebox detects the
silence from fronthaul timestamps and re-routes the RU to the standby
within a few slots, while a fronthaul guard middlebox (also from
Section 8.1) filters a spoofing attempt in the same chain.

Run:  python examples/resilient_failover.py
"""

from repro.apps.resilience import ResilienceMiddlebox
from repro.apps.security import FronthaulGuardMiddlebox
from repro.fronthaul.cplane import Direction
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork


def make_du(du_id, cell, ru_mac, seed):
    du = DistributedUnit(du_id=du_id, cell=cell, ru_mac=ru_mac,
                         symbols_per_slot=1, seed=seed)
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(20, "ul"), Direction.UPLINK)
    return du


def main() -> None:
    cell = CellConfig(pci=1, bandwidth_hz=40_000_000, n_antennas=2,
                      max_dl_layers=2)
    ru = RadioUnit(ru_id=1, config=RuConfig(num_prb=cell.num_prb,
                                            n_antennas=2))
    primary = make_du(1, cell, ru.mac, seed=1)
    standby = make_du(2, cell, ru.mac, seed=2)

    resilience = ResilienceMiddlebox(
        primary_du=primary.mac,
        standby_du=standby.mac,
        ru_mac=ru.mac,
        silence_threshold_ns=3 * cell.numerology.slot_duration_ns,
    )
    guard = FronthaulGuardMiddlebox(
        allowed_sources=[primary.mac, standby.mac, ru.mac, resilience.mac]
    )
    ru.du_mac = resilience.mac

    network = FronthaulNetwork(middleboxes=[guard, resilience])
    network.add_du(primary)
    network.add_du(standby)
    network.add_ru(ru)

    print("Phase 1: primary DU active, standby warm (10 ms)")
    network.run(20)
    print(f"  active DU      : primary (DU {primary.du_id})")
    print(f"  RU received    : {ru.counters.uplane_received} U-plane packets")
    print(f"  guard verdicts : {guard.stats.rx_packets} inspected, "
          f"{guard.stats.dropped_packets} dropped")

    print()
    print("Phase 2: spoofing attempt from an unknown source")
    from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection
    from repro.fronthaul.ethernet import MacAddress
    from repro.fronthaul.packet import make_packet
    from repro.fronthaul.timing import symbol_time

    attacker = make_packet(
        MacAddress.from_string("de:ad:be:ef:00:01"), ru.mac,
        CPlaneMessage(direction=Direction.DOWNLINK,
                      time=symbol_time(0, 5, 0, 0),
                      sections=[CPlaneSection(0, 0, cell.num_prb)]),
    )
    verdict = guard.process(attacker)
    print(f"  spoofed C-plane emitted: {len(verdict.emissions)} "
          f"(alert: {guard.alerts[-1].reason})")

    print()
    print("Phase 3: primary DU crashes")
    network._dus.pop(primary.mac.to_int())
    before = ru.counters.uplane_received
    network.run(20)
    event = resilience.events[0]
    print(f"  failover event : silence {event.silence_ns / 1e6:.1f} ms "
          f"-> standby DU")
    print(f"  RU kept running: +{ru.counters.uplane_received - before} "
          f"U-plane packets from the standby")
    print(f"  standby uplink : {standby.counters.ul_bits} bits received")
    print()
    print("The RU never noticed: same fronthaul, new DU — resilience added")
    print("without modifying either RAN stack (Section 8.1).")


if __name__ == "__main__":
    main()
