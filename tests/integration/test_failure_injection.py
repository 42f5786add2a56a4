"""Failure injection: lost packets, late RUs, failover under live traffic.

The fronthaul's strict timing windows mean loss is survivable but must be
contained: a DAS merge missing one RU's packet abandons that symbol, and
a dead DU is replaced by the standby within milliseconds while traffic
keeps flowing.
"""


from repro.apps.das import DasMiddlebox
from repro.apps.resilience import ResilienceMiddlebox
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.timing import time_fields
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork


class LossyWire(Middlebox):
    """Drops selected packets before they reach the next middlebox."""

    app_name = "lossy_wire"

    def __init__(self, should_drop, **kwargs):
        super().__init__(**kwargs)
        self.should_drop = should_drop
        self.dropped = 0

    def _apply(self, ctx, packet):
        if self.should_drop(packet):
            self.dropped += 1
            ctx.drop(packet)
        else:
            ctx.forward(packet)

    on_cplane = _apply
    on_uplane = _apply


def build_das(n_rus=2, seed=40):
    cell = CellConfig(pci=1, bandwidth_hz=40_000_000, n_antennas=2,
                      max_dl_layers=2)
    du = DistributedUnit(du_id=1, cell=cell, symbols_per_slot=1, seed=seed)
    rus = [
        RadioUnit(ru_id=i, config=RuConfig(num_prb=cell.num_prb,
                                           n_antennas=2),
                  du_mac=du.mac, seed=seed)
        for i in range(n_rus)
    ]
    das = DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus])
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(20, "ul"), Direction.UPLINK)
    return cell, du, rus, das


class TestDasUnderLoss:
    def test_lost_ru_uplink_blocks_only_that_symbol(self):
        cell, du, rus, das = build_das()
        lost_ru = rus[1].mac

        def drop_some(packet):
            # Drop RU 1's uplink for even-numbered slots.
            return (
                packet.direction is Direction.UPLINK
                and packet.eth.src == lost_ru
                and time_fields(packet.time)[2] % 2 == 0
            )

        # The wire sits between the middlebox and the RUs: downlink order
        # is [das, wire], so uplink traverses wire -> das.
        wire = LossyWire(drop_some)
        network = FronthaulNetwork(middleboxes=[das, wire])
        network.add_du(du)
        for ru in rus:
            network.add_ru(ru)
        reports = network.run(10)
        # Some merges completed (odd slots); every slot's sweep abandoned
        # the symbols the lost RU left waiting (even slots), so nothing
        # stays in the cache.
        assert das.merged_uplink_symbols > 0
        assert len(das.cache) == 0
        abandoned = sum(report.abandoned_merges for report in reports)
        assert das.missed_merge_deadlines == abandoned > 0

    def test_total_ru_loss_stalls_all_merges(self):
        cell, du, rus, das = build_das()
        dead_ru = rus[1].mac
        wire = LossyWire(
            lambda p: p.direction is Direction.UPLINK and p.eth.src == dead_ru
        )
        network = FronthaulNetwork(middleboxes=[das, wire])
        network.add_du(du)
        for ru in rus:
            network.add_ru(ru)
        network.run(10)
        assert das.merged_uplink_symbols == 0
        assert du.counters.ul_packets == 0

    def test_duplicated_uplink_does_not_double_merge(self, rng):
        """A retransmitting RU must not inflate the merged signal."""
        cell, du, rus, das = build_das()

        class Duplicator(Middlebox):
            app_name = "dup"

            def on_uplane(self, ctx, packet):
                if packet.direction is Direction.UPLINK:
                    for copy in ctx.replicate(packet, 1):
                        ctx.forward(copy)
                ctx.forward(packet)

            def on_cplane(self, ctx, packet):
                ctx.forward(packet)

        network = FronthaulNetwork(middleboxes=[das, Duplicator()])
        network.add_du(du)
        for ru in rus:
            network.add_ru(ru)
        reports = network.run(10)
        # Every merge used exactly one packet per RU (duplicates dropped).
        assert das.merged_uplink_symbols > 0
        delivered = du.counters.ul_packets + du.counters.prach_detections
        assert delivered == das.merged_uplink_symbols


class TestFailoverUnderTraffic:
    def test_standby_takes_over_live_network(self):
        cell = CellConfig(pci=1, bandwidth_hz=40_000_000, n_antennas=2,
                          max_dl_layers=2)
        primary = DistributedUnit(du_id=1, cell=cell, symbols_per_slot=1,
                                  seed=41)
        standby = DistributedUnit(du_id=2, cell=cell, symbols_per_slot=1,
                                  seed=42)
        ru = RadioUnit(ru_id=1, config=RuConfig(num_prb=cell.num_prb,
                                                n_antennas=2))
        for du in (primary, standby):
            du.ru_mac = ru.mac
            du.scheduler.add_ue("ue", dl_layers=2)
            du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0,
                                           ul_se=3.0)
            du.attach_flow("ue", ConstantBitrateFlow(100, "dl"),
                           Direction.DOWNLINK)
            du.attach_flow("ue", ConstantBitrateFlow(20, "ul"),
                           Direction.UPLINK)
        box = ResilienceMiddlebox(
            primary_du=primary.mac,
            standby_du=standby.mac,
            ru_mac=ru.mac,
            silence_threshold_ns=2 * cell.numerology.slot_duration_ns,
        )
        ru.du_mac = box.mac
        network = FronthaulNetwork(middleboxes=[box])
        network.add_du(primary)
        network.add_du(standby)
        network.add_ru(ru)

        network.run(6)
        assert box.active_du == primary.mac
        received_before = ru.counters.uplane_received

        # Primary dies: stop generating its packets by detaching flows and
        # removing it from the network.
        network._dus.pop(primary.mac.to_int())
        network.run(10)
        assert box.events, "failover should have triggered"
        assert box.active_du == standby.mac
        # The RU keeps receiving downlink — now from the standby.
        assert ru.counters.uplane_received > received_before
        assert standby.counters.ul_bits > 0
