"""Wire drop accounting, the network's impaired wire, malformed containment."""

from repro.eval import kit
from repro.faults import FaultConfig, FaultInjector, ImpairedLink
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import Numerology, slot_time
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.obs import Observability
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.scale import run_scenario
from repro.sim.network_sim import FronthaulNetwork

from tests.conftest import random_prb_samples

SRC = MacAddress.from_int(0x81)
DST = MacAddress.from_int(0x82)


def uplane(rng, slot=0, n_prbs=4):
    time = slot_time(slot, Numerology(mu=1)) + 3
    section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, n_prbs))
    return make_packet(
        SRC, DST,
        UPlaneMessage(direction=Direction.UPLINK, time=time,
                      sections=[section]),
    )


def burst(rng, n=60):
    return [uplane(rng, slot=i % 8) for i in range(n)]


class TestLinkDrops:
    def test_drop_counts_and_exports(self, rng):
        obs = Observability(enabled=True)
        wire = ImpairedLink(
            FaultInjector(FaultConfig(loss_rate=1.0), name="l0", obs=obs)
        )
        assert wire.carry(burst(rng, 3)) == []
        assert wire.carry([]) == []  # nothing offered, nothing counted
        assert wire.drops == {"loss": 3, "malformed": 0}
        series = obs.registry.snapshot()["link_drops_total"]["series"]
        assert series == {"l0-link,loss": 3}

    def test_drop_disabled_obs_only_counts_locally(self, rng):
        wire = ImpairedLink(FaultInjector(FaultConfig(loss_rate=1.0)))
        wire.carry(burst(rng, 2))
        assert wire.drops["loss"] == 2
        obs = wire.injector.obs  # the disabled default handle
        assert not obs.enabled
        assert "link_drops_total" not in obs.registry.snapshot()


class TestImpairedLink:
    def test_losses_land_in_link_stats_by_cause(self, rng):
        obs = Observability(enabled=True)
        injector = FaultInjector(
            FaultConfig(loss_rate=0.3, corrupt_rate=0.3, corrupt_bits=16),
            seed=21, obs=obs,
        )
        wire = ImpairedLink(injector)
        packets = burst(rng, 120)
        survivors = wire.carry(packets)
        stats = injector.stats
        assert sum(wire.drops.values()) == stats.absorbed > 0
        assert len(survivors) == len(packets) - stats.absorbed
        assert wire.drops == {
            "loss": stats.lost_iid, "malformed": stats.corrupt_dropped,
        }
        series = obs.registry.snapshot()["link_drops_total"]["series"]
        assert series.get("wire-link,loss", 0) == stats.lost_iid
        assert series.get("wire-link,malformed", 0) == stats.corrupt_dropped

    def test_clean_wire_carries_everything(self, rng):
        wire = ImpairedLink(FaultInjector(seed=0))
        packets = burst(rng, 10)
        assert wire.carry(packets) == packets
        assert wire.drops == {"loss": 0, "malformed": 0}


class TestSpecBuiltWire:
    def test_an_observed_run_exports_the_wire_telemetry(self):
        """A cell's ``wire`` fault counts on its group's handle: every
        frame the run's ledger calls ``wire_dropped`` is one injected
        loss and one link drop."""
        cell = kit.cell(
            "w1", 1, [kit.flow("dl", 40.0), kit.flow("ul", 10.0)],
            wire={"kind": "iid_loss", "rate": 0.2},
        )
        result = run_scenario(
            kit.scenario("wire", 10, 0, [cell], obs={"enabled": True})
        )
        dropped = result.delivery()["w1"]["wire_dropped"]
        snapshot = result.telemetry.registry.snapshot()
        assert dropped > 0
        assert snapshot["fault_injected_total"]["series"] == {
            "iid_loss,loss.iid": dropped
        }
        assert snapshot["link_drops_total"]["series"] == {
            "iid_loss-link,loss": dropped
        }


def impaired_network(cell, config, seed):
    """One DU and one RU, no chain, every frame over an impaired wire."""
    du = DistributedUnit(du_id=1, cell=cell, symbols_per_slot=1, seed=seed)
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(20, "ul"), Direction.UPLINK)
    ru = RadioUnit(
        ru_id=1,
        config=RuConfig(num_prb=cell.num_prb, n_antennas=2),
        du_mac=du.mac,
        seed=seed,
    )
    du.ru_mac = ru.mac
    injector = FaultInjector(config, seed=seed, carrier_num_prb=cell.num_prb)
    network = FronthaulNetwork(wire=ImpairedLink(injector))
    network.add_du(du)
    network.add_ru(ru)
    return network, injector


class TestNetworkWireConservation:
    """The fabric that runs: every frame the wire was offered (plus the
    duplicates it minted) ends a run as exactly one of ``wire_dropped``,
    ``malformed``, ``undeliverable`` or a delivered ``dl``/``ul`` packet,
    and no slot raises, whatever the wire did to the bytes."""

    @staticmethod
    def fates(reports):
        return {
            name: sum(getattr(report, name) for report in reports)
            for name in ("wire_dropped", "malformed", "undeliverable",
                         "dl_packets", "ul_packets")
        }

    def assert_conserved(self, reports, injector):
        fates = self.fates(reports)
        stats = injector.stats
        assert stats.offered > 0
        assert fates["wire_dropped"] == stats.absorbed
        assert sum(fates.values()) == stats.offered + stats.duplicated
        return fates

    def test_lossy_wire_absorbs_and_counts(self, cell_40mhz):
        network, injector = impaired_network(
            cell_40mhz, FaultConfig(loss_rate=0.5, duplicate_rate=0.2), 13
        )
        fates = self.assert_conserved(network.run(40), injector)
        assert fates["wire_dropped"] == injector.stats.lost_iid > 0
        assert injector.stats.duplicated > 0
        assert fates["dl_packets"] > 0 and fates["ul_packets"] > 0
        assert fates["malformed"] == 0  # loss never damages a survivor

    def test_malformed_delivery_contained_not_propagated(self, cell_40mhz):
        # Endpoint parsers that reject every third frame as damaged: each
        # rejection is a counted ``malformed`` drop, never an unwound slot.
        network, injector = impaired_network(cell_40mhz, FaultConfig(), 21)
        rejected = []

        def strict(receive):
            seen = []

            def parser(packet):
                seen.append(packet)
                if len(seen) % 3 == 0:
                    rejected.append(packet)
                    raise ValueError("bad frame")
                receive(packet)

            return parser

        for device in network.dus + network.rus:
            device.receive = strict(device.receive)
        fates = self.assert_conserved(network.run(30), injector)
        assert fates["malformed"] == len(rejected) > 0
        assert fates["wire_dropped"] == fates["undeliverable"] == 0

    def test_corrupting_every_frame_never_raises(self, cell_40mhz):
        network, injector = impaired_network(
            cell_40mhz, FaultConfig(corrupt_rate=1.0, corrupt_bits=12), 29
        )
        fates = self.assert_conserved(network.run(60), injector)  # no raise
        assert fates["wire_dropped"] == injector.stats.corrupt_dropped > 0
