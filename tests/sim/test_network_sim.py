"""FronthaulNetwork tests."""

import pytest

from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.timing import Numerology, SlotClock
from repro.phy.geometry import Position
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork


@pytest.fixture
def loaded_network(cell_40mhz):
    du = DistributedUnit(du_id=1, cell=cell_40mhz, symbols_per_slot=1, seed=4)
    ru = RadioUnit(
        ru_id=1,
        config=RuConfig(num_prb=cell_40mhz.num_prb, n_antennas=2),
        mac=du.ru_mac,
        du_mac=du.mac,
    )
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(20, "ul"), Direction.UPLINK)
    network = FronthaulNetwork()
    network.add_du(du)
    network.add_ru(ru, Position(10, 10, 0))
    return network, du, ru


class TestFronthaulNetwork:
    def test_slot_exchange_delivers_both_ways(self, loaded_network):
        network, du, ru = loaded_network
        reports = network.run(10)
        assert sum(r.dl_packets for r in reports) > 0
        assert sum(r.ul_packets for r in reports) > 0
        assert sum(r.undeliverable for r in reports) == 0
        assert du.counters.ul_bits > 0
        assert ru.counters.uplane_received > 0

    def test_passthrough_middlebox_transparent(self, cell_40mhz):
        du = DistributedUnit(du_id=1, cell=cell_40mhz, symbols_per_slot=1)
        ru = RadioUnit(
            ru_id=1,
            config=RuConfig(num_prb=cell_40mhz.num_prb, n_antennas=2),
            mac=du.ru_mac,
            du_mac=du.mac,
        )
        du.scheduler.add_ue("ue", dl_layers=2)
        du.attach_flow("ue", ConstantBitrateFlow(50, "dl"), Direction.DOWNLINK)
        box = Middlebox()
        network = FronthaulNetwork(middleboxes=[box])
        network.add_du(du)
        network.add_ru(ru)
        network.run(5)
        assert box.stats.rx_packets > 0
        assert box.stats.rx_packets == box.stats.tx_packets
        assert ru.counters.uplane_received > 0

    def test_unknown_destination_counted(self, cell_40mhz):
        du = DistributedUnit(du_id=1, cell=cell_40mhz, symbols_per_slot=1)
        du.scheduler.add_ue("ue", dl_layers=2)
        du.attach_flow("ue", ConstantBitrateFlow(50, "dl"), Direction.DOWNLINK)
        network = FronthaulNetwork()
        network.add_du(du)  # no RU attached
        reports = network.run(3)
        assert sum(r.undeliverable for r in reports) > 0

    def test_uplink_signal_fn_feeds_ru(self, loaded_network, rng):
        network, du, ru = loaded_network
        calls = []

        def signal(ru_obj, position, time, port):
            calls.append((time, port))
            return None

        network.run(6, uplink_signal_fn=signal)
        assert calls  # UL requests were answered through the hook

    def test_requires_du(self):
        with pytest.raises(RuntimeError):
            FronthaulNetwork().run_slot()

    def test_one_clock_every_du_is_told_the_same_slot(self, cell_40mhz):
        """The network owns the counter: two DUs stamp the same slot
        wherever the run starts, and a DU of another slot duration is
        refused rather than driven by the first cell's."""
        stamped = []

        class Tap:
            def observe(self, packet, tap):
                stamped.append((packet.eaxc.du_port, packet.time.slot_key()))

        network = FronthaulNetwork(validator=Tap())
        for du_id in (1, 2):
            du = DistributedUnit(du_id=du_id, cell=cell_40mhz, symbols_per_slot=1)
            du.scheduler.add_ue("ue", dl_layers=2)
            du.attach_flow("ue", ConstantBitrateFlow(50, "dl"), Direction.DOWNLINK)
            network.add_du(du)
        assert not hasattr(du, "clock")
        network.clock = SlotClock(cell_40mhz.numerology, start_slot=5_118)
        reports = network.run(3)  # S, U, D across the frame wrap 255 -> 0
        assert [r.absolute_slot for r in reports] == [5_118, 5_119, 5_120]
        assert network.clock.current_slot - network.clock.start_slot == 3
        for du_port in (1, 2):
            keys = [key for port, key in stamped if port == du_port]
            # Downlink stamps: nothing leaves a DU in the U slot 5,119.
            assert list(dict.fromkeys(keys)) == [(255, 9, 0), (0, 0, 0)]

        other = CellConfig(pci=9, bandwidth_hz=20_000_000, numerology=Numerology(mu=0))
        with pytest.raises(ValueError, match="one network, one slot duration"):
            network.add_du(DistributedUnit(du_id=3, cell=other))
        assert len(network.dus) == 2


class TestRuRetention:
    """``run_slot`` closes the slot on every holder — stages, RUs, DUs:
    per-slot state is a ring, and nothing a run reports depends on what
    fell off it."""

    #: The ring patched small, so three ring-lengths are a quick run.
    RING = 4

    def _drive(self, slots, checkpoints=()):
        """Run every group of a four-app scenario ``slots`` slots; returns
        the groups, their summaries, and the holder sizes at each slot
        count in ``checkpoints``."""
        from repro.eval import kit
        from repro.scale.runner import _summarize_group

        def flows(seed):
            return [kit.flow("dl", 40.0),
                    kit.flow("ul", 40.0, kind="poisson", seed=seed)]

        def stage(name, **params):
            return {"stage": name, "params": params, "name": name}

        def radios(cell):
            return [{"name": f"{cell}-ru{i}", "n_antennas": 2} for i in range(2)]

        shared = kit.cell(
            "host", 3, flows(3), group="campus", center_frequency_hz=3.45e9,
            chain=[stage("ru_sharing", ru="host-ru", cells=["host", "guest"])],
        )
        shared["rus"][0].update(num_prb=160, center_frequency_hz=3.46e9)
        spec = kit.scenario("retention", slots, 3, [
            kit.cell("das", 1, flows(1), rus=radios("das"),
                     chain=[stage("spectrum_sensor"), stage("das")],
                     symbols_per_slot=None, deadline_flush=True),
            kit.cell("dmimo", 2, flows(2), rus=radios("dmimo"),
                     chain=[stage("dmimo")]),
            shared,
            kit.cell("guest", 4, flows(4), group="campus",
                     center_frequency_hz=3.47e9, chain=[]),
        ])
        groups = spec.build()
        sizes = {}
        for done in range(1, slots + 1):
            for group in groups:
                group.network.run_slot()
            if done in checkpoints:
                sizes[done] = [self._held(group) for group in groups]
        return groups, [_summarize_group(group) for group in groups], sizes

    @staticmethod
    def _held(group):
        """Every per-slot holder's size in one group."""
        network = group.network
        return {
            "cache": [len(box.cache) for box in network.middleboxes],
            "slot_state": [len(box.slot_state) for box in network.middleboxes],
            "du_log": [len(du.uplink_receptions) for du in network.dus],
            "pending_ul": [len(du._pending_ul) for du in network.dus],
            "tx_grids": [len(radio._tx_grids) for radio in network.rus],
            "dl_windows": [len(radio._dl_windows) for radio in network.rus],
        }

    def test_three_windows_of_grids_keep_one(self, monkeypatch):
        from repro.core import actions

        slots = 3 * self.RING + 1
        monkeypatch.setattr(actions, "_RETAINED_SLOTS", self.RING)
        groups, bounded, _ = self._drive(slots)
        for group in groups:
            for radio in group.network.rus:
                held = {time.slot_key() for time, _ in radio._tx_grids}
                assert len(held) <= self.RING and not radio._ul_requests
                if radio.counters.uplane_received:  # guest-ru stands idle
                    assert 0 < len(radio._tx_grids) < radio.counters.uplane_received
            for du in group.network.dus:
                assert 0 < len(du.uplink_receptions) < du.counters.ul_packets

        monkeypatch.setattr(actions, "_RETAINED_SLOTS", 10**9)
        reference, unbounded, _ = self._drive(slots)
        for group in reference:
            for radio in group.network.rus:
                assert len(radio._tx_grids) == radio.counters.uplane_received
            for du in group.network.dus:
                assert len(du.uplink_receptions) == du.counters.ul_packets
        # Four apps, every counter, every digest: what fell off the ring
        # was in none of them.
        assert [b.cell_counters for b in bounded] == [
            u.cell_counters for u in unbounded
        ]
        assert [b.middlebox_stats for b in bounded] == [
            u.middlebox_stats for u in unbounded
        ]
        assert [b.reports for b in bounded] == [u.reports for u in unbounded]
        assert [b.digest for b in bounded] == [u.digest for u in unbounded]

    def test_every_holder_is_the_same_size_at_slot_50_and_slot_200(
        self, monkeypatch
    ):
        from repro.core import actions

        monkeypatch.setattr(actions, "_RETAINED_SLOTS", self.RING)
        _, _, sizes = self._drive(200, checkpoints=(50, 200))
        assert sizes[50] == sizes[200]
        assert any(any(held["cache"]) for held in sizes[200])
        assert all(any(held["du_log"]) for held in sizes[200])
