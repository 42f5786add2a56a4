"""FronthaulNetwork and RadioEnvironment tests."""

import numpy as np
import pytest

from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import Direction
from repro.phy.geometry import Position
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import (
    FronthaulNetwork,
    RadioEnvironment,
    UeTransmission,
)


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


class TestRadioEnvironment:
    def test_relative_gain_unity_at_reference(self):
        env = RadioEnvironment(reference_distance_m=5.0)
        env.channel.params = env.channel.params.__class__(shadowing_sigma_db=0)
        env._reference_loss_db = env.channel.params.path_loss_db(5.0)
        tx = Position(0, 0, 0)
        rx = Position(5, 0, 0, height=tx.height)
        assert env.relative_gain(tx, rx) == pytest.approx(1.0, rel=0.01)

    def test_gain_decreases_with_distance(self):
        env = RadioEnvironment()
        tx = Position(0, 10, 0)
        near = env.relative_gain(tx, Position(3, 10, 0))
        far = env.relative_gain(tx, Position(40, 10, 0))
        assert near > far

    def test_combine_downlink_sums_transmissions(self, rng):
        env = RadioEnvironment()
        tx_a = Position(0, 10, 0)
        tx_b = Position(5, 10, 0)
        ue = Position(2.5, 10, 0)
        iq = np.ones(24, dtype=complex)
        combined = env.combine_downlink(
            ue, [(tx_a, iq), (tx_b, iq)], noise_amplitude=0.0, rng=rng
        )
        gain = env.relative_gain(tx_a, ue) + env.relative_gain(tx_b, ue)
        assert np.abs(combined - gain).max() < 1e-9

    def test_combine_uplink_none_when_quiet(self):
        env = RadioEnvironment()
        assert env.combine_uplink(Position(0, 0, 0), [], 24) is None

    def test_combine_uplink_size_checked(self):
        env = RadioEnvironment()
        tx = UeTransmission(Position(1, 1, 0), np.ones(10, dtype=complex))
        with pytest.raises(ValueError):
            env.combine_uplink(Position(0, 0, 0), [tx], 24)


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


class TestRuRetention:
    """``run_slot`` closes every RU's slot: per-slot RU state is a ring,
    and nothing a run reports depends on what fell off it."""

    SLOTS = 40

    def _drive(self):
        from repro.eval import kit
        from repro.scale.runner import _summarize_group

        spec = kit.scenario(
            "ru-retention", self.SLOTS, 3,
            [kit.cell(
                "cell", 1, [kit.flow("dl", 60.0), kit.flow("ul", 10.0)],
                rus=[{"name": "ru1"}, {"name": "ru2"}],
                chain=[{"stage": "das"}],
                symbols_per_slot=None,
            )],
        )
        (group,) = spec.build()
        group.network.run(self.SLOTS)
        group.slots_run = self.SLOTS
        return group, _summarize_group(group)

    def test_three_windows_of_grids_keep_one(self, monkeypatch):
        from repro.ran import ru as ru_module

        window = ru_module._RETAINED
        group, bounded = self._drive()
        for radio in group.network.rus:
            assert radio.counters.uplane_received >= 3 * window
            assert len(radio._tx_grids) == window
            assert len(radio._dl_windows) <= window
            assert not radio._ul_requests

        monkeypatch.setattr(ru_module, "_RETAINED", 10**9)
        reference_group, unbounded = self._drive()
        for radio in reference_group.network.rus:
            assert len(radio._tx_grids) == radio.counters.uplane_received
        assert bounded.cell_counters == unbounded.cell_counters
        assert bounded.digest == unbounded.digest
