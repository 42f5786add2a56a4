"""Radio Unit tests: C-plane obedience, DL acceptance, UL generation."""

import numpy as np
import pytest

from repro.core import actions
from repro.fronthaul.cplane import Direction
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow


@pytest.fixture
def pair(cell_40mhz):
    du = DistributedUnit(du_id=1, cell=cell_40mhz, symbols_per_slot=1, seed=2)
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
    return du, ru


def run_downlink(du, ru, n_slots=5, first_slot=0):
    for slot in range(first_slot, first_slot + n_slots):
        for packet in du.advance_slot(slot):
            ru.receive(packet)


class TestDownlink:
    def test_scheduled_uplane_accepted(self, pair):
        du, ru = pair
        run_downlink(du, ru)
        assert ru.counters.uplane_received > 0
        assert ru.counters.unsolicited_uplane == 0
        assert ru.transmitted_symbols()

    def test_transmit_grid_carries_energy(self, pair):
        du, ru = pair
        run_downlink(du, ru)
        time, port = ru.transmitted_symbols()[0]
        grid = ru.transmit_grid(time, port)
        assert grid is not None
        assert float(np.mean(np.abs(grid) ** 2)) > 0.01

    def test_uplane_without_cplane_dropped(self, pair):
        du, ru = pair
        packets = []
        for slot in range(5):
            packets.extend(du.advance_slot(slot))
        uplane = [p for p in packets if p.is_uplane]
        # Deliver U-plane only — no C-plane windows were opened.
        for packet in uplane:
            ru.receive(packet)
        assert ru.counters.uplane_received == 0
        assert ru.counters.unsolicited_uplane == len(uplane)
        assert not ru.transmitted_symbols()

    def test_wrong_mac_rejected(self, pair):
        du, ru = pair
        packets = du.advance_slot(0)
        packets[0].eth.dst = du.mac  # not the RU's address
        with pytest.raises(ValueError):
            ru.receive(packets[0])

    def test_idle_symbol_transmits_nothing(self, pair):
        du, ru = pair
        run_downlink(du, ru)
        from repro.fronthaul.timing import SymbolTime

        assert ru.transmit_grid(SymbolTime(99, 0, 0, 0), 0) is None


class TestUplink:
    def test_pending_requests_follow_cplane(self, pair):
        du, ru = pair
        run_downlink(du, ru, n_slots=5)  # includes the U slot
        pending = ru.pending_uplink_symbols()
        assert pending
        times = {time.slot_key() for time, _ in pending}
        assert times  # at least one UL slot requested

    def test_build_uplink_answers_request(self, pair):
        du, ru = pair
        run_downlink(du, ru, n_slots=5)
        time, port = ru.pending_uplink_symbols()[0]
        packets = ru.build_uplink([(time, port, None)])
        assert len(packets) == 1
        message = packets[0].message
        assert message.direction is Direction.UPLINK
        assert message.time == time
        assert packets[0].eth.dst == du.mac
        assert packets[0].eaxc.ru_port == port

    def test_build_uplink_without_request_is_empty(self, pair):
        _, ru = pair
        from repro.fronthaul.timing import SymbolTime

        assert ru.build_uplink([(SymbolTime(0, 0, 0, 10), 0, None)]) == []

    def test_uplink_digitizes_air_signal(self, pair, rng):
        du, ru = pair
        run_downlink(du, ru, n_slots=5)
        time, port = ru.pending_uplink_symbols()[0]
        n_sc = ru.config.num_prb * 12
        air = np.ones(n_sc, dtype=complex) * 0.3
        packet = ru.build_uplink([(time, port, air)])[0]
        samples = packet.message.sections[0].iq_samples()
        # 0.3 amplitude * 0.25 backoff * 32767 ~= 2457 on the I rail.
        assert abs(samples[:, 0].mean() - 2457) < 100

    def test_uplink_noise_only_has_low_energy(self, pair):
        du, ru = pair
        run_downlink(du, ru, n_slots=5)
        time, port = ru.pending_uplink_symbols()[0]
        packet = ru.build_uplink([(time, port, None)])[0]
        exponents = packet.message.sections[0].exponents()
        assert exponents.max() <= 2  # below the Algorithm 1 UL threshold

    def test_air_size_mismatch_rejected(self, pair):
        du, ru = pair
        run_downlink(du, ru, n_slots=5)
        time, port = ru.pending_uplink_symbols()[0]
        with pytest.raises(ValueError):
            ru.build_uplink([(time, port, np.ones(10, dtype=complex))])

    def test_end_slot_drops_answered_requests(self, pair):
        du, ru = pair
        run_downlink(du, ru, n_slots=5)
        assert ru.pending_uplink_symbols()
        ru.end_slot()
        assert not ru.pending_uplink_symbols()


class TestHousekeeping:
    def test_end_slot_keeps_the_newest_grids(self, pair, monkeypatch):
        du, ru = pair
        monkeypatch.setattr(actions, "_RETAINED_SLOTS", 3)
        by_slot = []
        for slot in range(6):
            seen = set(ru.transmitted_symbols())
            run_downlink(du, ru, n_slots=1, first_slot=slot)
            by_slot.append(set(ru.transmitted_symbols()) - seen)
            ru.end_slot()
        assert all(by_slot[:4])  # slots 0-3 are downlink under DDDSU
        # The three newest closed slots stay; older grids and windows went.
        assert set(ru.transmitted_symbols()) == set().union(*by_slot[-3:])
        assert {slot_key for slot_key, _ in ru._dl_windows} == {
            time.slot_key() for time, _ in ru.transmitted_symbols()
        }
