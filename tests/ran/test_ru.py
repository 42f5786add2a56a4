"""Radio Unit tests: C-plane obedience, DL acceptance, UL generation."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import actions
from repro.fronthaul.compression import MOD_COMP_METH, NO_COMP_METH, CompressionConfig
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.packet import make_packet, parse_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.phy.iq import int16_to_iq
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow

BFP9 = CompressionConfig(iq_width=9)
MODCOMP4 = CompressionConfig(iq_width=4, comp_meth=MOD_COMP_METH)
RAW16 = CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)


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


class TestTransmitGridDecodesOnRead:
    """The RU keeps the rows it accepted and decodes them when the grid is
    read: the same grid the eager per-packet decode wrote, and no view of
    the DU's encode pass kept alive."""

    def test_overlapping_sections_decode_in_arrival_order(self, rng):
        ru = RadioUnit(ru_id=1, config=RuConfig(num_prb=50, n_antennas=1))
        time = SymbolTime(0, 0, 0, 3)
        window = CPlaneMessage(
            direction=Direction.DOWNLINK, time=time,
            sections=[CPlaneSection(0, 0, 50)],
        )
        ru.receive(make_packet(ru.du_mac, ru.mac, window))

        def section(section_id, start_prb, num_prb, compression=BFP9):
            samples = rng.integers(-9000, 9000, (num_prb, 24), dtype=np.int16)
            return UPlaneSection.from_samples(
                section_id, start_prb, samples, compression
            )

        def downlink(sections):
            message = UPlaneMessage(Direction.DOWNLINK, time, sections)
            return make_packet(ru.du_mac, ru.mac, message)

        # Off a wire (parsed from bytes) and riding, three codecs on one
        # symbol; the fourth overruns the carrier edge, the last
        # overwrites part of the first with another codec.
        wire_parsed = parse_packet(downlink([section(2, 20, 20, MODCOMP4)]).pack())
        arrivals = [
            [section(1, 0, 30), *wire_parsed.message.sections],
            [section(3, 42, 3, RAW16), section(4, 45, 10), section(5, 10, 5, MODCOMP4)],
        ]
        expected = np.zeros((50, 24), dtype=np.int16)
        for sections in arrivals:
            ru.receive(downlink(sections))
            for accepted in sections:
                start, end = accepted.start_prb, min(accepted.prb_range[1], 50)
                expected[start:end] = accepted.iq_samples()[: end - start]
        for _ in range(2):  # reading decodes; it consumes nothing
            assert np.array_equal(ru.transmit_grid(time, 0), int16_to_iq(expected))

    def test_no_du_encode_pass_outlives_its_slot_in_the_ru(self, pair):
        du, ru = pair

        def deliver(slot):
            passes = []
            for packet in du.advance_slot(slot):
                if packet.is_uplane:
                    (section,) = packet.message.sections
                    passes.append(weakref.ref(section._parse[1].base))
                ru.receive(packet)
            return passes

        passes = [ref for slot in range(4) for ref in deliver(slot)]
        gc.collect()
        assert passes and all(ref() is None for ref in passes)
        assert len(ru.transmitted_symbols()) == len(passes)
        assert all(
            ru.transmit_grid(*key).any() for key in ru.transmitted_symbols()
        )
