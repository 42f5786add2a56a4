"""Distributed Unit tests: packet generation and uplink consumption."""

import numpy as np
import pytest

from repro.fronthaul.cplane import Direction, SectionType
from repro.fronthaul.packet import parse_packet
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.traffic import ConstantBitrateFlow


@pytest.fixture
def du(cell_40mhz):
    du = DistributedUnit(du_id=1, cell=cell_40mhz, symbols_per_slot=1, seed=1)
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    return du


def loaded(du, dl=100.0, ul=20.0):
    if dl:
        du.attach_flow("ue", ConstantBitrateFlow(dl, "dl"), Direction.DOWNLINK)
    if ul:
        du.attach_flow("ue", ConstantBitrateFlow(ul, "ul"), Direction.UPLINK)
    return du


class TestDownlinkGeneration:
    def test_idle_slot_produces_nothing_between_ssb(self, du):
        packets = du.advance_slot(1)  # not an SSB slot
        assert packets == []

    def test_ssb_slot_produces_packets_even_idle(self, du):
        packets = du.advance_slot(0)  # slot 0 is an SSB slot
        assert packets  # C-plane + SSB U-plane

    def test_loaded_slot_produces_cplane_per_port(self, du):
        loaded(du, ul=0)
        packets = [p for p in du.advance_slot(0) if p.is_cplane]
        dl_cplane = [p for p in packets if p.direction is Direction.DOWNLINK]
        assert len(dl_cplane) == du.cell.n_antennas
        ports = {p.eaxc.ru_port for p in dl_cplane}
        assert ports == set(range(du.cell.n_antennas))

    def test_cplane_covers_full_carrier(self, du):
        loaded(du, ul=0)
        cplane = [p for p in du.advance_slot(0) if p.is_cplane][0]
        assert cplane.message.sections[0].prb_range == (0, du.cell.num_prb)

    def test_uplane_full_band_and_compressed(self, du):
        loaded(du, ul=0)
        uplane = [p for p in du.advance_slot(0) if p.is_uplane]
        assert len(uplane) == du.cell.n_antennas  # 1 symbol x 2 ports
        section = uplane[0].message.sections[0]
        assert section.num_prb == du.cell.num_prb
        assert section.compression.iq_width == 9

    def test_uplane_wire_parseable(self, du):
        loaded(du, ul=0)
        for packet in du.advance_slot(0):
            parsed = parse_packet(packet.pack(), carrier_num_prb=du.cell.num_prb)
            assert parsed.eth.dst == du.ru_mac

    def test_allocated_prbs_carry_energy_idle_do_not(self, du):
        loaded(du, dl=30.0, ul=0)
        uplane = [p for p in du.advance_slot(0) if p.is_uplane
                  and p.eaxc.ru_port == 0]
        section = uplane[0].message.sections[0]
        exponents = section.exponents()
        assert exponents.max() > 0  # data PRBs
        assert exponents.min() == 0  # idle PRBs

    def test_seq_ids_increment_per_flow(self, du):
        loaded(du, ul=0)
        seqs = []
        for slot in range(3):
            for packet in du.advance_slot(slot):
                if packet.is_uplane and packet.eaxc.ru_port == 0:
                    seqs.append(packet.ecpri.seq_id)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_dl_reference_recorded_when_enabled(self, cell_40mhz):
        du = DistributedUnit(du_id=1, cell=cell_40mhz, symbols_per_slot=1,
                             record_reference=True)
        du.scheduler.add_ue("ue", dl_layers=1)
        du.attach_flow("ue", ConstantBitrateFlow(50, "dl"), Direction.DOWNLINK)
        du.advance_slot(0)
        assert du.dl_reference


class TestSsb:
    def test_ssb_on_port0_only(self, du):
        """The SSB is transmitted by the first antenna only — the gap the
        dMIMO middlebox fills (Section 4.2)."""
        reference = du.ssb_reference()
        packets = [p for p in du.advance_slot(0) if p.is_uplane]
        start, end = du.cell.ssb_prb_range
        from repro.phy.iq import int16_to_iq

        for packet in packets:
            section = packet.message.sections[0]
            block = int16_to_iq(section.iq_samples())[start * 12 : end * 12]
            correlation = np.abs(np.vdot(block, reference)) / (
                np.linalg.norm(block) * np.linalg.norm(reference) + 1e-12
            )
            if packet.eaxc.ru_port == 0:
                assert correlation > 0.9
            else:
                assert correlation < 0.3

    def test_ssb_reference_deterministic_per_pci(self, cell_40mhz):
        du_a = DistributedUnit(du_id=1, cell=cell_40mhz)
        du_b = DistributedUnit(du_id=2, cell=cell_40mhz)
        assert (du_a.ssb_reference() == du_b.ssb_reference()).all()
        other_cell = CellConfig(pci=77, bandwidth_hz=40_000_000,
                                n_antennas=2, max_dl_layers=2)
        du_c = DistributedUnit(du_id=3, cell=other_cell)
        assert not (du_a.ssb_reference() == du_c.ssb_reference()).all()


class TestUplinkPath:
    def test_ul_cplane_only_with_traffic(self, du):
        packets = du.advance_slot(3)  # S slot: UL symbols exist
        assert not any(
            p.is_cplane and p.direction is Direction.UPLINK for p in packets
        )

    def test_ul_cplane_emitted_with_traffic(self, du):
        loaded(du, dl=0, ul=50.0)
        found = False
        for slot in range(5):
            for packet in du.advance_slot(slot):
                if packet.is_cplane and packet.direction is Direction.UPLINK:
                    found = True
        assert found

    def test_prach_cplane_on_prach_slots(self, cell_40mhz):
        du = DistributedUnit(du_id=1, cell=cell_40mhz)
        prach = []
        for slot in range(45):
            for packet in du.advance_slot(slot):
                if (
                    packet.is_cplane
                    and packet.message.section_type is SectionType.PRACH
                ):
                    prach.append(packet)
        assert prach
        message = prach[0].message
        assert message.filter_index == 1
        assert message.sections[0].freq_offset is not None

    def test_receive_rejects_downlink(self, du):
        loaded(du, ul=0)
        uplane = [p for p in du.advance_slot(0) if p.is_uplane][0]
        with pytest.raises(ValueError):
            du.receive(uplane)


class TestCounters:
    def test_dl_bits_track_offered_load(self, du):
        loaded(du, dl=100.0, ul=0)
        n_slots = 20
        for slot in range(n_slots):
            du.advance_slot(slot)
        elapsed_s = n_slots * du.cell.numerology.slot_duration_ns / 1e9
        rate = du.counters.dl_bits / elapsed_s / 1e6
        assert rate == pytest.approx(100.0, rel=0.15)


class TestUplinkHash:
    def test_digest_is_the_per_packet_hash_after_every_slot_and_mid_slot(self):
        """The golden 8-cell fixture: the hash fed one joined buffer per
        slot reads, after every slot and once in the middle of a slot's
        uplink, what three ``update`` calls per packet produce."""
        import hashlib

        from repro.eval.scale import bench_spec
        from repro.scale import Scenario

        groups = Scenario(bench_spec(12)).build()
        oracles, mid_slot = {}, []

        def shadow(du):
            oracle = oracles[du] = hashlib.sha256()
            receive = du.receive

            def receiving(packet):
                receive(packet)
                if packet.message.filter_index == 1:
                    return
                time = packet.time
                oracle.update(
                    f"{time.frame},{time.subframe},{time.slot},{time.symbol},"
                    f"{packet.eaxc.ru_port}".encode()
                )
                for section in packet.message.sections:
                    oracle.update(
                        f"{section.section_id},{section.start_prb},"
                        f"{section.num_prb}".encode()
                    )
                    oracle.update(section.payload)
                if du.counters.ul_packets == 3:  # mid-slot, packets to come
                    mid_slot.append(du.uplink_sha256() == oracle.hexdigest())

            du.receive = receiving

        dus = [du for group in groups for du in group.network.dus]
        for du in dus:
            shadow(du)
        for _ in range(12):
            for group in groups:
                group.network.run_slot()
            for du in dus:
                assert du.uplink_sha256() == oracles[du].hexdigest()
        assert mid_slot and all(mid_slot)
        assert sum(du.counters.ul_packets > 3 for du in dus) == len(mid_slot)
