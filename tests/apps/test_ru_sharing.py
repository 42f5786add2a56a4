"""RU sharing middlebox unit tests (Section 4.3, Algorithms 2-3)."""

import numpy as np
import pytest

from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.core.actions import _RETAINED_SLOTS, ActionKind
from repro.fronthaul.cplane import (
    CPlaneMessage,
    CPlaneSection,
    Direction,
    SectionType,
)
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

from tests.conftest import random_prb_samples

RU_GRID = PrbGrid(3.46e9, 273)


@pytest.fixture
def ru_mac():
    return MacAddress.from_int(0x41)


@pytest.fixture
def du_configs():
    grid_a, grid_b = split_ru_spectrum(RU_GRID, [106, 106])
    return [
        SharedDuConfig(du_id=1, mac=MacAddress.from_int(0x11), grid=grid_a),
        SharedDuConfig(du_id=2, mac=MacAddress.from_int(0x12), grid=grid_b),
    ]


@pytest.fixture
def sharing(ru_mac, du_configs):
    return RuSharingMiddlebox(ru_mac=ru_mac, ru_grid=RU_GRID, dus=du_configs)


def du_cplane(du, direction=Direction.DOWNLINK, time=None, ru_mac=None):
    message = CPlaneMessage(
        direction=direction,
        time=time or SymbolTime(0, 0, 0, 0),
        sections=[CPlaneSection(section_id=du.du_id, start_prb=0,
                                num_prb=du.grid.num_prb)],
    )
    return make_packet(du.mac, ru_mac or MacAddress.from_int(0x41), message)


def du_dl_uplane(rng, du, time=None, ru_mac=None):
    section = UPlaneSection.from_samples(
        section_id=du.du_id, start_prb=0,
        samples=random_prb_samples(rng, du.grid.num_prb),
    )
    message = UPlaneMessage(
        direction=Direction.DOWNLINK,
        time=time or SymbolTime(0, 0, 0, 0),
        sections=[section],
    )
    return make_packet(du.mac, ru_mac or MacAddress.from_int(0x41), message)


def ru_ul_uplane(rng, ru_mac, time=None):
    section = UPlaneSection.from_samples(
        section_id=0, start_prb=0,
        samples=random_prb_samples(rng, RU_GRID.num_prb),
    )
    message = UPlaneMessage(
        direction=Direction.UPLINK,
        time=time or SymbolTime(0, 0, 0, 10),
        sections=[section],
    )
    return make_packet(ru_mac, MacAddress.from_int(0x99), message)


class TestConstruction:
    def test_duplicate_du_id_rejected(self, ru_mac, du_configs):
        bad = [du_configs[0], SharedDuConfig(du_id=1,
                                             mac=MacAddress.from_int(0x13),
                                             grid=du_configs[1].grid)]
        with pytest.raises(ValueError):
            RuSharingMiddlebox(ru_mac=ru_mac, ru_grid=RU_GRID, dus=bad)

    def test_oversized_du_grid_rejected(self, ru_mac):
        huge = SharedDuConfig(du_id=1, mac=MacAddress.from_int(0x11),
                              grid=PrbGrid(3.46e9, 300))
        with pytest.raises(ValueError):
            RuSharingMiddlebox(ru_mac=ru_mac, ru_grid=RU_GRID, dus=[huge])

    def test_no_dus_rejected(self, ru_mac):
        with pytest.raises(ValueError):
            RuSharingMiddlebox(ru_mac=ru_mac, ru_grid=RU_GRID, dus=[])


class TestCplaneWidening:
    def test_first_cplane_widened_and_forwarded(self, sharing, du_configs,
                                                ru_mac):
        result = sharing.process(du_cplane(du_configs[0]))
        assert len(result.emissions) == 1
        out = result.emissions[0]
        assert out.eth.dst == ru_mac
        section = out.message.sections[0]
        assert section.num_prb == RU_GRID.num_prb
        assert section.start_prb == 0

    def test_second_cplane_suppressed(self, sharing, du_configs):
        sharing.process(du_cplane(du_configs[0]))
        result = sharing.process(du_cplane(du_configs[1]))
        assert result.emissions == []

    def test_both_requests_remembered(self, sharing, du_configs):
        sharing.process(du_cplane(du_configs[0]))
        sharing.process(du_cplane(du_configs[1]))
        key = (Direction.DOWNLINK, (0, 0, 0), 0)
        assert sharing._requesting_dus(Direction.DOWNLINK, (0, 0, 0), 0) == [1, 2]

    def test_directions_tracked_separately(self, sharing, du_configs):
        sharing.process(du_cplane(du_configs[0], Direction.DOWNLINK))
        result = sharing.process(du_cplane(du_configs[0], Direction.UPLINK))
        # First UL request for the symbol: forwarded (widened), not dropped.
        assert len(result.emissions) == 1

    def test_unknown_du_passthrough(self, sharing, rng):
        foreign = du_cplane(
            SharedDuConfig(du_id=9, mac=MacAddress.from_int(0x99),
                           grid=PrbGrid(3.43e9, 106))
        )
        result = sharing.process(foreign)
        assert len(result.emissions) == 1
        assert result.emissions[0].message.sections[0].num_prb == 106


class TestDownlinkMultiplex:
    def test_held_until_all_requesting_dus_deliver(self, sharing, rng,
                                                   du_configs):
        sharing.process(du_cplane(du_configs[0]))
        sharing.process(du_cplane(du_configs[1]))
        assert sharing.process(du_dl_uplane(rng, du_configs[0])).emissions == []
        result = sharing.process(du_dl_uplane(rng, du_configs[1]))
        assert len(result.emissions) == 1

    def test_multiplexed_prbs_land_at_offsets(self, sharing, rng, du_configs,
                                              ru_mac):
        sharing.process(du_cplane(du_configs[0]))
        sharing.process(du_cplane(du_configs[1]))
        pkt_a = du_dl_uplane(rng, du_configs[0])
        pkt_b = du_dl_uplane(rng, du_configs[1])
        sharing.process(pkt_a)
        merged = sharing.process(pkt_b).emissions[0]
        assert merged.eth.dst == ru_mac
        section = merged.message.sections[0]
        assert section.num_prb == RU_GRID.num_prb
        # DU A at offset 0, DU B at offset 106 (aligned byte copies).
        assert section.prb_payload(0) == pkt_a.message.sections[0].prb_payload(0)
        assert section.prb_payload(105) == pkt_a.message.sections[0].prb_payload(105)
        assert section.prb_payload(106) == pkt_b.message.sections[0].prb_payload(0)
        assert section.prb_payload(211) == pkt_b.message.sections[0].prb_payload(105)

    def test_single_du_multiplexes_alone(self, sharing, rng, du_configs):
        """A DU with no contemporaries still reaches the RU."""
        sharing.process(du_cplane(du_configs[0]))
        result = sharing.process(du_dl_uplane(rng, du_configs[0]))
        assert len(result.emissions) == 1

    def test_aligned_copies_counted(self, sharing, rng, du_configs):
        sharing.process(du_cplane(du_configs[0]))
        sharing.process(du_dl_uplane(rng, du_configs[0]))
        assert sharing.aligned_copies > 0
        assert sharing.misaligned_copies == 0


class TestUplinkDemultiplex:
    def setup_ul(self, sharing, du_configs, time):
        for du in du_configs:
            sharing.process(du_cplane(du, Direction.UPLINK, time=time))

    def test_each_du_gets_its_slice(self, sharing, rng, du_configs, ru_mac):
        time = SymbolTime(0, 0, 0, 10)
        self.setup_ul(sharing, du_configs, time)
        ru_packet = ru_ul_uplane(rng, ru_mac, time=time)
        full = ru_packet.message.sections[0]
        result = sharing.process(ru_packet)
        assert len(result.emissions) == 2
        by_dst = {e.eth.dst.to_int(): e for e in result.emissions}
        for du, offset in zip(du_configs, (0, 106)):
            out = by_dst[du.mac.to_int()]
            section = out.message.sections[0]
            assert section.num_prb == du.grid.num_prb
            assert section.start_prb == 0
            assert section.prb_payload(0) == full.prb_payload(offset)
            assert section.prb_payload(105) == full.prb_payload(offset + 105)

    def test_only_requesting_dus_served(self, sharing, rng, du_configs,
                                        ru_mac):
        time = SymbolTime(0, 0, 0, 10)
        sharing.process(du_cplane(du_configs[0], Direction.UPLINK, time=time))
        result = sharing.process(ru_ul_uplane(rng, ru_mac, time=time))
        assert len(result.emissions) == 1
        assert result.emissions[0].eth.dst == du_configs[0].mac

    def test_unrequested_uplink_dropped(self, sharing, rng, ru_mac):
        result = sharing.process(ru_ul_uplane(rng, ru_mac))
        assert result.emissions == []


class TestMisalignedSharing:
    @pytest.fixture
    def misaligned(self, ru_mac):
        grid_a = split_ru_spectrum(RU_GRID, [106])[0]
        shifted = PrbGrid(
            grid_a.center_frequency_hz + 0.5 * 12 * 30_000, 106
        )  # half-PRB misalignment (Figure 6 right)
        du = SharedDuConfig(du_id=1, mac=MacAddress.from_int(0x11),
                            grid=shifted)
        return RuSharingMiddlebox(ru_mac=ru_mac, ru_grid=RU_GRID, dus=[du]), du

    def test_misaligned_copy_path_taken(self, misaligned, rng):
        sharing, du = misaligned
        sharing.process(du_cplane(du))
        result = sharing.process(du_dl_uplane(rng, du))
        assert len(result.emissions) == 1
        assert sharing.misaligned_copies > 0
        assert sharing.aligned_copies == 0

    def test_uplink_demux_decodes_once_and_encodes_once(
        self, ru_mac, rng, monkeypatch
    ):
        """Every requesting DU's copy shares the RU section: one decode and
        one codec pass serve both misaligned DUs, the trace records what a
        decode per DU records, in the same order, and each DU's section
        holds the bytes a per-DU encode of its slice gives."""
        dus = [
            SharedDuConfig(
                du_id=index + 1, mac=MacAddress.from_int(0x11 + index),
                grid=PrbGrid(grid.center_frequency_hz + 0.5 * 12 * 30_000, 106),
            )
            for index, grid in enumerate(split_ru_spectrum(RU_GRID, [106, 106]))
        ]
        sharing = RuSharingMiddlebox(ru_mac=ru_mac, ru_grid=RU_GRID, dus=dus)
        time = SymbolTime(0, 0, 0, 10)
        for du in dus:
            sharing.process(du_cplane(du, Direction.UPLINK, time=time))
        packet = ru_ul_uplane(rng, ru_mac, time=time)
        decoded = packet.message.sections[0].iq_samples().reshape(-1, 2)
        decodes = []
        iq_samples = UPlaneSection.iq_samples

        def counted(section):
            decodes.append(section)
            return iq_samples(section)

        monkeypatch.setattr(UPlaneSection, "iq_samples", counted)
        result = sharing.process(packet)
        assert len(decodes) == 1 and sharing.misaligned_copies == 2
        assert result.trace.kinds() == [
            ActionKind.REPLICATE,
            ActionKind.DECOMPRESS, ActionKind.ROUTE,
            ActionKind.DECOMPRESS, ActionKind.ROUTE,
        ]
        sections = [out.message.sections[0] for out in result.emissions]
        assert sections[0]._pending._pass is sections[1]._pending._pass
        for du, out, section in zip(dus, result.emissions, sections):
            assert out.eth.dst == du.mac
            offset = int(round(RU_GRID.offset_of(du.grid) * 12))
            expected = decoded[offset : offset + 106 * 12].reshape(106, 24)
            assert section == UPlaneSection.from_samples(du.du_id, 0, expected)

    def test_misaligned_samples_land_at_subcarrier_offset(self, misaligned,
                                                          rng):
        sharing, du = misaligned
        sharing.process(du_cplane(du))
        pkt = du_dl_uplane(rng, du)
        src_samples = pkt.message.sections[0].iq_samples()
        merged = sharing.process(pkt).emissions[0]
        out = merged.message.sections[0].iq_samples()
        offset_sc = int(round(RU_GRID.offset_of(du.grid) * 12))
        flat_out = out.reshape(-1, 2)
        flat_src = src_samples.reshape(-1, 2)
        # Compare a mid-band subcarrier (tolerate recompression error).
        index = 600
        np.testing.assert_allclose(
            flat_out[offset_sc + index], flat_src[index], atol=64
        )


class TestPrach:
    def prach_cplane(self, du, time=None):
        message = CPlaneMessage(
            direction=Direction.UPLINK,
            time=time or SymbolTime(0, 0, 0, 10),
            sections=[
                CPlaneSection(section_id=0, start_prb=0, num_prb=12,
                              num_symbols=4, freq_offset=144)
            ],
            section_type=SectionType.PRACH,
            filter_index=1,
        )
        return make_packet(du.mac, MacAddress.from_int(0x41), message)

    def test_combined_after_all_dus(self, sharing, du_configs, ru_mac):
        held = sharing.process(self.prach_cplane(du_configs[0]))
        assert held.emissions == []
        result = sharing.process(self.prach_cplane(du_configs[1]))
        assert len(result.emissions) == 1
        out = result.emissions[0]
        assert out.eth.dst == ru_mac
        assert out.message.section_type is SectionType.PRACH
        assert len(out.message.sections) == 2
        assert [s.section_id for s in out.message.sections] == [1, 2]

    def test_freq_offsets_translated(self, sharing, du_configs):
        from repro.fronthaul.prach import translate_freq_offset

        sharing.process(self.prach_cplane(du_configs[0]))
        result = sharing.process(self.prach_cplane(du_configs[1]))
        sections = result.emissions[0].message.sections
        for du, section in zip(du_configs, sections):
            assert section.freq_offset == translate_freq_offset(
                144, du.grid.center_frequency_hz, RU_GRID.center_frequency_hz,
                30_000,
            )

    def test_prach_uplink_demuxed_by_section_id(self, sharing, rng,
                                                du_configs, ru_mac):
        sections = [
            UPlaneSection.from_samples(
                section_id=du.du_id, start_prb=0,
                samples=random_prb_samples(rng, 12),
            )
            for du in du_configs
        ]
        message = UPlaneMessage(
            direction=Direction.UPLINK,
            time=SymbolTime(0, 0, 0, 10),
            sections=sections,
            filter_index=1,
        )
        packet = make_packet(ru_mac, MacAddress.from_int(0x99), message)
        result = sharing.process(packet)
        assert len(result.emissions) == 2
        for emission, du, section in zip(result.emissions, du_configs,
                                         sections):
            assert emission.eth.dst == du.mac
            assert emission.message.sections[0].payload == section.payload
            assert emission.message.filter_index == 1

    def test_unknown_section_ids_dropped(self, sharing, rng, ru_mac):
        message = UPlaneMessage(
            direction=Direction.UPLINK,
            time=SymbolTime(0, 0, 0, 10),
            sections=[
                UPlaneSection.from_samples(
                    section_id=99, start_prb=0,
                    samples=random_prb_samples(rng, 12),
                )
            ],
            filter_index=1,
        )
        packet = make_packet(ru_mac, MacAddress.from_int(0x99), message)
        assert sharing.process(packet).emissions == []


class TestHousekeeping:
    def test_flush_slots_before(self, sharing, rng, du_configs):
        """Closing slots flushes the requests opened before the ring's
        horizon and keeps the newer ones."""
        old = SymbolTime(0, 0, 0, 0)
        new = SymbolTime(0, 1, 0, 0)
        sharing.process(du_cplane(du_configs[0], time=old))
        for _ in range(_RETAINED_SLOTS):
            sharing.end_slot()
        assert sharing._requesting_dus(Direction.DOWNLINK, old.slot_key(), 0) == [1]
        sharing.process(du_cplane(du_configs[0], time=new))
        sharing.end_slot()
        assert sharing._requesting_dus(Direction.DOWNLINK, old.slot_key(), 0) == []
        assert sharing._requesting_dus(Direction.DOWNLINK, new.slot_key(), 0) == [1]

    def test_a_slot_key_seen_again_after_the_ring_forgot_it_is_new(
        self, sharing, rng, du_configs, ru_mac
    ):
        """(frame, subframe, slot) wraps every 256 frames: the request for
        a key last seen a ring ago is the first one again — widened and
        forwarded, not dropped as satisfied; its U-plane muxes alone; and
        a lone PRACH request from back then completes nothing now."""
        prach = TestPrach().prach_cplane
        sharing.process(du_cplane(du_configs[0]))
        sharing.process(du_dl_uplane(rng, du_configs[0]))
        assert sharing.process(prach(du_configs[0])).emissions == []
        for _ in range(_RETAINED_SLOTS + 1):
            sharing.end_slot()
        assert len(sharing.cache) == 0
        (request,) = sharing.process(du_cplane(du_configs[1])).emissions
        assert request.eth.dst == ru_mac
        assert request.message.sections[0].num_prb == RU_GRID.num_prb
        assert sharing._requesting_dus(Direction.DOWNLINK, (0, 0, 0), 0) == [2]
        (muxed,) = sharing.process(du_dl_uplane(rng, du_configs[1])).emissions
        assert muxed.eth.dst == ru_mac
        assert sharing.process(prach(du_configs[1])).emissions == []

    def test_what_is_held_is_in_the_packet_cache(self, sharing, rng, du_configs):
        """A3 is the only store: requests, waiting DL U-plane and PRACH
        requests sit in the cache under their kind, tagged by DU id."""
        sharing.process(du_cplane(du_configs[0]))
        sharing.process(du_cplane(du_configs[1]))
        sharing.process(du_dl_uplane(rng, du_configs[0]))
        sharing.process(TestPrach().prach_cplane(du_configs[1]))
        assert {key[0]: sharing.cache.tags(key) for key in sharing.cache.keys()} == {
            "cplane": [1, 2], "dl_uplane": [1], "prach": [2],
        }
