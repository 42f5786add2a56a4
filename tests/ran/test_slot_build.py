"""Slot-level endpoint builds: one blocked codec pass per RU / DU per slot.

``RadioUnit.build_uplink`` and ``DistributedUnit._build_dl_uplane`` draw
noise and quantise per (symbol, port) and compress the slot's int16 in
one pass.  Batching must be invisible: packet for packet and byte for
byte what a per-(symbol, port) build yields, the same sequence counters,
and payloads the scalar oracle reproduces from an independently replayed
RNG stream.
"""

import numpy as np
import pytest

from repro.conformance.reference import scalar_compress
from repro.fronthaul.compression import (
    MOD_COMP_METH,
    SAMPLES_PER_PRB,
    CompressionConfig,
)
from repro.fronthaul.cplane import (
    CPlaneMessage,
    CPlaneSection,
    Direction,
    SectionType,
)
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.phy.iq import iq_to_int16
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow

CODECS = [
    CompressionConfig(iq_width=9),
    CompressionConfig(iq_width=4, comp_meth=MOD_COMP_METH),
]
_IDS = ["bfp9", "modcomp4"]

NUM_PRB = 106
SLOT = SymbolTime(0, 2, 0, 0)


def _request(ru, port, sections, first_symbol, prach=False):
    message = CPlaneMessage(
        direction=Direction.UPLINK,
        time=SymbolTime(SLOT.frame, SLOT.subframe, SLOT.slot, first_symbol),
        sections=sections,
        section_type=SectionType.PRACH if prach else SectionType.DATA,
        compression=ru.config.compression,
        filter_index=1 if prach else 0,
    )
    ru.receive(
        make_packet(ru.du_mac, ru.mac, message, eaxc=EAxCId(0, ru_port=port))
    )


def requested_ru(compression, seed=11):
    """An RU owing a mixed slot: data on both ports over symbols 10-13
    (two sections, the second overrunning the carrier edge) and a PRACH
    request on port 0 over symbols 10-11."""
    ru = RadioUnit(
        ru_id=3,
        config=RuConfig(num_prb=NUM_PRB, n_antennas=2, compression=compression),
        seed=seed,
    )
    for port in (0, 1):
        _request(
            ru, port,
            [
                CPlaneSection(section_id=7, start_prb=0, num_prb=60, num_symbols=4),
                CPlaneSection(section_id=8, start_prb=90, num_prb=40, num_symbols=4),
            ],
            first_symbol=10,
        )
    _request(
        ru, 0,
        [CPlaneSection(section_id=1, start_prb=4, num_prb=12, num_symbols=2,
                       freq_offset=0)],
        first_symbol=10, prach=True,
    )
    return ru


def slot_items(ru, seed=5):
    """(time, port, air) per owed symbol; every third one noise-only."""
    rng = np.random.default_rng(seed)
    n_sc = ru.config.num_prb * SAMPLES_PER_PRB
    items = []
    for index, (time, port) in enumerate(ru.pending_uplink_symbols()):
        air = None
        if index % 3:
            air = 0.3 * (rng.normal(size=n_sc) + 1j * rng.normal(size=n_sc))
        items.append((time, port, air))
    return items


@pytest.mark.parametrize("compression", CODECS, ids=_IDS)
class TestRuSlotBuild:
    def test_slot_pass_equals_per_symbol_port_passes(self, compression):
        whole, piecewise = requested_ru(compression), requested_ru(compression)
        items = slot_items(whole)
        assert len(items) == 8  # 4 symbols x 2 ports
        together = whole.build_uplink(items)
        one_by_one = [
            packet for item in items for packet in piecewise.build_uplink([item])
        ]
        # 8 data packets + 2 PRACH packets (port 0, symbols 10 and 11).
        assert len(together) == len(one_by_one) == 10
        assert [p.pack() for p in together] == [p.pack() for p in one_by_one]
        assert whole._seq == piecewise._seq == {0: 6, 1: 4}
        assert whole.counters.uplane_sent == piecewise.counters.uplane_sent == 10

    def test_payloads_are_the_scalar_oracle_over_a_replayed_rng(self, compression):
        ru = requested_ru(compression)
        items = slot_items(ru)
        packets = iter(ru.build_uplink(items))
        replay = np.random.default_rng(11 ^ (3 * 7919))  # RadioUnit's stream
        n_sc = NUM_PRB * SAMPLES_PER_PRB
        for time, port, air in items:
            signal = np.zeros(n_sc, dtype=np.complex128)
            if air is not None:
                signal += air
            signal += replay.normal(0, 2.0e-4, n_sc) + 1j * replay.normal(
                0, 2.0e-4, n_sc
            )
            grid = iq_to_int16(signal)
            expected = [[(7, 0, 60), (8, 90, 16)]]  # section 8 clipped to 106
            if port == 0 and time.symbol < 12:
                expected.append([(1, 4, 12)])
            for sections in expected:
                packet = next(packets)
                assert (packet.time, packet.eaxc.ru_port) == (time, port)
                assert packet.message.filter_index == (sections[0][0] == 1)
                assert [
                    (s.section_id, s.start_prb, s.num_prb)
                    for s in packet.message.sections
                ] == sections
                for section in packet.message.sections:
                    rows = grid[section.start_prb : section.start_prb + section.num_prb]
                    assert bytes(section.payload) == scalar_compress(
                        rows.tolist(), compression.iq_width, compression.comp_meth
                    )
        assert next(packets, None) is None

    def test_items_are_consumed_lazily_in_order(self, compression):
        """The float stage stays per symbol: the RU pulls one item,
        digitizes it, then pulls the next (``run_slot`` hands a
        generator so only one air grid is alive at a time)."""
        ru = requested_ru(compression)
        items = slot_items(ru)
        pulled = []

        def feed():
            for item in items:
                pulled.append(ru.rng.bit_generator.state["state"]["state"])
                yield item

        ru.build_uplink(feed())
        assert len(set(pulled)) == len(items)  # noise drawn between pulls

    def test_ru_without_request_builds_nothing(self, compression):
        ru = RadioUnit(
            ru_id=3, config=RuConfig(num_prb=NUM_PRB, compression=compression)
        )
        state = ru.rng.bit_generator.state
        assert ru.build_uplink([(SymbolTime(0, 0, 0, 10), 0, None)]) == []
        assert ru.build_uplink([]) == []
        assert ru.rng.bit_generator.state == state  # no noise drawn
        assert ru.counters.uplane_sent == 0 and ru._seq == {}


def loaded_du(compression, symbols_per_slot, seed=9):
    cell = CellConfig(
        pci=5, bandwidth_hz=40_000_000, n_antennas=2, max_dl_layers=2
    )
    du = DistributedUnit(
        du_id=2, cell=cell, symbols_per_slot=symbols_per_slot, seed=seed,
        record_reference=True, compression=compression,
    )
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    return du


@pytest.mark.parametrize("compression", CODECS, ids=_IDS)
@pytest.mark.parametrize("symbols_per_slot", [2, 14])
class TestDuSlotBuild:
    def test_every_payload_is_the_oracle_of_its_reference_grid(
        self, compression, symbols_per_slot
    ):
        du = loaded_du(compression, symbols_per_slot)
        seen = 0
        for slot in range(3):  # slot 0 is the SSB slot
            uplane = [p for p in du.advance_slot(slot) if p.is_uplane]
            symbols = sorted({p.time.symbol for p in uplane})
            assert len(symbols) == symbols_per_slot
            if slot == 0 and symbols_per_slot == 2:
                assert set(symbols) <= set(du.cell.ssb_symbols)
            # Packets leave symbol-major, port-minor.
            assert [(p.time.symbol, p.eaxc.ru_port) for p in uplane] == [
                (symbol, port) for symbol in symbols for port in (0, 1)
            ]
            for packet in uplane:
                (section,) = packet.message.sections
                grid = du.dl_reference[(packet.time, packet.eaxc.ru_port)]
                assert section.num_prb == len(grid) == du.cell.num_prb
                assert section.payload == scalar_compress(
                    grid.tolist(), compression.iq_width, compression.comp_meth
                )
                seen += 1
        assert seen == 3 * symbols_per_slot * 2
        assert du.counters.dl_packets == seen

    def test_sequence_numbers_run_per_eaxc_in_emission_order(
        self, compression, symbols_per_slot
    ):
        du = loaded_du(compression, symbols_per_slot)
        expected = {}
        for slot in range(3):
            for packet in du.advance_slot(slot):
                flow = packet.eaxc.to_int()
                assert packet.ecpri.seq_id == expected.get(flow, 0)
                expected[flow] = (packet.ecpri.seq_id + 1) % 256
        assert du._seq == expected
