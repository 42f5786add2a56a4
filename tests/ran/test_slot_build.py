"""Slot-level endpoint builds: one int16 slot array and one blocked codec
pass per RU / DU per slot.

``RadioUnit.build_uplink`` draws noise and quantises a block of at most 8
owed (symbol, port) rows at a time; ``DistributedUnit._build_dl_uplane``
builds the whole slot on int16 from keyed pools; both compress the slot's
int16 in one pass.  Batching must be invisible: packet for packet and
byte for byte what a per-(symbol, port) build yields, the same sequence
counters, and payloads the scalar oracle reproduces — for the RU from an
independently replayed RNG stream drawn one vector at a time, for the DU
from each row's key alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conformance.reference import scalar_compress, scalar_mix64
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
from repro.fronthaul.timing import symbol_of, symbol_time
from repro.phy.iq import DL_FIXED_POINT_BACKOFF, QamModulator, iq_to_int16
from repro.ran import ru as ru_module
from repro.phy.iq import INT16_SCALE
from repro.phy.keyed import POOL_SIZE, KeyedPool
from repro.ran import du as du_module
from repro.ran.cell import CellConfig
from repro.ran.du import DATA_QAM_ORDER, IDLE_PRB_AMPLITUDE, DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from tests.testbed import record_downlink, ssb_reference

CODECS = [
    CompressionConfig(iq_width=9),
    CompressionConfig(iq_width=4, comp_meth=MOD_COMP_METH),
]
_IDS = ["bfp9", "modcomp4"]

NUM_PRB = 106
N_SC = NUM_PRB * SAMPLES_PER_PRB
SLOT = symbol_time(0, 2, 0, 0)
BLOCK = ru_module._BLOCK_ROWS
RU_STREAM = 11 ^ (3 * 7919)  # RadioUnit(ru_id=3, seed=11)'s generator seed


def _request(ru, port, sections, first_symbol, prach=False):
    message = CPlaneMessage(
        direction=Direction.UPLINK,
        time=SLOT + first_symbol,
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


FULL_SLOT_ROWS = 4 * 14


def full_slot_ru(compression, seed=11):
    """An RU owing a whole slot: full-band data on four ports over all 14
    symbols (56 owed rows, seven blocks) and PRACH on port 0 over
    symbols 2-4."""
    ru = RadioUnit(
        ru_id=3,
        config=RuConfig(num_prb=NUM_PRB, n_antennas=4, compression=compression),
        seed=seed,
    )
    for port in range(4):
        _request(
            ru, port,
            [CPlaneSection(section_id=7, start_prb=0, num_prb=NUM_PRB,
                           num_symbols=14)],
            first_symbol=0,
        )
    _request(
        ru, 0,
        [CPlaneSection(section_id=1, start_prb=4, num_prb=12, num_symbols=3,
                       freq_offset=0)],
        first_symbol=2, prach=True,
    )
    return ru


def full_slot_items(ru, seed=6):
    """The 56 owed (time, port, air) plus a request-less port-4 item after
    every fifth one; every third owed item is noise-only."""
    rng = np.random.default_rng(seed)
    items = []
    for index, (time, port) in enumerate(ru.pending_uplink_symbols()):
        air = None
        if index % 3:
            air = 0.3 * (rng.normal(size=N_SC) + 1j * rng.normal(size=N_SC))
        items.append((time, port, air))
        if index % 5 == 4:
            items.append((time, 4, air))
    assert len(items) == FULL_SLOT_ROWS + 11
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
        replay = np.random.default_rng(RU_STREAM)
        n_sc = N_SC
        for time, port, air in items:
            signal = np.zeros(n_sc, dtype=np.complex128)
            if air is not None:
                signal += air
            signal += replay.normal(0, 2.0e-4, n_sc) + 1j * replay.normal(
                0, 2.0e-4, n_sc
            )
            grid = iq_to_int16(signal)
            expected = [[(7, 0, 60), (8, 90, 16)]]  # section 8 clipped to 106
            if port == 0 and symbol_of(time) < 12:
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
        """The block contract: items are pulled in order, request-less
        ones included, and when an item is pulled the generator stands
        where the draws of every *full* block of owed rows before it left
        it — never more than one block of air grids is alive (``run_slot``
        hands a generator)."""
        ru = full_slot_ru(compression)
        items = full_slot_items(ru)
        pulled = []

        def feed():
            for item in items:
                pulled.append(ru.rng.bit_generator.state["state"]["state"])
                yield item

        ru.build_uplink(feed())
        replay = np.random.default_rng(RU_STREAM)
        after_blocks = [replay.bit_generator.state["state"]["state"]]
        for _ in range(-(-FULL_SLOT_ROWS // BLOCK)):
            replay.normal(0, 2.0e-4, (BLOCK, 2, N_SC))
            after_blocks.append(replay.bit_generator.state["state"]["state"])
        assert len(set(after_blocks)) == 8  # 7 blocks of 8 rows
        owed_before = 0
        expected = []
        for _, port, _ in items:
            expected.append(after_blocks[owed_before // BLOCK])
            owed_before += 1 if port < 4 else 0  # port 4 has no request
        assert owed_before == FULL_SLOT_ROWS
        assert pulled == expected
        assert ru.rng.bit_generator.state["state"]["state"] == after_blocks[-1]

    def test_a_slot_longer_than_one_block_is_the_scalar_oracle(self, compression):
        """56 owed rows (4 ports x 14 symbols), request-less items
        interleaved, mixed ``None`` / array air, PRACH and data on one
        symbol: every payload is the scalar oracle of a grid drawn one
        vector at a time from a replayed generator."""
        ru = full_slot_ru(compression)
        items = full_slot_items(ru)
        packets = iter(ru.build_uplink(items))
        replay = np.random.default_rng(RU_STREAM)
        for time, port, air in items:
            if port >= 4:
                continue  # no request: no draw, no packet
            signal = np.zeros(N_SC, dtype=np.complex128)
            if air is not None:
                signal += air
            signal += replay.normal(0, 2.0e-4, N_SC) + 1j * replay.normal(
                0, 2.0e-4, N_SC
            )
            grid = iq_to_int16(signal)
            expected = [[(7, 0, NUM_PRB)]]
            if port == 0 and 2 <= symbol_of(time) < 5:
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
        assert ru.counters.uplane_sent == FULL_SLOT_ROWS + 3

    def test_a_wrong_length_air_raises_before_its_block_draws(self, compression):
        ru = full_slot_ru(compression)
        items = full_slot_items(ru)
        owed = [index for index, item in enumerate(items) if item[1] < 4]
        bad = owed[2 * BLOCK + 3]  # the fourth row of the third block
        items[bad] = items[bad][:2] + (np.ones(10, dtype=complex),)
        with pytest.raises(ValueError, match="air IQ has 10 subcarriers"):
            ru.build_uplink(iter(items))
        replay = np.random.default_rng(RU_STREAM)
        replay.normal(0, 2.0e-4, (2 * BLOCK, 2, N_SC))  # two blocks drawn
        assert ru.rng.bit_generator.state == replay.bit_generator.state
        assert ru._seq == {} and ru.counters.uplane_sent == 0

    def test_ru_without_request_builds_nothing(self, compression):
        ru = RadioUnit(
            ru_id=3, config=RuConfig(num_prb=NUM_PRB, compression=compression)
        )
        state = ru.rng.bit_generator.state
        assert ru.build_uplink([(symbol_time(0, 0, 0, 10), 0, None)]) == []
        assert ru.build_uplink([]) == []
        assert ru.rng.bit_generator.state == state  # no noise drawn
        assert ru.counters.uplane_sent == 0 and ru._seq == {}


def keyed_reference_grid(du, offset, symbol, port, allocations, ssb):
    """One downlink row as ``(num_prb, 24)`` int16, built alone from its
    key: the noise window and the symbol window the key selects in the
    DU's two pools, each downlink allocation on its layers' ports
    modulated and quantised by the float path, then the SSB."""
    key = scalar_mix64(du.seed, du.du_id, offset, symbol, port)
    n_sc = du.cell.num_prb * SAMPLES_PER_PRB
    noise_at = key % (POOL_SIZE - 2 * n_sc + 1)
    grid = du_module._IDLE_NOISE.samples[noise_at : noise_at + 2 * n_sc]
    grid = grid.astype(np.int16).reshape(du.cell.num_prb, 2 * SAMPLES_PER_PRB)
    symbols_at = (key >> 32) % (POOL_SIZE - n_sc + 1)
    symbols = du_module._DATA_SYMBOLS.samples[symbols_at : symbols_at + n_sc]
    modulator = QamModulator(DATA_QAM_ORDER)
    for allocation in allocations:
        if allocation.direction is not Direction.DOWNLINK:
            continue
        if port >= allocation.layers:
            continue
        start, end = allocation.prb_range
        grid[start:end] = iq_to_int16(
            modulator.modulate(
                symbols[start * SAMPLES_PER_PRB : end * SAMPLES_PER_PRB]
            ),
            backoff=DL_FIXED_POINT_BACKOFF,
        )
    if ssb and port == 0 and symbol in du.cell.ssb_symbols:
        ssb_start, ssb_end = du.cell.ssb_prb_range
        grid[ssb_start:ssb_end] = iq_to_int16(
            ssb_reference(du), backoff=DL_FIXED_POINT_BACKOFF
        )
    return grid


def loaded_du(compression, symbols_per_slot, seed=9, du_id=2, dl_layers=2):
    cell = CellConfig(
        pci=5, bandwidth_hz=40_000_000, n_antennas=2, max_dl_layers=2
    )
    du = DistributedUnit(
        du_id=du_id, cell=cell, symbols_per_slot=symbols_per_slot, seed=seed,
        compression=compression,
    )
    du.scheduler.add_ue("ue", dl_layers=dl_layers)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    return du


@pytest.mark.parametrize("compression", CODECS, ids=_IDS)
@pytest.mark.parametrize("symbols_per_slot", [1, 2, 14])
class TestDuSlotBuild:
    def test_every_payload_is_the_oracle_of_its_reference_grid(
        self, compression, symbols_per_slot
    ):
        du = loaded_du(compression, symbols_per_slot)
        sent = record_downlink(du)
        seen = 0
        for slot in range(3):  # slot 0 is the SSB slot
            uplane = [p for p in du.advance_slot(slot) if p.is_uplane]
            symbols = sorted({symbol_of(p.time) for p in uplane})
            assert len(symbols) == symbols_per_slot
            if slot == 0 and symbols_per_slot == 2:
                assert set(symbols) <= set(du.cell.ssb_symbols)
            # Packets leave symbol-major, port-minor.
            assert [(symbol_of(p.time), p.eaxc.ru_port) for p in uplane] == [
                (symbol, port) for symbol in symbols for port in (0, 1)
            ]
            for packet in uplane:
                (section,) = packet.message.sections
                grid = sent[(packet.time, packet.eaxc.ru_port)]
                assert section.num_prb == len(grid) == du.cell.num_prb
                assert section.payload == scalar_compress(
                    grid.tolist(), compression.iq_width, compression.comp_meth
                )
                seen += 1
        assert seen == 3 * symbols_per_slot * 2
        assert du.counters.dl_packets == seen

    @pytest.mark.parametrize("dl_layers", [1, 2])
    def test_grids_are_the_keyed_per_item_oracle(
        self, compression, symbols_per_slot, dl_layers
    ):
        """Each row, item by item, from its key alone: the scalar mix of
        (seed, du_id, slot offset, symbol, port) picks the noise and the
        symbol windows, and the float path modulates and quantises the
        allocations (on their layers' ports: one layer leaves port 1
        idle) and the SSB (slot 0 is the SSB slot)."""
        du = loaded_du(compression, symbols_per_slot, dl_layers=dl_layers)
        sent = record_downlink(du)
        granted = {}
        schedule = du.scheduler.schedule_slot
        du.scheduler.schedule_slot = lambda slot: granted.setdefault(
            slot, schedule(slot)
        )
        for slot in range(3):
            uplane = [p for p in du.advance_slot(slot) if p.is_uplane]
            assert len(uplane) == 2 * symbols_per_slot
            for packet in uplane:
                port = packet.eaxc.ru_port
                expected = keyed_reference_grid(
                    du, slot, symbol_of(packet.time), port, granted[slot],
                    ssb=slot == 0,
                )
                reference = sent[(packet.time, port)]
                assert reference.dtype == np.int16
                assert (reference == expected).all()
                (section,) = packet.message.sections
                assert section.payload == scalar_compress(
                    expected.tolist(), compression.iq_width, compression.comp_meth
                )
        assert {
            a.layers for a in granted[1] if a.direction is Direction.DOWNLINK
        } == {dl_layers}

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


def _rows_by_key(rows, slot):
    return {row: grid.tobytes() for row, grid in zip(rows, slot)}


class TestDuKeyedRows:
    """A downlink row is a pure function of its key (seed, du_id, slot
    offset, symbol, port): not of which other rows a slot builds, nor of
    their order."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        du_id=st.integers(1, 15),
        offset=st.integers(0, 2**40),
        order=st.permutations(range(28)),
    )
    def test_a_row_is_its_key_in_any_slot_and_any_order(
        self, seed, du_id, offset, order
    ):
        dus = {
            n: loaded_du(CODECS[0], n, seed=seed, du_id=du_id) for n in (2, 14)
        }
        sent = {n: record_downlink(du) for n, du in dus.items()}
        granted = {}
        schedule = dus[14].scheduler.schedule_slot
        dus[14].scheduler.schedule_slot = lambda slot: granted.setdefault(
            slot, schedule(slot)
        )
        for slot in range(2):  # the SSB slot, then a data slot
            for du in dus.values():
                du.advance_slot(slot)
        # The 2-symbol DU's rows are the 14-symbol DU's, byte for byte.
        assert len(sent[2]) == 8 and set(sent[2]) < set(sent[14])
        for key, grid in sent[2].items():
            assert grid.tobytes() == sent[14][key].tobytes()
        # A slot built in a permuted row order holds the same rows.
        du = dus[14]
        rows = [(symbol, port) for symbol in range(14) for port in (0, 1)]
        permuted = [rows[i] for i in order]
        allocations = [
            a for a in granted[1] if a.direction is Direction.DOWNLINK
        ]
        assert allocations
        for ssb in (False, True):
            built = _rows_by_key(rows, du._dl_slot(offset, rows, allocations, ssb))
            assert built == _rows_by_key(
                permuted, du._dl_slot(offset, permuted, allocations, ssb)
            )
            # Different keys, different rows: within the slot, at the
            # next offset, and on a DU of another seed or id.
            assert len(set(built.values())) == len(rows)
            for other, at in (
                (du, offset + 1),
                (loaded_du(CODECS[0], 14, seed=seed + 1, du_id=du_id), offset),
                (loaded_du(CODECS[0], 14, seed=seed, du_id=du_id % 15 + 1), offset),
            ):
                moved = _rows_by_key(rows, other._dl_slot(at, rows, allocations, ssb))
                assert all(moved[row] != built[row] for row in rows)

    def test_the_pools_are_one_draw_each_from_their_constant_seeds(self):
        """Idle noise is ``rint(N(0, σ))`` in int16 steps at the downlink
        drive level (σ ≈ 4.6); symbols are uniform 16-QAM indices."""
        sigma = IDLE_PRB_AMPLITUDE * INT16_SCALE * DL_FIXED_POINT_BACKOFF
        assert 4.58 < sigma < 4.59
        noise = du_module._IDLE_NOISE.samples
        assert (
            noise == np.rint(np.random.default_rng(1).normal(0, sigma, POOL_SIZE))
        ).all()
        assert abs(noise.std() / sigma - 1) < 0.01
        symbols = du_module._DATA_SYMBOLS.samples
        assert (
            symbols == np.random.default_rng(2).integers(0, DATA_QAM_ORDER, POOL_SIZE)
        ).all()

    def test_no_pool_is_built_before_the_first_slot(self, monkeypatch):
        from repro.eval import kit
        from repro.scale.build import build_groups

        for name in ("_IDLE_NOISE", "_DATA_SYMBOLS"):
            pool = getattr(du_module, name)
            monkeypatch.setattr(
                du_module, name, KeyedPool(pool._seed, pool._dtype, pool._draw)
            )
        (group,) = build_groups(kit.scenario(
            "lazy", 1, 1, [kit.cell("cell", 1, [kit.flow("dl", 20.0)])]
        ))
        assert du_module._IDLE_NOISE._samples is None
        assert du_module._DATA_SYMBOLS._samples is None
        group.network.run(1)
        assert du_module._IDLE_NOISE._samples is not None
        assert du_module._DATA_SYMBOLS._samples is not None
