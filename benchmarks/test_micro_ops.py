"""Micro-benchmarks: real Python cost of the heavyweight A4 operations.

The latency *model* (Figure 15b) represents the paper's C/DPDK
implementation; these benches measure what the same operations cost in
this Python implementation and verify the model's *relative* ordering
(exponent read << decompress < merge).

Since the vectorization PR, the wire codec is array-at-a-time; the
``test_speedup_*`` benches here compare it against the seed's per-PRB
reference implementation (kept below, verbatim) and assert the speedup
floor (>=5x codec, >=3x merge).
"""

import time

import numpy as np
import pytest

from repro.core.actions import ActionContext, PacketCache
from repro.fronthaul import compression
from repro.fronthaul.compression import (
    SAMPLES_PER_PRB,
    BfpCompressor,
    clear_codec_memo,
    pack_mantissas,
)
from repro.fronthaul.uplane import UPlaneSection

N_PRB = 273  # one full-band 100 MHz symbol


# -- seed reference implementation (per-PRB loops), the speedup baseline ----


def _bit_shifts(width: int) -> np.ndarray:
    """MSB-first bit positions of an ``width``-bit mantissa."""
    return np.arange(width - 1, -1, -1, dtype=np.uint32)


def _pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned integers < 2**width into a big-endian bitstream."""
    shifts = _bit_shifts(width)
    # Each row holds the bits of one value, MSB first.
    bits = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1)).tobytes()


def _unpack_bits(data: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`; returns unsigned integers."""
    needed_bits = count * width
    raw = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(raw)[:needed_bits]
    bits = bits.reshape(count, width).astype(np.uint32)
    shifts = _bit_shifts(width)
    return (bits << shifts[None, :]).sum(axis=1)


def _sign_extend(values: np.ndarray, width: int) -> np.ndarray:
    sign_bit = np.uint32(1) << np.uint32(width - 1)
    signed = values.astype(np.int64)
    signed -= (values & sign_bit).astype(np.int64) << 1
    return signed


def _reference_compress(compressor: BfpCompressor, samples: np.ndarray) -> bytes:
    """The seed's per-PRB compress loop, kept verbatim as the baseline."""
    exponents, mantissas = compressor.compress_array(samples)
    width = compressor.config.iq_width
    mask = (1 << width) - 1
    out = bytearray()
    unsigned = (mantissas & mask).astype(np.uint32)
    for prb_index in range(unsigned.shape[0]):
        out.append(int(exponents[prb_index]) & 0x0F)
        out.extend(_pack_bits(unsigned[prb_index], width))
    return bytes(out)


def _reference_parse_wire(compressor: BfpCompressor, payload: bytes, n_prbs: int):
    """The seed's per-PRB parse loop, kept verbatim as the baseline."""
    width = compressor.config.iq_width
    prb_bytes = compressor.config.prb_payload_bytes()
    exponents = np.empty(n_prbs, dtype=np.uint8)
    mantissas = np.empty((n_prbs, 24), dtype=np.int64)
    for prb_index in range(n_prbs):
        offset = prb_index * prb_bytes
        exponents[prb_index] = payload[offset] & 0x0F
        packed = payload[offset + 1 : offset + prb_bytes]
        unsigned = _unpack_bits(packed, 24, width)
        mantissas[prb_index] = _sign_extend(unsigned, width)
    return exponents, mantissas


def _reference_merge(sections) -> UPlaneSection:
    """The seed's merge: one decompress round-trip per operand."""
    first = sections[0]
    compressor = BfpCompressor(first.compression)
    total = np.zeros((first.num_prb, 24), dtype=np.int64)
    for section in sections:
        exponents, mantissas = _reference_parse_wire(
            compressor, section.payload_bytes(), section.num_prb
        )
        total += compressor.decompress_array(exponents, mantissas)
    merged = np.clip(total, -32768, 32767).astype(np.int16)
    return UPlaneSection.from_samples(
        section_id=first.section_id,
        start_prb=first.start_prb,
        samples=merged,
        compression=first.compression,
    )


def _reference_pack_mantissas(mantissas: np.ndarray, width: int) -> np.ndarray:
    """PR 19's bit-tensor ``pack_mantissas``, kept verbatim — the kernel
    the uint64 word lanes retired, and the one reference here: the
    big-endian int16 bytes of a mantissa *are* its 16 two's-complement
    bits MSB first, so one ``np.unpackbits`` over the byte view, the last
    ``width`` columns, and one ``np.packbits`` emit every PRB's block."""
    big_endian = np.asarray(mantissas, dtype=">i2")
    bits = np.unpackbits(big_endian.view(np.uint8), axis=1).reshape(
        len(big_endian), 2 * SAMPLES_PER_PRB, 16
    )
    return np.packbits(
        bits[:, :, 16 - width :].reshape(
            len(big_endian), 2 * SAMPLES_PER_PRB * width
        ),
        axis=1,
    )


def _best_of(fn, *args, repeats=15, cold=False):
    """Best-of-N wall time; ``cold=True`` clears the codec memo per run."""
    fn(*args)  # warm up allocators / JIT-able caches
    best = float("inf")
    for _ in range(repeats):
        if cold:
            clear_codec_memo()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


# -- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(0)
    return rng.integers(-20000, 20000, size=(N_PRB, 24)).astype(np.int16)


@pytest.fixture(scope="module")
def wire(samples):
    return BfpCompressor().compress(samples)


# -- pytest-benchmark latency benches ---------------------------------------


def test_bfp_compress_full_band(benchmark, samples):
    compressor = BfpCompressor()
    benchmark(compressor.compress, samples)


def test_bfp_decompress_full_band(benchmark, wire):
    compressor = BfpCompressor()
    benchmark(compressor.decompress, wire, N_PRB)


def test_exponent_read_full_band(benchmark, wire):
    """Algorithm 1's fast path: exponents without decompression."""
    compressor = BfpCompressor()
    benchmark(compressor.read_exponents, wire, N_PRB)


def test_exponent_read_much_cheaper_than_decompress(samples, wire):
    compressor = BfpCompressor()
    clear_codec_memo()
    read = _best_of(compressor.read_exponents, wire, N_PRB)
    decompress = _best_of(compressor.decompress, wire, N_PRB, cold=True)
    assert read * 5 < decompress


def test_pack_mantissas_512_prbs(benchmark):
    """One codec block through the uint64 word-lane kernel, byte-equal to
    the bit tensor it replaced at every size class the slot path packs
    (a merge's 51 PRBs, a block, a 14-symbol slot).  No timing floor: the
    shared runner cannot hold one (DESIGN.md has the per-size table)."""
    rng = np.random.default_rng(1)
    for width in (1, 4, 9, 14, 16):
        low = -(1 << (width - 1))
        for n_prbs in (51, 512, 3900):
            mantissas = rng.integers(low, -low, size=(n_prbs, 24)).astype(np.int16)
            mantissas[0], mantissas[1], mantissas[2] = low, -low - 1, -1
            packed = pack_mantissas(mantissas, width)
            reference = _reference_pack_mantissas(mantissas, width)
            assert packed.dtype == reference.dtype
            assert packed.shape == reference.shape
            assert packed.tobytes() == reference.tobytes(), (width, n_prbs)
    benchmark(pack_mantissas, mantissas[:512] >> 7, 9)  # the 16-bit draw as 9-bit


def test_float_stage_runs_once_per_block_of_eight_rows(monkeypatch):
    """Count, not time: a 56-row RU slot draws noise and quantises
    ceil(56 / 8) = 7 times, a 14-symbol x 4-port DU slot quantises 7
    times (its draws stay per row: ``normal`` and ``integers`` alternate
    on one generator)."""
    from repro.fronthaul.compression import CompressionConfig
    from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
    from repro.fronthaul.ecpri import EAxCId
    from repro.fronthaul.packet import make_packet
    from repro.fronthaul.timing import SymbolTime
    from repro.ran import du as du_module
    from repro.ran import ru as ru_module
    from repro.ran.cell import CellConfig
    from repro.ran.traffic import ConstantBitrateFlow

    calls = []

    def counting(name, inner):
        def proxy(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return proxy

    class CountedDraws:
        """A generator proxy: ``numpy.random.Generator`` is immutable."""

        def __init__(self, rng):
            self._rng = rng

        def normal(self, *args):
            calls.append("normal")
            return self._rng.normal(*args)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    for module in (ru_module, du_module):
        monkeypatch.setattr(
            module, "iq_to_int16", counting("iq_to_int16", module.iq_to_int16)
        )

    ru = ru_module.RadioUnit(
        ru_id=1, config=ru_module.RuConfig(num_prb=106, n_antennas=4)
    )
    for port in range(4):
        request = CPlaneMessage(
            direction=Direction.UPLINK,
            time=SymbolTime(0, 2, 0, 0),
            sections=[CPlaneSection(section_id=1, start_prb=0, num_prb=106,
                                    num_symbols=14)],
            compression=CompressionConfig(),
        )
        ru.receive(make_packet(ru.du_mac, ru.mac, request, eaxc=EAxCId(0, ru_port=port)))
    ru.rng = CountedDraws(ru.rng)
    owed = ru.pending_uplink_symbols()
    assert len(owed) == 56
    assert len(ru.build_uplink((time, port, None) for time, port in owed)) == 56
    assert calls.count("normal") == calls.count("iq_to_int16") == 7

    del calls[:]
    cell = CellConfig(pci=1, bandwidth_hz=40_000_000, n_antennas=4, max_dl_layers=2)
    du = du_module.DistributedUnit(du_id=1, cell=cell, symbols_per_slot=None)
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    du.rng = CountedDraws(du.rng)
    assert sum(p.is_uplane for p in du.advance_slot(1)) == 56
    assert calls.count("iq_to_int16") == 7 and calls.count("normal") == 56


def test_chain_stage_builds_no_event_objects_once_warm(monkeypatch):
    """Count, not time: after one warm burst, 64 packets through a
    12-stage pass-through chain construct no ActionEvent and — obs on,
    every packet sampled — no SpanEvent: each action is a shared value."""
    from repro.core import actions
    from repro.core.actions import ActionEvent
    from repro.core.chain import MiddleboxChain
    from repro.core.middlebox import Middlebox
    from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
    from repro.fronthaul.ethernet import MacAddress
    from repro.fronthaul.packet import make_packet
    from repro.fronthaul.timing import SymbolTime
    from repro.fronthaul.uplane import UPlaneMessage
    from repro.obs import Observability, SpanEvent

    section = UPlaneSection.from_samples(
        0, 0, np.zeros((51, 24), dtype=np.int16)
    )

    def burst():
        out = []
        for symbol in range(32):
            time = SymbolTime(0, 0, 0, symbol % 14)
            for message in (
                CPlaneMessage(direction=Direction.DOWNLINK, time=time,
                              sections=[CPlaneSection(0, 0, 51)]),
                UPlaneMessage(direction=Direction.DOWNLINK, time=time,
                              sections=[section]),
            ):
                out.append(make_packet(
                    MacAddress.from_int(1), MacAddress.from_int(2), message
                ))
        return out

    for obs in (Observability(), Observability(enabled=True, sample_every=1)):
        chain = MiddleboxChain(
            [Middlebox(name=f"pass{stage}", obs=obs) for stage in range(12)],
            obs=obs,
        )
        chain.process_downlink(burst())
        built = []
        for cls in (ActionEvent, SpanEvent):
            def counting(self, *args, _inner=cls.__init__, _name=cls.__name__):
                built.append(_name)
                _inner(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        packets = burst()
        assert len(packets) == 64
        assert len(chain.process_downlink(packets)) == 64
        assert built == []
        # The counters do count: an action never seen builds one of each.
        monkeypatch.setattr(actions, "_EVENTS", {})
        actions.ActionTrace().record(actions.ActionKind.ROUTE, 50.0)
        assert sorted(built) == ["ActionEvent", "SpanEvent"]
        monkeypatch.undo()
        if obs.enabled:
            spans = obs.recorder.spans()
            assert len(spans) == 2 * 64 * 12
            assert all(span.events[0] is spans[0].events[0] for span in spans)


def test_span_lane_builds_no_span_objects_until_read(monkeypatch):
    """Count, not time: a 4-cell live_churn-shaped run (prb_monitor + das
    chains, stream and conformance on, every packet sampled) records,
    drains, ships and folds 2 epochs of spans through the in-process pool
    without constructing a PacketSpan or SpanKey; reading the
    coordinator's recorder builds exactly one of each per span."""
    from repro.obs.recorder import PacketSpan, SpanKey
    from repro.scale import ScenarioSpec, WorkerPool

    chain = [
        {"stage": "prb_monitor", "name": "prb_monitor"},
        {"stage": "das", "name": "das"},
    ]
    spec = ScenarioSpec.from_dict({
        "name": "span-rows",
        "slots": 10,
        "epoch_slots": 5,
        "obs": {
            "enabled": True, "stream": True, "conformance": True,
            "sample_every": 1,
        },
        "cells": [
            {
                "name": f"live{pci}",
                "pci": pci,
                "bandwidth_hz": 20e6,
                "rus": [{"name": f"live{pci}-ru1", "n_antennas": 2}],
                "ues": [{"ue_id": f"live{pci}-ue1", "flows": [
                    {"kind": "cbr", "rate_mbps": 40.0, "direction": "dl"},
                    {"kind": "cbr", "rate_mbps": 40.0, "direction": "ul"},
                ]}],
                "chain": chain,
            }
            for pci in range(1, 5)
        ],
    })
    built = []
    for cls in (PacketSpan, SpanKey):
        def counting(self, *args, _inner=cls.__init__, _name=cls.__name__,
                     **kwargs):
            built.append(_name)
            _inner(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    with WorkerPool(spec, workers=0) as pool:
        pool.begin()
        assert not pool.advance_epoch()
        assert pool.advance_epoch()
        stream = pool.telemetry
        assert stream.epochs == 2 and stream.spans_seen > 0
        assert built == []
        spans = stream.recorder.spans()
    assert len(spans) == stream.spans_seen
    assert sorted(built) == (
        ["PacketSpan"] * len(spans) + ["SpanKey"] * len(spans)
    )


def _count_kernels(monkeypatch):
    """The calls of the two mantissa kernels, in order."""
    calls = []

    def counted(name, inner):
        def proxy(array, width):
            calls.append(name)
            return inner(array, width)

        return proxy

    for name in ("pack_mantissas", "unpack_mantissas"):
        monkeypatch.setattr(
            compression, name, counted(name, getattr(compression, name))
        )
    return calls


def test_single_operand_merge_runs_no_codec(monkeypatch, samples):
    """A one-RU DAS merge forwards the operand's pending bytes, and an
    encode packs nothing until its bytes are read: count, not time."""
    eager = BfpCompressor().compress(samples)
    calls = _count_kernels(monkeypatch)
    operand = UPlaneSection.from_samples(0, 0, samples)
    assert calls == []
    merged = ActionContext(PacketCache()).merge_iq([operand])
    assert calls == [] and merged._pending is operand._pending
    # Either section's first read packs the one pass; the other reads the
    # same bytes object.
    assert merged.payload == eager and calls == ["pack_mantissas"]
    assert operand.payload is merged.payload and calls == ["pack_mantissas"]
    # Two operands still sum once, unpack nothing, and pack when read.
    summed = ActionContext(PacketCache()).merge_iq([operand, operand])
    assert calls == ["pack_mantissas"]
    summed.pack()
    assert calls == ["pack_mantissas"] * 2


def test_uplink_fan_in_packs_only_what_is_read(monkeypatch):
    """Count, not time: a ul_das_fanout-shaped cell (40 MHz, 8 RUs into a
    partial-merge DAS behind a PRB monitor and a spectrum sensor).  The
    monitor and the sensor read riding exponents, the DAS merges riding
    parses and every RU decodes nothing, so no RU uplink pass and no DU
    downlink pass is ever packed; a merged pass packs once, when the DU
    hashes it.  With a WireValidator at both ingress taps and a
    ConformanceTap behind the DAS, every pass packs exactly once."""
    from repro.apps import (
        DasMiddlebox,
        PrbMonitorMiddlebox,
        SpectrumSensorMiddlebox,
    )
    from repro.conformance import ConformanceTap, WireValidator
    from repro.eval import kit
    from repro.ran.du import DistributedUnit
    from repro.ran.ru import RadioUnit

    passes, packs, built = [], [], {"ru": set(), "du": set()}

    def recorded(self, ranges, _inner=compression._PrbCodec.encode_ranges):
        encoded = _inner(self, ranges)
        if encoded:  # one pass per call, shared by its ranges
            passes.append(encoded[0][1]._pass)
        return encoded

    def packed(encode_pass):
        return isinstance(encode_pass[1], bytes)

    def counted_pack(self, parse, _inner=compression._PrbCodec.pack):
        packs.append(parse)
        return _inner(self, parse)

    def recording(owner, name, side):
        inner = getattr(owner, name)

        def proxy(self, *args, **kwargs):
            packets = inner(self, *args, **kwargs)
            built[side].update(
                id(section._pending._pass)
                for packet in packets if packet.is_uplane
                for section in packet.message.sections
            )
            return packets

        monkeypatch.setattr(owner, name, proxy)

    monkeypatch.setattr(compression._PrbCodec, "encode_ranges", recorded)
    monkeypatch.setattr(compression._PrbCodec, "pack", counted_pack)
    recording(RadioUnit, "build_uplink", "ru")
    recording(DistributedUnit, "advance_slot", "du")

    def run(validate: bool):
        del passes[:], packs[:]
        for ids in built.values():
            ids.clear()
        du, rus = kit.endpoints(kit.cell(
            "venue", 1, [kit.flow("dl", 40.0), kit.flow("ul", 40.0)],
            rus=kit.radios(8, 1), bandwidth_hz=40_000_000,
        ))
        chain = [
            PrbMonitorMiddlebox(carrier_num_prb=du.cell.num_prb),
            SpectrumSensorMiddlebox(carrier_num_prb=du.cell.num_prb),
            DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus],
                         partial_merge=True),
        ]
        validator = None
        if validate:
            validator = WireValidator(carrier_num_prb=du.cell.num_prb)
            chain.append(ConformanceTap(validator))
        network = kit.network([du], rus, chain, validator=validator)
        while not du.counters.ul_packets:  # through the first uplink slot
            network.run_slot()
        return du, {
            side: [p for p in passes if id(p) in built[side]] for side in built
        }

    for validate in (False, True):
        du, sides = run(validate)
        assert len(sides["ru"]) == 8 and sides["du"]
        merged = len(passes) - len(sides["ru"]) - len(sides["du"])
        if validate:
            assert all(map(packed, passes))
            assert len(packs) == len(passes)
        else:
            assert not any(packed(p) for side in sides.values() for p in side)
            hashed = sum(len(r.sections) for r in du.uplink_receptions)
            assert 0 < len(packs) == merged == hashed


def test_iq_merge_4_operands(benchmark, samples):
    """The DAS uplink merge of four RUs (one stacked decompress, one sum,
    one recompress since the vectorization PR)."""
    sections = [
        UPlaneSection.from_samples(0, 0, samples) for _ in range(4)
    ]

    def merge():
        ctx = ActionContext(PacketCache())
        return ctx.merge_iq(sections)

    benchmark(merge)


def test_aligned_prb_copy(benchmark, samples):
    """RU sharing's aligned path: a byte-range copy, no codec."""
    source = UPlaneSection.from_samples(0, 0, samples[:106])
    dest = UPlaneSection.from_samples(
        0, 0, np.zeros((273, 24), dtype=np.int16)
    )

    def copy():
        ctx = ActionContext(PacketCache())
        return ctx.copy_prbs(source, dest, 0, 100, 106, aligned=True)

    benchmark(copy)


def test_misaligned_prb_copy(benchmark, samples):
    """RU sharing's misaligned path: decompress + move + recompress."""
    source = UPlaneSection.from_samples(0, 0, samples[:106])
    dest = UPlaneSection.from_samples(
        0, 0, np.zeros((273, 24), dtype=np.int16)
    )

    def copy():
        ctx = ActionContext(PacketCache())
        return ctx.copy_prbs(source, dest, 0, 100, 106, aligned=False)

    benchmark(copy)


def test_full_packet_roundtrip(benchmark, samples, du_mac=None):
    """Serialize + parse one full-band U-plane frame (the per-packet
    overhead every pass-through middlebox pays in this implementation)."""
    from repro.fronthaul.cplane import Direction
    from repro.fronthaul.ethernet import MacAddress
    from repro.fronthaul.packet import make_packet, parse_packet
    from repro.fronthaul.timing import SymbolTime
    from repro.fronthaul.uplane import UPlaneMessage

    section = UPlaneSection.from_samples(0, 0, samples)
    packet = make_packet(
        MacAddress.from_int(1), MacAddress.from_int(2),
        UPlaneMessage(direction=Direction.DOWNLINK,
                      time=SymbolTime(0, 0, 0, 0), sections=[section]),
    )
    wire_bytes = packet.pack()
    benchmark(parse_packet, wire_bytes, N_PRB)


def test_replicate_to_5_rus(benchmark, samples):
    """DAS downlink fan-out: clone + re-serialize one symbol for 5 RUs.

    The zero-copy pack path means the clones reuse the original payload
    bytes instead of re-running the codec per copy."""
    from repro.fronthaul.cplane import Direction
    from repro.fronthaul.ethernet import MacAddress
    from repro.fronthaul.packet import make_packet
    from repro.fronthaul.timing import SymbolTime
    from repro.fronthaul.uplane import UPlaneMessage

    section = UPlaneSection.from_samples(0, 0, samples)
    packet = make_packet(
        MacAddress.from_int(1), MacAddress.from_int(2),
        UPlaneMessage(direction=Direction.DOWNLINK,
                      time=SymbolTime(0, 0, 0, 0), sections=[section]),
    )

    def fan_out():
        ctx = ActionContext(PacketCache())
        copies = ctx.replicate(packet, 4)
        return [p.pack() for p in [packet] + copies]

    benchmark(fan_out)


# -- speedup floors vs the seed implementation --------------------------------


def test_speedup_full_band_compress(samples):
    """Vectorized compress must be >=5x the seed per-PRB loop."""
    compressor = BfpCompressor()
    reference = _best_of(_reference_compress, compressor, samples)
    optimized = _best_of(compressor.compress, samples, cold=True)
    assert _reference_compress(compressor, samples) == compressor.compress(
        samples
    ), "optimized compress must be byte-identical to the seed"
    speedup = reference / optimized
    assert speedup >= 5.0, f"compress speedup {speedup:.1f}x below 5x floor"


def test_speedup_full_band_parse(samples, wire):
    """Vectorized parse must be >=5x the seed per-PRB loop."""
    compressor = BfpCompressor()
    reference = _best_of(_reference_parse_wire, compressor, wire, N_PRB)
    optimized = _best_of(compressor.parse_wire, wire, N_PRB, cold=True)
    ref_exp, ref_mant = _reference_parse_wire(compressor, wire, N_PRB)
    opt_exp, opt_mant = compressor.parse_wire(wire, N_PRB)
    assert (ref_exp == opt_exp).all() and (ref_mant == opt_mant).all()
    speedup = reference / optimized
    assert speedup >= 5.0, f"parse speedup {speedup:.1f}x below 5x floor"


def test_speedup_iq_merge_4_operands(samples):
    """Batched 4-RU merge must be >=3x the seed per-section round-trips."""
    rng = np.random.default_rng(7)
    sections = [
        UPlaneSection.from_samples(
            0, 0,
            rng.integers(-8000, 8000, size=(N_PRB, 24)).astype(np.int16),
        )
        for _ in range(4)
    ]

    def optimized_merge():
        return ActionContext(PacketCache()).merge_iq(sections)

    reference = _best_of(_reference_merge, sections)
    optimized = _best_of(optimized_merge, cold=True)
    assert (
        _reference_merge(sections).payload_bytes()
        == optimized_merge().payload_bytes()
    ), "batched merge must be byte-identical to the seed merge"
    speedup = reference / optimized
    assert speedup >= 3.0, f"merge speedup {speedup:.1f}x below 3x floor"
