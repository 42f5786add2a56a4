"""Differential tests: vectorized hot paths vs scalar references.

Every vectorized fast path in the fronthaul (BFP compress/decompress,
the batched DAS merge, the zero-copy U-plane parser) is pinned to a
deliberately naive pure-Python reference (:mod:`tests.conformance.reference`)
by asserting **byte-identical** output over hundreds of seeded cases and
Hypothesis-generated inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from tests.conformance import generators as gen
from tests.conformance.reference import (
    scalar_bits_needed,
    scalar_compress,
    scalar_decompress,
    scalar_exponent,
    scalar_merge,
    scalar_modcomp_scaler,
    scalar_pack_uplane,
    scalar_parse_uplane,
)
from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MOD_COMP_METH,
    NO_COMP_METH,
    BfpCompressor,
    CompressionConfig,
    codec_for,
)
from repro.fronthaul.modcomp import ModCompressor
from repro.fronthaul.cplane import CPlaneMessage
from repro.fronthaul.packet import parse_packet
from repro.fronthaul.timing import time_fields
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from tests.conformance.builders import uplane_packet
from tests.conftest import wire_shifts

#: Seeded sweep size per codec — the acceptance floor is 200.
N_CASES = 220

#: (iq_width, comp_meth) grid cycled through the seeded BFP sweeps.
_CONFIGS = [
    (9, BFP_COMP_METH),
    (14, BFP_COMP_METH),
    (8, BFP_COMP_METH),
    (12, BFP_COMP_METH),
    (16, NO_COMP_METH),
]

#: The modcomp grid: the three vendor widths plus the extremes.
_MODCOMP_CONFIGS = [(3,), (4,), (6,), (1,), (14,), (8,)]


def _assert_production_merge(sections, reference: bytes, case: str) -> None:
    """``UPlaneSection.merged`` — the merge the DAS runs — against the
    scalar reference, over both kinds of operand: sections unpacked from
    packed bytes (the ``parse_wire`` lane) and sections still riding
    their encoder's parse."""
    wire = [UPlaneSection.unpack(s.pack(), 0)[0] for s in sections]
    assert all(s._parse is None for s in wire)
    assert all(s._parse is not None for s in sections)
    for lane, operands in (("wire", wire), ("riding", sections)):
        merged = UPlaneSection.merged(operands)
        assert bytes(merged.payload) == reference, f"{case}: {lane}"


def _samples_for(index: int, seed_base: int) -> np.ndarray:
    rng = np.random.default_rng(seed_base + index)
    n_prbs = int(rng.integers(1, 17))
    amplitude = int(rng.choice([1, 15, 300, 4000, 32767]))
    samples = rng.integers(
        -amplitude - 1, amplitude + 1, size=(n_prbs, 24), dtype=np.int64
    )
    return np.clip(samples, -32768, 32767).astype(np.int16)


def _case(index: int):
    """Deterministic BFP case ``index``: (config, samples)."""
    width, meth = _CONFIGS[index % len(_CONFIGS)]
    return (
        CompressionConfig(iq_width=width, comp_meth=meth),
        _samples_for(index, 1000),
    )


def _modcomp_case(index: int):
    """Deterministic modcomp case ``index``: (config, samples)."""
    (width,) = _MODCOMP_CONFIGS[index % len(_MODCOMP_CONFIGS)]
    return (
        CompressionConfig(iq_width=width, comp_meth=MOD_COMP_METH),
        _samples_for(index, 2000),
    )


class TestBfpCodecDifferential:
    def test_compress_matches_scalar_reference(self):
        for index in range(N_CASES):
            config, samples = _case(index)
            vectorized = BfpCompressor(config).compress(samples)
            reference = scalar_compress(
                samples.tolist(), config.iq_width, config.comp_meth
            )
            assert vectorized == reference, f"case {index}: {config}"

    def test_decompress_matches_scalar_reference(self):
        for index in range(N_CASES):
            config, samples = _case(index)
            payload = BfpCompressor(config).compress(samples)
            vectorized = BfpCompressor(config).decompress(
                payload, len(samples)
            )
            reference = scalar_decompress(
                payload, len(samples), config.iq_width, config.comp_meth
            )
            assert vectorized.tolist() == reference, f"case {index}"

    def test_merge_matches_scalar_reference(self):
        for index in range(N_CASES):
            config, samples = _case(index)
            rng = np.random.default_rng(5000 + index)
            # Every 11th case merges a single operand (a one-RU DAS).
            n_ops = int(rng.integers(2, 5)) if index % 11 else 1
            operands, sections = [], []
            for op in range(n_ops):
                shifted = np.clip(
                    samples.astype(np.int64)
                    + rng.integers(-50, 51, size=samples.shape),
                    -32768,
                    32767,
                ).astype(np.int16)
                operands.append(BfpCompressor(config).compress(shifted))
                sections.append(UPlaneSection.from_samples(0, 0, shifted, config))
            reference = scalar_merge(
                operands, len(samples), config.iq_width, config.comp_meth
            )
            _assert_production_merge(sections, reference, f"case {index}")

    def test_exponents_match_scalar_reference(self):
        for index in range(N_CASES):
            config, samples = _case(index)
            if config.comp_meth != BFP_COMP_METH:
                continue
            vectorized = wire_shifts(BfpCompressor(config), samples)
            reference = [
                scalar_exponent(row, config.iq_width)
                for row in samples.tolist()
            ]
            assert vectorized.tolist() == reference, f"case {index}"

    def test_bits_needed_agrees_at_boundaries(self):
        values = [0, 1, -1, 2, -2, 255, 256, -255, -256, -257, 32767, -32768]
        for value in values:
            vectorized = wire_shifts(
                BfpCompressor(CompressionConfig()),
                np.full((1, 24), value, dtype=np.int16),
            )
            assert int(vectorized[0]) == max(
                scalar_bits_needed(value) - 9, 0
            ), value


class TestModCompCodecDifferential:
    """The vectorized second codec against the scalar reference."""

    def test_compress_matches_scalar_reference(self):
        for index in range(N_CASES):
            config, samples = _modcomp_case(index)
            vectorized = ModCompressor(config).compress(samples)
            reference = scalar_compress(
                samples.tolist(), config.iq_width, config.comp_meth
            )
            assert vectorized == reference, f"case {index}: {config}"

    def test_decompress_matches_scalar_reference(self):
        for index in range(N_CASES):
            config, samples = _modcomp_case(index)
            payload = ModCompressor(config).compress(samples)
            vectorized = ModCompressor(config).decompress(
                payload, len(samples)
            )
            reference = scalar_decompress(
                payload, len(samples), config.iq_width, config.comp_meth
            )
            assert vectorized.tolist() == reference, f"case {index}"

    def test_merge_matches_scalar_reference(self):
        for index in range(N_CASES):
            config, samples = _modcomp_case(index)
            rng = np.random.default_rng(6000 + index)
            # Every 11th case merges a single operand (a one-RU DAS).
            n_ops = int(rng.integers(2, 5)) if index % 11 else 1
            operands, sections = [], []
            for op in range(n_ops):
                shifted = np.clip(
                    samples.astype(np.int64)
                    + rng.integers(-50, 51, size=samples.shape),
                    -32768,
                    32767,
                ).astype(np.int16)
                operands.append(ModCompressor(config).compress(shifted))
                sections.append(UPlaneSection.from_samples(0, 0, shifted, config))
            reference = scalar_merge(
                operands, len(samples), config.iq_width, config.comp_meth
            )
            _assert_production_merge(sections, reference, f"case {index}")

    def test_scalers_match_scalar_reference(self):
        for index in range(N_CASES):
            config, samples = _modcomp_case(index)
            vectorized = wire_shifts(ModCompressor(config), samples)
            reference = [
                scalar_modcomp_scaler(row, config.iq_width)
                for row in samples.tolist()
            ]
            assert vectorized.tolist() == reference, f"case {index}"


class TestUPlaneParserDifferential:
    def test_parse_matches_scalar_reference(self):
        for index in range(N_CASES):
            config, samples = _case(index)
            payload = BfpCompressor(config).compress(samples)
            packet = uplane_packet(
                start_prb=index % 64,
                num_prb=len(samples),
                compression=config,
                payload=payload,
                seq=index % 256,
            )
            wire = packet.message.pack()
            parsed = scalar_parse_uplane(wire, carrier_num_prb=106)
            vector = UPlaneMessage.unpack(wire, carrier_num_prb=106)
            assert parsed["frame"] == time_fields(vector.time)[0]
            assert parsed["direction"] == int(vector.direction)
            assert len(parsed["sections"]) == len(vector.sections)
            for ref, vec in zip(parsed["sections"], vector.sections):
                assert ref["start_prb"] == vec.start_prb
                assert ref["num_prb"] == vec.num_prb
                assert bytes(ref["payload"]) == vec.payload_bytes()
            # And the scalar re-serializer closes the loop byte-exactly.
            assert scalar_pack_uplane(parsed) == wire

    @given(message=gen.uplane_messages())
    @settings(max_examples=60, deadline=None)
    def test_parse_matches_scalar_on_generated_messages(self, message):
        wire = message.pack()
        parsed = scalar_parse_uplane(wire, carrier_num_prb=1024)
        assert scalar_pack_uplane(parsed) == wire
        vector = UPlaneMessage.unpack(wire, carrier_num_prb=1024)
        assert [s["payload"] for s in parsed["sections"]] == [
            s.payload_bytes() for s in vector.sections
        ]


class TestHypothesisRoundTrips:
    """pack -> unpack -> pack is byte-identical for every codec."""

    @given(samples=gen.iq_samples(), config=gen.compression_configs())
    @settings(max_examples=80, deadline=None)
    def test_codec_round_trip_is_stable(self, samples, config):
        compressor = codec_for(config)
        payload = compressor.compress(samples)
        decoded = compressor.decompress(payload, len(samples))
        # Lossy once, stable forever: recompressing the decode must
        # reproduce the wire bytes exactly.
        assert compressor.compress(decoded) == payload
        assert scalar_compress(
            decoded.tolist(), config.iq_width, config.comp_meth
        ) == payload

    @given(samples=gen.iq_samples(), config=gen.modcomp_configs())
    @settings(max_examples=80, deadline=None)
    def test_modcomp_codec_round_trip_is_stable(self, samples, config):
        compressor = ModCompressor(config)
        payload = compressor.compress(samples)
        decoded = compressor.decompress(payload, len(samples))
        assert compressor.compress(decoded) == payload
        assert scalar_compress(
            decoded.tolist(), config.iq_width, config.comp_meth
        ) == payload

    @given(message=gen.uplane_messages())
    @settings(max_examples=60, deadline=None)
    def test_uplane_round_trip(self, message):
        wire = message.pack()
        again = UPlaneMessage.unpack(wire, carrier_num_prb=1024)
        assert again.pack() == wire

    @given(message=gen.cplane_messages())
    @settings(max_examples=60, deadline=None)
    def test_cplane_round_trip(self, message):
        wire = message.pack()
        again = CPlaneMessage.unpack(wire)
        assert again.pack() == wire

    @given(packet=gen.fronthaul_packets())
    @settings(max_examples=60, deadline=None)
    def test_full_packet_round_trip(self, packet):
        wire = packet.pack()
        again = parse_packet(wire, carrier_num_prb=1024)
        assert again.pack() == wire
        assert again.eth.src == packet.eth.src
        assert again.ecpri.seq_id == packet.ecpri.seq_id
        assert again.eaxc.to_int() == packet.eaxc.to_int()


class TestScalarReferenceSelfChecks:
    """The reference must fail loudly on the inputs the codec rejects."""

    def test_reference_rejects_oversized_exponent(self):
        # Unreachable from int16 sources (16 - width <= 15 always), so it
        # takes a deliberately wider Python int to trip the wire bound.
        with pytest.raises(ValueError):
            scalar_compress([[1 << 20] * 24], 2)

    def test_reference_rejects_wrong_row_width(self):
        with pytest.raises(ValueError):
            scalar_compress([[0] * 23], 9)

    def test_reference_rejects_truncated_payload(self):
        with pytest.raises(ValueError):
            scalar_decompress(b"\x00" * 10, 2, 9)
