"""Block Floating Point compression tests (the Algorithm 1 substrate)."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.fronthaul.compression import (
    MAX_WIRE_EXPONENT,
    NO_COMP_METH,
    SAMPLES_PER_PRB,
    BfpCompressor,
    CompressionConfig,
    clear_codec_memo,
    codec_memo_stats,
)
from repro.fronthaul.uplane import UPlaneSection
from tests.conformance.reference import scalar_exponent
from tests.conftest import wire_shifts

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_bfp.json"


class TestCompressionConfig:
    def test_byte_roundtrip(self):
        config = CompressionConfig(iq_width=9)
        assert CompressionConfig.from_byte(config.to_byte()) == config

    def test_uncompressed_byte_roundtrip(self):
        config = CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)
        assert CompressionConfig.from_byte(config.to_byte()) == config

    def test_prb_payload_bytes_bfp9(self):
        # Figure 2: 9-bit mantissas -> 27 bytes of IQ + 1 exponent byte.
        assert CompressionConfig(iq_width=9).prb_payload_bytes() == 28

    def test_prb_payload_bytes_bfp14(self):
        assert CompressionConfig(iq_width=14).prb_payload_bytes() == 1 + 42

    def test_prb_payload_bytes_uncompressed(self):
        config = CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)
        assert config.prb_payload_bytes() == 48

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            CompressionConfig(iq_width=1)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            CompressionConfig(comp_meth=5)


class TestBfpExponents:
    def test_idle_prb_has_zero_exponent(self):
        """Near-zero samples compress with exponent 0 — what Algorithm 1
        keys on to mark PRBs idle."""
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        quiet = np.full((3, 24), 2, dtype=np.int16)
        assert (wire_shifts(compressor, quiet) == 0).all()

    def test_loud_prb_has_positive_exponent(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        loud = np.full((3, 24), 8000, dtype=np.int16)
        assert (wire_shifts(compressor, loud) > 0).all()

    def test_exponent_scales_with_amplitude(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        amplitudes = [100, 1000, 8000, 30000]
        exponents = [
            wire_shifts(compressor, np.full((1, 24), amplitude, dtype=np.int16)
            )[0]
            for amplitude in amplitudes
        ]
        assert exponents == sorted(exponents)
        assert exponents[-1] > exponents[0]

    def test_exponent_exact_power_boundaries(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        # 255 fits in 9 bits (needs 9), 256 needs 10 -> exponent 1.
        assert wire_shifts(compressor, np.full((1, 24), 255, dtype=np.int16))[0] == 0
        assert wire_shifts(compressor, np.full((1, 24), 256, dtype=np.int16))[0] == 1

    def test_negative_boundary(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        # -256 fits exactly in 9 bits two's complement.
        assert wire_shifts(compressor, np.full((1, 24), -256, dtype=np.int16))[0] == 0
        assert wire_shifts(compressor, np.full((1, 24), -257, dtype=np.int16))[0] == 1


class TestBfpRoundtrip:
    @pytest.mark.parametrize("iq_width", [6, 8, 9, 12, 14, 16])
    def test_quantization_error_bounded(self, rng, iq_width):
        compressor = BfpCompressor(CompressionConfig(iq_width=iq_width))
        samples = rng.integers(-30000, 30000, size=(10, 24)).astype(np.int16)
        restored = compressor.decompress(compressor.compress(samples), 10)
        max_exponent = int(wire_shifts(compressor, samples).max())
        # Error bounded by the quantization step.
        assert np.abs(
            restored.astype(int) - samples.astype(int)
        ).max() <= (1 << max_exponent)

    def test_lossless_when_width_sufficient(self, rng):
        compressor = BfpCompressor(CompressionConfig(iq_width=16))
        samples = rng.integers(-30000, 30000, size=(5, 24)).astype(np.int16)
        restored = compressor.decompress(compressor.compress(samples), 5)
        assert (restored == samples).all()

    def test_small_samples_lossless_at_width9(self, rng):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        samples = rng.integers(-255, 255, size=(8, 24)).astype(np.int16)
        restored = compressor.decompress(compressor.compress(samples), 8)
        assert (restored == samples).all()

    def test_uncompressed_roundtrip(self, rng):
        compressor = BfpCompressor(
            CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)
        )
        samples = rng.integers(-30000, 30000, size=(4, 24)).astype(np.int16)
        restored = compressor.decompress(compressor.compress(samples), 4)
        assert (restored == samples).all()

    def test_wire_size_matches_config(self, rng):
        config = CompressionConfig(iq_width=9)
        compressor = BfpCompressor(config)
        samples = rng.integers(-4000, 4000, size=(7, 24)).astype(np.int16)
        assert len(compressor.compress(samples)) == 7 * config.prb_payload_bytes()

    def test_read_exponents_matches_compress(self, rng):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        samples = rng.integers(-20000, 20000, size=(6, 24)).astype(np.int16)
        wire = compressor.compress(samples)
        assert compressor.read_exponents(wire, 6).tolist() == [
            scalar_exponent(row, 9) for row in samples.tolist()
        ]

    def test_truncated_payload_raises(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        with pytest.raises(ValueError):
            compressor.decompress(b"\x00" * 10, 2)

    def test_read_exponents_rejects_uncompressed(self):
        compressor = BfpCompressor(
            CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)
        )
        with pytest.raises(ValueError):
            compressor.read_exponents(b"\x00" * 48, 1)

    def test_rejects_bad_shape(self):
        compressor = BfpCompressor()
        with pytest.raises(ValueError):
            wire_shifts(compressor, np.zeros((3, 12), dtype=np.int16))

    @settings(max_examples=50, deadline=None)
    @given(
        samples=hnp.arrays(
            dtype=np.int16,
            shape=(4, 2 * SAMPLES_PER_PRB),
            elements=st.integers(min_value=-32768, max_value=32767),
        ),
        iq_width=st.sampled_from([8, 9, 12, 14]),
    )
    def test_roundtrip_error_bound_property(self, samples, iq_width):
        """Property: quantization error never exceeds one mantissa step."""
        compressor = BfpCompressor(CompressionConfig(iq_width=iq_width))
        wire = compressor.compress(samples)
        restored = compressor.decompress(wire, len(samples))
        exponents = wire_shifts(compressor, samples)
        steps = (1 << exponents.astype(int))[:, None]
        assert (
            np.abs(restored.astype(int) - samples.astype(int)) <= steps
        ).all()

    @settings(max_examples=50, deadline=None)
    @given(
        samples=hnp.arrays(
            dtype=np.int16,
            shape=(3, 2 * SAMPLES_PER_PRB),
            elements=st.integers(min_value=-32768, max_value=32767),
        )
    )
    def test_double_compression_is_idempotent(self, samples):
        """Compressing an already-quantized signal is lossless — the DAS
        merge path (decompress, sum, recompress) relies on this."""
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        once = compressor.decompress(compressor.compress(samples), 3)
        twice = compressor.decompress(compressor.compress(once), 3)
        assert (once == twice).all()

    @settings(max_examples=30, deadline=None)
    @given(
        samples=hnp.arrays(
            dtype=np.int16,
            shape=(4, 2 * SAMPLES_PER_PRB),
            elements=st.integers(min_value=-32768, max_value=32767),
        ),
        iq_width=st.integers(min_value=2, max_value=16),
    )
    def test_roundtrip_all_widths_property(self, samples, iq_width):
        """Property over EVERY mantissa width 2..16: quantization error is
        bounded by one step and re-compressing the restored signal is
        exactly idempotent (wire bytes included)."""
        compressor = BfpCompressor(CompressionConfig(iq_width=iq_width))
        wire = compressor.compress(samples)
        restored = compressor.decompress(wire, len(samples))
        steps = (1 << wire_shifts(compressor, samples).astype(int))[:, None]
        assert (
            np.abs(restored.astype(int) - samples.astype(int)) <= steps
        ).all()
        rewire = compressor.compress(restored)
        assert rewire == compressor.compress(
            compressor.decompress(rewire, len(samples))
        )


class TestExponentOverflow:
    """The wire nibble holds exponents 0..15; wider values must raise, not
    be silently masked (the seed's ``& 0x0F`` corruption bug)."""

    def test_int16_input_never_overflows(self, rng):
        compressor = BfpCompressor(CompressionConfig(iq_width=2))
        extremes = np.full((2, 24), -32768, dtype=np.int16)
        exponents, _ = compressor.compress_array(extremes)
        assert exponents.max() <= MAX_WIRE_EXPONENT

    def test_wide_accumulator_raises(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        too_hot = np.full((1, 24), 1 << 25, dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds the 4-bit wire field"):
            compressor.compress(too_hot)

    def test_wide_accumulator_raises_in_compress_array(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=2))
        too_hot = np.full((3, 24), 1 << 20, dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds the 4-bit wire field"):
            compressor.compress_array(too_hot)

    def test_saturated_input_compresses_fine(self):
        compressor = BfpCompressor(CompressionConfig(iq_width=9))
        hot = np.clip(
            np.full((1, 24), 1 << 25, dtype=np.int64), -32768, 32767
        )
        wire = compressor.compress(hot)
        assert len(wire) == compressor.config.prb_payload_bytes()


class TestGoldenWireBytes:
    """Wire-format compatibility: the vectorized codec must emit bytes
    identical to the seed (pre-optimization) implementation, pinned in
    ``golden_bfp.json`` for widths 8/9/14 and the uncompressed path."""

    @pytest.fixture(scope="class")
    def golden_cases(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_fixture_covers_required_configs(self, golden_cases):
        widths = {
            (case["iq_width"], case["comp_meth"]) for case in golden_cases
        }
        assert {(8, 1), (9, 1), (14, 1), (16, 0)} <= widths

    def test_compress_matches_golden_bytes(self, golden_cases):
        for case in golden_cases:
            config = CompressionConfig(
                iq_width=case["iq_width"], comp_meth=case["comp_meth"]
            )
            samples = np.array(case["samples"], dtype=np.int16)
            wire = BfpCompressor(config).compress(samples)
            assert wire.hex() == case["wire_hex"], case["label"]

    def test_decompress_golden_roundtrip(self, golden_cases):
        for case in golden_cases:
            config = CompressionConfig(
                iq_width=case["iq_width"], comp_meth=case["comp_meth"]
            )
            compressor = BfpCompressor(config)
            wire = bytes.fromhex(case["wire_hex"])
            restored = compressor.decompress(wire, case["n_prbs"])
            # Golden wire bytes re-compress to themselves (idempotence).
            assert compressor.compress(restored).hex() == case["wire_hex"]


class TestCodecMemo:
    """The LRU parse memo is gone (the encoder's parse rides on the
    section instead: ``test_riding_parse.py``); its two entry points
    stay as constant shims for the frozen benchmark."""

    def test_shims_are_constant(self, rng):
        compressor = BfpCompressor()
        samples = rng.integers(-8000, 8000, size=(20, 24)).astype(np.int16)
        wire = compressor.compress(samples)
        before = codec_memo_stats()
        exponents_a, mantissas_a = compressor.parse_wire(wire, 20)
        exponents_b, mantissas_b = compressor.parse_wire(wire, 20)
        assert mantissas_a is not mantissas_b  # parsed twice, nothing kept
        assert (mantissas_a == mantissas_b).all()
        assert not mantissas_a.flags.writeable
        clear_codec_memo()
        assert codec_memo_stats() == before
        assert set(before.values()) == {0} and len(before) == 6

    def test_memo_distinguishes_configs(self, rng):
        clear_codec_memo()
        samples = rng.integers(-100, 100, size=(4, 24)).astype(np.int16)
        wire9 = BfpCompressor(CompressionConfig(iq_width=9)).compress(samples)
        wire14 = BfpCompressor(CompressionConfig(iq_width=14)).compress(samples)
        assert len(wire9) != len(wire14)


class TestBatchedHelpers:
    def test_merged_sections_match_manual_sum(self, rng):
        """The production merge, over operands unpacked from packed bytes
        (the ``parse_wire`` lane) and over riding ones."""
        config = CompressionConfig(iq_width=9)
        compressor = BfpCompressor(config)
        operands = [
            rng.integers(-8000, 8000, size=(5, 24)).astype(np.int16)
            for _ in range(3)
        ]
        riding = [
            UPlaneSection.from_samples(0, 0, op, config) for op in operands
        ]
        total = np.zeros((5, 24), dtype=np.int64)
        for section in riding:
            total += compressor.decompress(section.payload, 5)
        manual = np.clip(total, -32768, 32767).astype(np.int16)
        wire = [UPlaneSection.unpack(s.pack(), 0)[0] for s in riding]
        for sections in (wire, riding):
            merged = UPlaneSection.merged(sections)
            assert bytes(merged.payload) == compressor.compress(manual)
