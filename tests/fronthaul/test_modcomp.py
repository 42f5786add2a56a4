"""Modulation compression: round-trip bounds, wire legality, dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.conformance import generators as gen
from repro.fronthaul.compression import (
    MOD_COMP_METH,
    BfpCompressor,
    CompressionConfig,
    codec_for,
)
from repro.fronthaul.modcomp import ModCompressor, max_scaler
from repro.fronthaul.uplane import UPlaneSection


def _config(width=3):
    return CompressionConfig(iq_width=width, comp_meth=MOD_COMP_METH)


class TestConfigAndDispatch:
    def test_codec_for_dispatches_by_meth(self):
        assert isinstance(codec_for(_config()), ModCompressor)
        assert isinstance(
            codec_for(CompressionConfig(iq_width=9)), BfpCompressor
        )

    def test_modcompressor_rejects_bfp_config(self):
        with pytest.raises(ValueError):
            ModCompressor(CompressionConfig(iq_width=9))

    def test_prb_payload_bytes(self):
        # 2-byte udCompParam + 24 w-bit mantissas.
        assert _config(3).prb_payload_bytes() == 2 + 9
        assert _config(4).prb_payload_bytes() == 2 + 12
        assert _config(6).prb_payload_bytes() == 2 + 18

    def test_config_byte_round_trip(self):
        config = _config(6)
        assert CompressionConfig.from_byte(config.to_byte()) == config

    def test_rejects_out_of_range_width(self):
        with pytest.raises(ValueError):
            _config(0)
        with pytest.raises(ValueError):
            _config(15)

    def test_max_scaler(self):
        assert max_scaler(3) == 13
        assert max_scaler(14) == 2
        assert max_scaler(16) == 0


class TestConfigDictRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        for config in (_config(3), CompressionConfig(iq_width=14)):
            assert CompressionConfig.from_dict(config.to_dict()) == config

    def test_from_dict_defaults(self):
        assert CompressionConfig.from_dict({}) == CompressionConfig()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(KeyError, match="unknown keys.*csf"):
            CompressionConfig.from_dict({"iq_width": 3, "csf": 1})

    def test_from_dict_rejects_typo_of_known_key(self):
        with pytest.raises(KeyError, match="unknown keys"):
            CompressionConfig.from_dict({"iq_widht": 9})


class TestScalers:
    def test_idle_prb_has_zero_scaler(self):
        codec = ModCompressor(_config(3))
        samples = np.zeros((2, 24), dtype=np.int16)
        assert codec.scalers_for(samples).tolist() == [0, 0]

    def test_scaler_is_minimal_shift(self):
        codec = ModCompressor(_config(3))
        # 7 needs 4 signed bits; one shift brings it into 3.
        samples = np.full((1, 24), 7, dtype=np.int16)
        assert codec.scalers_for(samples).tolist() == [1]
        # 3 fits 3 signed bits directly.
        samples = np.full((1, 24), 3, dtype=np.int16)
        assert codec.scalers_for(samples).tolist() == [0]

    def test_int16_extremes_stay_legal(self):
        for width in (1, 3, 6, 14):
            codec = ModCompressor(_config(width))
            samples = np.array(
                [[-32768, 32767] * 12], dtype=np.int16
            )
            assert int(codec.scalers_for(samples)[0]) <= max_scaler(width)

    def test_compress_array_rejects_oversized_scaler(self):
        codec = ModCompressor(_config(3))
        wide = np.full((1, 24), 1 << 20, dtype=np.int64)
        with pytest.raises(ValueError, match="legal bound"):
            codec.compress_array(wide)


class TestRoundTrip:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 6, 8, 14])
    def test_error_bounded_by_half_step(self, rng, width):
        codec = ModCompressor(_config(width))
        samples = rng.integers(-32768, 32768, size=(8, 24), dtype=np.int16)
        decoded = codec.decompress(codec.compress(samples), 8)
        scalers = codec.scalers_for(samples).astype(np.int64)
        half_step = np.where(scalers > 0, 1 << np.maximum(scalers - 1, 0), 0)
        error = np.abs(decoded.astype(np.int64) - samples.astype(np.int64))
        assert (error <= half_step[:, None]).all()

    def test_lossless_at_scaler_zero(self, rng):
        codec = ModCompressor(_config(6))
        samples = rng.integers(-32, 32, size=(4, 24), dtype=np.int16)
        decoded = codec.decompress(codec.compress(samples), 4)
        assert (decoded == samples).all()

    def test_recompression_is_stable(self, rng):
        # Lossy once, stable forever: the DAS merge contract.
        codec = ModCompressor(_config(3))
        samples = rng.integers(-32768, 32768, size=(6, 24), dtype=np.int16)
        wire = codec.compress(samples)
        assert codec.compress(codec.decompress(wire, 6)) == wire

    def test_wire_size_matches_config(self, rng):
        for width in (1, 3, 6):
            codec = ModCompressor(_config(width))
            samples = rng.integers(-500, 500, size=(5, 24), dtype=np.int16)
            wire = codec.compress(samples)
            assert len(wire) == 5 * (2 + 3 * width)

    def test_truncated_payload_raises(self):
        codec = ModCompressor(_config(3))
        with pytest.raises(ValueError):
            codec.decompress(b"\x00" * 10, 2)
        with pytest.raises(ValueError):
            codec.read_params(b"\x00" * 10, 2)

    def test_rejects_bad_sample_shape(self):
        codec = ModCompressor(_config(3))
        with pytest.raises(ValueError, match="expected shape"):
            codec.compress(np.zeros((2, 23), dtype=np.int16))


class TestWireParams:
    def test_csf_set_exactly_when_scaled(self, rng):
        codec = ModCompressor(_config(3))
        quiet = rng.integers(-3, 4, size=(2, 24), dtype=np.int16)
        loud = rng.integers(-30000, 30000, size=(2, 24), dtype=np.int16)
        loud[loud.max(axis=1) < 1000] = 20000
        wire = codec.compress(np.vstack([quiet, loud]))
        csf, scalers = codec.read_params(wire, 4)
        assert (csf.astype(bool) == (scalers > 0)).all()
        assert csf[:2].tolist() == [0, 0]
        assert csf[2:].tolist() == [1, 1]

    def test_read_exponents_returns_scalers(self, rng):
        codec = ModCompressor(_config(3))
        samples = rng.integers(-32768, 32768, size=(5, 24), dtype=np.int16)
        wire = codec.compress(samples)
        assert (
            codec.read_exponents(wire, 5)
            == codec.scalers_for(samples)
        ).all()

    def test_decompress_clamps_illegal_wire_scaler(self):
        # An illegal scaler on the wire is the validator's finding; the
        # decoder must still produce in-range int16 without overflow.
        codec = ModCompressor(_config(3))
        payload = bytearray(codec.compress(np.full((1, 24), 5, np.int16)))
        payload[0] = 0xFF
        payload[1] = 0xFF  # csf + scaler 0x7FFF
        decoded = codec.decompress(bytes(payload), 1)
        assert decoded.dtype == np.int16


class TestMerge:
    def test_merged_sections_dispatch_modcomp(self, rng):
        """The production merge, over operands unpacked from packed bytes
        (the ``parse_wire`` lane) and over riding ones."""
        config = _config(6)
        codec = ModCompressor(config)
        riding = [
            UPlaneSection.from_samples(
                0, 0, rng.integers(-400, 400, size=(3, 24), dtype=np.int16),
                config,
            )
            for _ in range(3)
        ]
        total = sum(
            codec.decompress(section.payload, 3).astype(np.int64)
            for section in riding
        )
        half_step = 1 << max_scaler(6)
        wire = [UPlaneSection.unpack(s.pack(), 0)[0] for s in riding]
        for sections in (wire, riding):
            merged = codec.decompress(UPlaneSection.merged(sections).payload, 3)
            assert np.abs(
                merged.astype(np.int64) - np.clip(total, -32768, 32767)
            ).max() <= half_step


class TestHypothesisProperties:
    @given(samples=gen.iq_samples(), config=gen.modcomp_configs())
    @settings(max_examples=80, deadline=None)
    def test_evm_bound_within_quantization_step(self, samples, config):
        # The acceptance bound: reconstruction error never exceeds half
        # the constellation quantization step 2**scaler.
        codec = ModCompressor(config)
        decoded = codec.decompress(codec.compress(samples), len(samples))
        scalers = codec.scalers_for(samples).astype(np.int64)
        half_step = np.where(scalers > 0, 1 << np.maximum(scalers - 1, 0), 0)
        error = np.abs(decoded.astype(np.int64) - samples.astype(np.int64))
        assert (error <= half_step[:, None]).all()

    @given(samples=gen.iq_samples(), config=gen.modcomp_configs())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_stable(self, samples, config):
        codec = ModCompressor(config)
        wire = codec.compress(samples)
        assert codec.compress(codec.decompress(wire, len(samples))) == wire

    @given(samples=gen.iq_samples(), config=gen.compression_configs())
    @settings(max_examples=60, deadline=None)
    def test_codec_for_round_trips_every_codec(self, samples, config):
        codec = codec_for(config)
        wire = codec.compress(samples)
        assert len(wire) == len(samples) * config.prb_payload_bytes()
        decoded = codec.decompress(wire, len(samples))
        assert codec.compress(decoded) == wire
