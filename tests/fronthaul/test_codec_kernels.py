"""The int16-native codec kernels and the blocked slot pass.

Pins the shared ``prb_shifts`` / ``pack_mantissas`` (uint64 word lanes) /
``unpack_mantissas`` kernels and ``compress_ranges`` to the scalar oracle
of :mod:`repro.conformance.reference` across every legal width, the int16
corner values, the 512-PRB block boundary, and memory contracts — the
codec pass's and the float stage's — that need no wall clock.
"""

import tracemalloc

import numpy as np
import pytest

from repro.conformance.reference import scalar_compress, scalar_decompress
from repro.fronthaul import compression
from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MOD_COMP_METH,
    NO_COMP_METH,
    CompressionConfig,
    clear_codec_memo,
    codec_for,
    codec_memo_stats,
    pack_mantissas,
    prb_shifts,
    unpack_mantissas,
)

BLOCK = compression._BLOCK_PRBS

#: Every legal (width, method): BFP 2-16, modcomp 1-14.
ALL_CONFIGS = [
    CompressionConfig(iq_width=width, comp_meth=BFP_COMP_METH)
    for width in range(2, 17)
] + [
    CompressionConfig(iq_width=width, comp_meth=MOD_COMP_METH)
    for width in range(1, 15)
]
_IDS = [f"meth{c.comp_meth}-w{c.iq_width}" for c in ALL_CONFIGS]


def corner_rows() -> np.ndarray:
    """PRB rows holding the int16 values where sign folding, the sign
    bit and the width-16 mask go wrong first."""
    rows = [
        np.full(24, -32768), np.full(24, 32767), np.full(24, -1),
        np.zeros(24), np.tile([-32768, 32767], 12), np.tile([-1, 0], 12),
        np.tile([255, -256], 12), np.tile([256, -257], 12),
        np.arange(24) - 12, (1 << np.arange(24) % 15), -(1 << np.arange(24) % 16),
    ]
    return np.array(rows, dtype=np.int16)


def oracle(samples: np.ndarray, config: CompressionConfig) -> bytes:
    return scalar_compress(samples.tolist(), config.iq_width, config.comp_meth)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=_IDS)
class TestEveryWidth:
    def test_corner_rows_match_scalar_oracle(self, config):
        samples = corner_rows()
        codec = codec_for(config)
        wire = codec.compress(samples)
        assert wire == oracle(samples, config)
        decoded = codec.decompress(wire, len(samples))
        assert decoded.dtype == np.int16
        assert decoded.tolist() == scalar_decompress(
            wire, len(samples), config.iq_width, config.comp_meth
        )

    def test_random_rows_match_scalar_oracle(self, config):
        rng = np.random.default_rng(config.to_byte())
        samples = rng.integers(-32768, 32768, size=(40, 24), dtype=np.int16)
        samples[::4] >>= 9  # quiet PRBs: shift 0 on wide mantissas
        codec = codec_for(config)
        wire = codec.compress(samples)
        assert wire == oracle(samples, config)
        assert codec.compress_ranges([samples[:7], samples[7:]]) == [
            oracle(samples[:7], config), oracle(samples[7:], config)
        ]

    def test_mantissa_kernels_invert(self, config):
        width = config.iq_width
        rng = np.random.default_rng(width)
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
        mantissas = rng.integers(low, high + 1, size=(9, 24)).astype(np.int16)
        mantissas[0], mantissas[1] = low, high
        blocks = pack_mantissas(mantissas, width)
        assert blocks.shape == (9, 3 * width) and blocks.dtype == np.uint8
        restored = unpack_mantissas(blocks, width)
        assert restored.dtype == np.int16
        assert (restored == mantissas).all()

    def test_int16_and_int64_inputs_agree(self, config):
        samples = corner_rows()
        codec = codec_for(config)
        clear_codec_memo()
        assert codec.compress(samples.astype(np.int64)) == codec.compress(samples)
        shifts16 = prb_shifts(samples, config.iq_width)
        shifts64 = prb_shifts(samples.astype(np.int64), config.iq_width)
        assert (shifts16 == shifts64).all()


class TestWordLanePack:
    """``pack_mantissas`` on its own: three groups of eight mantissas a
    PRB, two uint64 lanes a group, against the scalar oracle (mantissas
    that fit the width compress at shift 0, so the oracle's PRB is a zero
    parameter in front of exactly the packed block)."""

    @staticmethod
    def mantissas(width: int, n_prbs: int) -> np.ndarray:
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
        rng = np.random.default_rng(100 * width + n_prbs % 97)
        rows = rng.integers(low, high + 1, size=(n_prbs, 24)).astype(np.int16)
        for row, value in zip(rows, (low, high, -1)):  # corner rows
            row[:] = value
        return rows

    @staticmethod
    def oracle_blocks(rows: np.ndarray, width: int) -> bytes:
        meth, param = (MOD_COMP_METH, 2) if width == 1 else (BFP_COMP_METH, 1)
        wire = scalar_compress(rows.tolist(), width, meth)
        grid = np.frombuffer(wire, np.uint8).reshape(len(rows), param + 3 * width)
        assert not grid[:, :param].any()
        return grid[:, param:].tobytes()

    @pytest.mark.parametrize("n_prbs", [0, 1, 7, 511, 512, 513, 3900])
    @pytest.mark.parametrize("width", range(1, 17))
    def test_every_width_and_size_matches_the_scalar_oracle(self, width, n_prbs):
        rows = self.mantissas(width, n_prbs)
        blocks = pack_mantissas(rows, width)
        assert blocks.shape == (n_prbs, 3 * width) and blocks.dtype == np.uint8
        assert blocks.tobytes() == self.oracle_blocks(rows, width)
        assert (unpack_mantissas(blocks, width) == rows).all()

    @pytest.mark.parametrize("width", range(1, 17))
    def test_int64_and_non_contiguous_input(self, width):
        rows = self.mantissas(width, 40)
        expected = self.oracle_blocks(rows, width)
        assert pack_mantissas(rows.astype(np.int64), width).tobytes() == expected
        wide = np.zeros((80, 48), dtype=np.int16)
        wide[::2, ::2] = rows
        strided = wide[::2, ::2]
        assert not strided.flags.c_contiguous
        assert pack_mantissas(strided, width).tobytes() == expected
        assert pack_mantissas(rows[::-1], width).tobytes() == self.oracle_blocks(
            rows[::-1], width
        )


class TestWidth16:
    """``(1 << 16) - 1`` does not fit int16; the kernels never form it."""

    def test_full_width_bfp_is_lossless_and_never_overflows(self):
        config = CompressionConfig(iq_width=16)
        samples = corner_rows()
        codec = codec_for(config)
        wire = codec.compress(samples)  # raised OverflowError in a naive port
        assert (codec.read_exponents(wire, len(samples)) == 0).all()
        assert (codec.decompress(wire, len(samples)) == samples).all()


class TestWideAccumulators:
    def test_shift_above_wire_field_still_raises(self):
        too_hot = np.full((2, 24), 1 << 25, dtype=np.int64)
        for width in (2, 9, 11):  # 27 bits needed: exponents 25, 18, 16
            codec = codec_for(CompressionConfig(iq_width=width))
            with pytest.raises(ValueError, match="exceeds the 4-bit wire field"):
                codec.compress(too_hot)
            with pytest.raises(ValueError, match="exceeds the 4-bit wire field"):
                codec.compress_ranges([too_hot])
        modcomp = codec_for(CompressionConfig(iq_width=4, comp_meth=MOD_COMP_METH))
        with pytest.raises(ValueError, match="legal bound"):
            modcomp.compress_ranges([too_hot])

    def test_legal_wide_values_match_scalar_oracle(self):
        """A 24-bit accumulator that a 9-bit mantissa and exponent 15
        can still carry compresses exactly as the oracle says."""
        config = CompressionConfig(iq_width=9)
        wide = np.tile([(1 << 23) - 1, -(1 << 23)], (3, 12)).astype(np.int64)
        assert codec_for(config).compress(wide) == oracle(wide, config)

    def test_illegal_modcomp_scaler_saturates_like_the_oracle(self):
        config = CompressionConfig(iq_width=3, comp_meth=MOD_COMP_METH)
        codec = codec_for(config)
        wire = bytearray(codec.compress(corner_rows()))
        prb_bytes = config.prb_payload_bytes()
        for prb, scaler in enumerate((14, 16, 17, 40, 0x7FFF)):
            wire[prb * prb_bytes : prb * prb_bytes + 2] = (
                0x8000 | scaler
            ).to_bytes(2, "big")
        decoded = codec.decompress(bytes(wire), len(corner_rows()))
        assert decoded.tolist() == scalar_decompress(
            bytes(wire), len(corner_rows()), 3, MOD_COMP_METH
        )


class TestBlockedPass:
    @pytest.mark.parametrize("n_prbs", [BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize(
        "config",
        [CompressionConfig(9), CompressionConfig(4, MOD_COMP_METH),
         CompressionConfig(16, NO_COMP_METH)],
        ids=["bfp9", "modcomp4", "raw16"],
    )
    def test_block_boundary_sizes(self, config, n_prbs):
        rng = np.random.default_rng(n_prbs)
        samples = rng.integers(-9000, 9000, size=(n_prbs, 24), dtype=np.int16)
        codec = codec_for(config)
        per_prb = b"".join(
            codec.compress(samples[i : i + 1]) for i in range(n_prbs)
        )
        clear_codec_memo()
        assert codec.compress(samples) == per_prb
        assert codec.compress_ranges([samples]) == [per_prb]

    def test_ranges_straddling_a_block_edge(self):
        config = CompressionConfig(iq_width=9)
        rng = np.random.default_rng(3)
        lengths = [BLOCK - 3, 7, 1, 0, BLOCK, 2]  # 2nd range straddles
        ranges = [
            rng.integers(-20000, 20000, size=(n, 24), dtype=np.int16)
            for n in lengths
        ]
        payloads = codec_for(config).compress_ranges(ranges)
        assert [len(p) for p in payloads] == [28 * n for n in lengths]
        assert payloads == [oracle(r, config) for r in ranges]

    def test_ranges_may_be_views_of_one_grid(self):
        config = CompressionConfig(iq_width=4, comp_meth=MOD_COMP_METH)
        grid = np.random.default_rng(4).integers(
            -3000, 3000, size=(106, 24), dtype=np.int16
        )
        views = [grid[0:50], grid[10:20], grid[100:200]]  # clipped at the edge
        assert codec_for(config).compress_ranges(views) == [
            oracle(v, config) for v in views
        ]

    def test_no_ranges_no_payloads(self):
        assert codec_for(CompressionConfig()).compress_ranges([]) == []


class TestMemoryContract:
    """The RSS trap of the slot pass, held without a wall clock: ten
    symbols x 2 ports x 224 PRBs pack in 512-PRB blocks, so the peak is
    the slot's int16 (samples, mantissas, wire) plus one block's bit
    tensor, not the slot's, and no memo exists to pin anything."""

    def test_4480_prbs_peak_below_2_mib_and_memo_untouched(self):
        rng = np.random.default_rng(6)
        grids = [
            rng.integers(-20000, 20000, size=(224, 24), dtype=np.int16)
            for _ in range(20)
        ]
        codec = codec_for(CompressionConfig(iq_width=9))
        codec.compress_ranges(grids[:1])  # warm imports and allocator
        clear_codec_memo()
        before = codec_memo_stats()
        tracemalloc.start()
        try:
            payloads = codec.compress_ranges(grids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(p) for p in payloads) == 4480 * 28
        assert peak < 2 * 1024 * 1024, f"peak {peak / 2**20:.2f} MiB"
        assert codec_memo_stats() == before
        assert before["compress_entries"] == 0

    def test_56_row_float_stage_peaks_below_one_block_plus_the_slot_int16(self):
        """56 owed rows x 1,272 subcarriers through ``build_uplink``: at
        most one 8-row block of floats is alive — the noise draw, the
        complex block and its scaled copy, 162,816 B each — beside the
        slot's int16 (grids, codec samples / mantissas / wire) and its
        packets; 56 rows of floats at once would be 3.4 MB."""
        from tests.ran.test_slot_build import full_slot_items, full_slot_ru

        config = CompressionConfig(iq_width=9)
        full_slot_ru(config).build_uplink(full_slot_items(full_slot_ru(config)))
        ru = full_slot_ru(config)
        items = full_slot_items(ru)
        block_floats = 3 * 8 * 1272 * 16  # noise, signal, scaled: 488,448 B
        slot_int16 = 4 * 56 * 106 * 48  # grids, samples, mantissas, wire
        tracemalloc.start()
        try:
            packets = ru.build_uplink(iter(items))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(packets) == 59
        assert peak < block_floats + slot_int16 + 256 * 1024, f"peak {peak} B"
