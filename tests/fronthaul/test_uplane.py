"""U-plane message codec tests."""

import numpy as np
import pytest

from repro.fronthaul.compression import CompressionConfig
from repro.fronthaul.cplane import Direction
from repro.fronthaul.timing import symbol_time
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

from tests.conftest import random_prb_samples, wire_shifts


@pytest.fixture
def section(rng):
    return UPlaneSection.from_samples(
        section_id=3, start_prb=10, samples=random_prb_samples(rng, 8)
    )


class TestUPlaneSection:
    def test_from_samples_sets_sizes(self, section):
        assert section.num_prb == 8
        assert section.prb_range == (10, 18)
        assert len(section.payload) == 8 * 28  # BFP-9

    def test_iq_roundtrip_within_quantization(self, rng):
        samples = random_prb_samples(rng, 5)
        section = UPlaneSection.from_samples(0, 0, samples)
        restored = section.iq_samples()
        assert restored.shape == (5, 24)
        assert np.abs(restored.astype(int) - samples.astype(int)).max() <= 32

    def test_exponents_fast_path_matches_decompress(self, rng):
        samples = random_prb_samples(rng, 6)
        section = UPlaneSection.from_samples(0, 0, samples)
        from repro.fronthaul.compression import BfpCompressor

        expected = wire_shifts(
            BfpCompressor(section.compression), section.iq_samples()
        )
        assert (section.exponents() == expected).all()

    def test_prb_payload_slicing(self, section):
        whole = b"".join(
            bytes(section.prb_payload_view(prb, 1)) for prb in range(10, 18)
        )
        assert whole == section.payload

    def test_prb_payload_out_of_range(self, section):
        with pytest.raises(ValueError):
            section.prb_payload_view(9, 1)
        with pytest.raises(ValueError):
            section.prb_payload_view(18, 1)

    def test_payload_size_validation(self):
        with pytest.raises(ValueError):
            UPlaneSection(section_id=0, start_prb=0, num_prb=2,
                          payload=b"\x00" * 10)

    def test_replace_payload_recompresses(self, rng, section):
        doubled = np.clip(
            section.iq_samples().astype(int) * 2, -32768, 32767
        ).astype(np.int16)
        updated = section.replace_payload(doubled)
        assert updated.prb_range == section.prb_range
        assert (updated.exponents() >= section.exponents()).all()


class TestZeroCopyPaths:
    """The vectorization PR's zero-copy contracts: view-backed parsed
    sections, and payloads rewritten only by a real recompression."""

    def test_replace_payload_slow_path_on_copy(self, rng):
        """The decode, even unmodified, is recompressed: there is no
        shortcut back to the original bytes, only the same bytes again."""
        section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 5))
        decoded = section.iq_samples()
        assert decoded is not section.iq_samples() and decoded.flags.writeable
        updated = section.replace_payload(decoded)
        assert updated.payload is not section.payload
        assert updated.payload_bytes() == section.payload_bytes()

    def test_replace_payload_pack_roundtrip_misaligned_range(self, rng):
        """The RU-sharing misaligned path: modified samples on a section
        with an odd PRB range must survive pack()/unpack() byte-exactly."""
        samples = random_prb_samples(rng, 7)
        section = UPlaneSection.from_samples(
            section_id=5, start_prb=131, samples=samples
        )
        shifted = section.iq_samples().copy()
        shifted[2:5] = shifted[0:3]  # sample-level PRB move
        updated = section.replace_payload(shifted)
        packed = updated.pack()
        parsed, _ = UPlaneSection.unpack(packed, 0)
        assert parsed.start_prb == 131
        assert parsed.num_prb == 7
        assert parsed.payload_bytes() == updated.payload_bytes()
        assert (parsed.iq_samples() == updated.iq_samples()).all()

    def test_unpacked_section_is_view_backed(self, rng):
        """Message parsing holds memoryview slices into the frame buffer
        (zero-copy), and pack() reproduces the identical bytes."""
        section = UPlaneSection.from_samples(
            section_id=2, start_prb=10, samples=random_prb_samples(rng, 8)
        )
        message = UPlaneMessage(
            direction=Direction.UPLINK,
            time=symbol_time(1, 2, 3, 4),
            sections=[section],
        )
        wire = message.pack()
        parsed = UPlaneMessage.unpack(wire)
        assert isinstance(parsed.sections[0].payload, memoryview)
        assert parsed.pack() == wire

    def test_prb_payload_view_bounds_checked(self, rng):
        section = UPlaneSection.from_samples(0, 10, random_prb_samples(rng, 5))
        with pytest.raises(ValueError):
            section.prb_payload_view(9, 2)
        with pytest.raises(ValueError):
            section.prb_payload_view(14, 2)

    def test_deepcopy_materializes_view(self, rng):
        import copy

        section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 4))
        message = UPlaneMessage(
            direction=Direction.DOWNLINK,
            time=symbol_time(0, 0, 0, 0),
            sections=[section],
        )
        parsed = UPlaneMessage.unpack(message.pack())
        clone = copy.deepcopy(parsed)
        assert isinstance(clone.sections[0].payload, bytes)
        assert clone.sections[0].payload_bytes() == section.payload_bytes()


class TestUPlaneMessage:
    def make(self, rng, n_prbs=12, direction=Direction.DOWNLINK):
        section = UPlaneSection.from_samples(
            section_id=0, start_prb=0, samples=random_prb_samples(rng, n_prbs)
        )
        return UPlaneMessage(
            direction=direction,
            time=symbol_time(46, 9, 1, 13),
            sections=[section],
        )

    def test_roundtrip(self, rng):
        message = self.make(rng)
        parsed = UPlaneMessage.unpack(message.pack())
        assert parsed.direction is Direction.DOWNLINK
        assert parsed.time == symbol_time(46, 9, 1, 13)
        assert parsed.sections[0].payload == message.sections[0].payload

    def test_uplink_roundtrip(self, rng):
        parsed = UPlaneMessage.unpack(
            self.make(rng, direction=Direction.UPLINK).pack()
        )
        assert parsed.direction is Direction.UPLINK

    def test_multi_section_roundtrip(self, rng):
        sections = [
            UPlaneSection.from_samples(
                section_id=i, start_prb=i * 30,
                samples=random_prb_samples(rng, 10),
            )
            for i in range(3)
        ]
        message = UPlaneMessage(
            direction=Direction.UPLINK,
            time=symbol_time(0, 0, 0, 0),
            sections=sections,
        )
        parsed = UPlaneMessage.unpack(message.pack())
        assert len(parsed.sections) == 3
        assert parsed.total_prbs() == 30
        for original, decoded in zip(sections, parsed.sections):
            assert decoded.payload == original.payload
            assert decoded.prb_range == original.prb_range

    def test_full_band_273_prbs(self, rng):
        """The ALL_PRBS encoding with carrier context (100 MHz cells)."""
        section = UPlaneSection.from_samples(
            section_id=0, start_prb=0, samples=random_prb_samples(rng, 273)
        )
        message = UPlaneMessage(
            direction=Direction.DOWNLINK,
            time=symbol_time(0, 0, 0, 0),
            sections=[section],
        )
        parsed = UPlaneMessage.unpack(message.pack(), carrier_num_prb=273)
        assert parsed.sections[0].num_prb == 273
        assert parsed.sections[0].payload == section.payload

    def test_uncompressed_section_roundtrip(self, rng):
        config = CompressionConfig(iq_width=16, comp_meth=0)
        section = UPlaneSection.from_samples(
            section_id=1, start_prb=0,
            samples=random_prb_samples(rng, 4), compression=config,
        )
        message = UPlaneMessage(
            direction=Direction.DOWNLINK,
            time=symbol_time(0, 0, 0, 0),
            sections=[section],
        )
        parsed = UPlaneMessage.unpack(message.pack())
        assert parsed.sections[0].compression.comp_meth == 0
        assert (
            parsed.sections[0].iq_samples() == section.iq_samples()
        ).all()

    def test_filter_index_roundtrip(self, rng):
        message = self.make(rng)
        message.filter_index = 1  # PRACH
        parsed = UPlaneMessage.unpack(message.pack())
        assert parsed.filter_index == 1

    def test_truncated_payload_raises(self, rng):
        data = self.make(rng).pack()
        with pytest.raises(ValueError):
            UPlaneMessage.unpack(data[:-5])
