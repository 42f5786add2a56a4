"""Golden wire-byte fixtures, one capture per vendor profile.

``golden_wire.json`` pins the exact on-wire bytes of a small deterministic
C/U-plane exchange for each of the three vendor stacks.  The tests assert
that today's packers still emit those bytes (wire-format stability across
refactors) and that the :class:`WireValidator` finds each capture fully
conformant.

Regenerate after an *intentional* wire-format change with::

    PYTHONPATH=src:. python -m tests.conformance.test_golden_wire
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.conformance import WireValidator
from repro.conformance.violations import ViolationClass
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet, parse_packet
from repro.fronthaul.timing import symbol_time
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.ran.stacks import profile_by_name
from tests.conformance.builders import cplane_packet

FIXTURE_PATH = Path(__file__).parent / "golden_wire.json"

PROFILES = ("srsRAN", "CapGemini", "Radisys")

_SEEDS = {"srsRAN": 101, "CapGemini": 202, "Radisys": 303}
_CARRIER = {"srsRAN": 106, "CapGemini": 106, "Radisys": 273}

DU_MAC = MacAddress.from_int(0x02_00_00_00_00_01)
RU_MAC = MacAddress.from_int(0x02_00_00_00_00_02)
EAXC = EAxCId.from_int(0x0101)


def _uplane(time, sections, direction, src, dst, seq):
    message = UPlaneMessage(direction=direction, time=time, sections=sections)
    return make_packet(src=src, dst=dst, message=message, seq_id=seq, eaxc=EAXC)


def _section(section_id, start_prb, num_prb, rng, compression, amplitude):
    samples = rng.integers(
        -amplitude, amplitude, size=(num_prb, 24)
    ).astype(np.int16)
    return UPlaneSection.from_samples(
        section_id=section_id,
        start_prb=start_prb,
        samples=samples,
        compression=compression,
    )


def build_capture(profile_name):
    """Deterministic two-slot DL+UL exchange for one vendor profile.

    The DU stream (DU -> RU: DL C-plane, DL U-plane, UL C-plane) and the
    RU stream (RU -> DU: UL U-plane) each keep their own 8-bit sequence
    counter, exactly as the live endpoints do.
    """
    profile = profile_by_name(profile_name)
    carrier = _CARRIER[profile_name]
    compression = profile.compression
    rng = np.random.default_rng(_SEEDS[profile_name])
    sched = min(carrier, profile.uplane_section_max_prbs)
    frames = []
    du_seq = ru_seq = 0
    for slot in range(2):
        time = symbol_time(0, 0, slot, 0)
        frames.append(
            cplane_packet(
                0, sched, seq=du_seq, time=time, compression=compression,
                direction=Direction.DOWNLINK, src=DU_MAC, dst=RU_MAC,
                eaxc=EAXC,
            ).pack()
        )
        du_seq += 1
        n1 = int(rng.integers(8, 33))
        gap = int(rng.integers(0, 9))
        n2 = int(rng.integers(8, 33))
        sections = [
            _section(1, 0, n1, rng, compression, amplitude=8000),
            _section(2, n1 + gap, n2, rng, compression, amplitude=8000),
        ]
        frames.append(
            _uplane(
                time, sections, Direction.DOWNLINK, DU_MAC, RU_MAC, du_seq
            ).pack()
        )
        du_seq += 1
        frames.append(
            cplane_packet(
                0, 32, seq=du_seq, time=time, compression=compression,
                direction=Direction.UPLINK, src=DU_MAC, dst=RU_MAC,
                eaxc=EAXC,
            ).pack()
        )
        du_seq += 1
        ul_start = int(rng.integers(0, 9))
        ul_prbs = int(rng.integers(4, 17))
        ul_section = _section(
            1, ul_start, ul_prbs, rng, compression, amplitude=500
        )
        frames.append(
            _uplane(
                time, [ul_section], Direction.UPLINK, RU_MAC, DU_MAC, ru_seq
            ).pack()
        )
        ru_seq += 1
    return frames


def _capture_entry(profile_name):
    frames = build_capture(profile_name)
    return {
        "carrier_num_prb": _CARRIER[profile_name],
        "sha256": hashlib.sha256(b"".join(frames)).hexdigest(),
        "frames": [frame.hex() for frame in frames],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE_PATH.read_text())


class TestGoldenWireFixtures:
    def test_fixture_covers_all_profiles(self, golden):
        assert set(golden) == set(PROFILES)
        for entry in golden.values():
            assert entry["frames"]

    @pytest.mark.parametrize("profile_name", PROFILES)
    def test_capture_bytes_are_stable(self, golden, profile_name):
        regenerated = _capture_entry(profile_name)
        pinned = golden[profile_name]
        assert regenerated["frames"] == pinned["frames"], (
            f"{profile_name} wire bytes drifted from the golden capture"
        )
        assert regenerated["sha256"] == pinned["sha256"]

    @pytest.mark.parametrize("profile_name", PROFILES)
    def test_validator_finds_zero_violations(self, golden, profile_name):
        entry = golden[profile_name]
        validator = WireValidator(
            name=f"golden-{profile_name}",
            profile=profile_by_name(profile_name),
            carrier_num_prb=entry["carrier_num_prb"],
        )
        for frame_hex in entry["frames"]:
            validator.observe_bytes(bytes.fromhex(frame_hex), tap="golden")
        assert validator.report.frames_checked == len(entry["frames"])
        assert validator.report.ok, validator.report.format()

    @pytest.mark.parametrize("profile_name", PROFILES)
    def test_frames_parse_and_repack_byte_identical(
        self, golden, profile_name
    ):
        entry = golden[profile_name]
        for frame_hex in entry["frames"]:
            wire = bytes.fromhex(frame_hex)
            packet = parse_packet(
                wire, carrier_num_prb=entry["carrier_num_prb"]
            )
            assert packet.pack() == wire

    def test_cross_profile_validation_flags_width(self, golden):
        # The captures really do carry per-vendor compression: srsRAN's
        # width-9 frames violate a Radisys (width-14) validator.
        validator = WireValidator(
            name="cross",
            profile=profile_by_name("Radisys"),
            carrier_num_prb=273,
        )
        for frame_hex in golden["srsRAN"]["frames"]:
            validator.observe_bytes(bytes.fromhex(frame_hex))
        assert (
            validator.report.count(ViolationClass.BFP_WIDTH_MISMATCH) > 0
        )


if __name__ == "__main__":
    FIXTURE_PATH.write_text(
        json.dumps(
            {name: _capture_entry(name) for name in PROFILES}, indent=1
        )
        + "\n"
    )
    print(f"wrote {FIXTURE_PATH}")
