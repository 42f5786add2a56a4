"""Golden modcomp wire fixtures, one capture per vendor profile.

``golden_modcomp.json`` pins the exact on-wire bytes of the same small
deterministic exchange :mod:`tests.conformance.test_golden_wire` uses,
renegotiated onto each vendor's modulation-compression parameters.  The
BFP captures in ``golden_wire.json`` are asserted untouched alongside:
the codec-dispatch refactor must not move a single BFP byte.

Regenerate after an *intentional* wire-format change with either::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src:. python -m pytest \
        tests/conformance/test_golden_modcomp.py
    PYTHONPATH=src:. python -m tests.conformance.test_golden_modcomp
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.conformance import WireValidator
from repro.conformance.violations import ViolationClass
from repro.fronthaul.cplane import Direction
from repro.fronthaul.packet import parse_packet
from repro.fronthaul.timing import symbol_time
from repro.ran.stacks import negotiate_compression, profile_by_name
from tests.conformance.builders import cplane_packet
from tests.conformance.test_golden_wire import (
    _CARRIER,
    _SEEDS,
    DU_MAC,
    PROFILES,
    RU_MAC,
    _section,
    _uplane,
)
from tests.conformance import test_golden_wire as bfp_golden

FIXTURE_PATH = Path(__file__).parent / "golden_modcomp.json"


def build_capture(profile_name):
    """The golden-wire exchange with the cell negotiated onto modcomp."""
    profile = profile_by_name(profile_name)
    carrier = _CARRIER[profile_name]
    compression = negotiate_compression(profile, "modcomp")
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
                eaxc=bfp_golden.EAXC,
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
                eaxc=bfp_golden.EAXC,
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


def _write_fixture():
    FIXTURE_PATH.write_text(
        json.dumps(
            {name: _capture_entry(name) for name in PROFILES}, indent=1
        )
        + "\n"
    )


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        _write_fixture()
    return json.loads(FIXTURE_PATH.read_text())


class TestGoldenModCompFixtures:
    def test_fixture_covers_all_profiles(self, golden):
        assert set(golden) == set(PROFILES)
        for entry in golden.values():
            assert entry["frames"]

    @pytest.mark.parametrize("profile_name", PROFILES)
    def test_capture_bytes_are_stable(self, golden, profile_name):
        regenerated = _capture_entry(profile_name)
        pinned = golden[profile_name]
        assert regenerated["frames"] == pinned["frames"], (
            f"{profile_name} modcomp wire bytes drifted from the golden "
            "capture"
        )
        assert regenerated["sha256"] == pinned["sha256"]

    @pytest.mark.parametrize("profile_name", PROFILES)
    def test_validator_finds_zero_violations(self, golden, profile_name):
        profile = profile_by_name(profile_name)
        entry = golden[profile_name]
        validator = WireValidator(
            name=f"golden-modcomp-{profile_name}",
            profile=profile,
            carrier_num_prb=entry["carrier_num_prb"],
            allowed_compressions={negotiate_compression(profile, "modcomp")},
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

    def test_modcomp_frames_violate_a_bfp_only_validator(self, golden):
        # The codec really is on the wire: a validator that only
        # negotiated BFP classifies every modcomp udCompHdr as a
        # wrong-codec payload.
        validator = WireValidator(
            name="cross-codec",
            profile=profile_by_name("srsRAN"),
            carrier_num_prb=106,
        )
        for frame_hex in golden["srsRAN"]["frames"]:
            validator.observe_bytes(bytes.fromhex(frame_hex))
        assert validator.report.count(ViolationClass.CODEC_MISMATCH) > 0
        assert validator.report.count(ViolationClass.BFP_WIDTH_MISMATCH) == 0


class TestBfpGoldensUnchanged:
    """The dispatch refactor must leave every BFP golden byte alone."""

    @pytest.mark.parametrize("profile_name", PROFILES)
    def test_bfp_capture_still_matches_pinned_fixture(self, profile_name):
        pinned = json.loads(bfp_golden.FIXTURE_PATH.read_text())
        regenerated = bfp_golden._capture_entry(profile_name)
        assert regenerated["frames"] == pinned[profile_name]["frames"]
        assert regenerated["sha256"] == pinned[profile_name]["sha256"]

    def test_codecs_produce_distinct_wire_bytes(self, golden):
        pinned = json.loads(bfp_golden.FIXTURE_PATH.read_text())
        for name in PROFILES:
            assert golden[name]["sha256"] != pinned[name]["sha256"]


if __name__ == "__main__":
    _write_fixture()
    print(f"wrote {FIXTURE_PATH}")
