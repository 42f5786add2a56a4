"""WireValidator: one regression test per violation class, plus report
semantics and fault-layer integration."""

import pytest

from repro.conformance import (
    ConformanceReport,
    Violation,
    ViolationClass,
    WireValidator,
)
from repro.faults import FaultConfig, FaultInjector
from repro.fronthaul.compression import BFP_COMP_METH, CompressionConfig
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.timing import SymbolTime
from repro.obs import Observability
from repro.ran.stacks import profile_by_name
from tests.conformance.builders import cplane_packet, uplane_packet


def fresh_validator(**kwargs):
    kwargs.setdefault("profile", profile_by_name("srsRAN"))
    kwargs.setdefault("carrier_num_prb", 106)
    return WireValidator(name="test", **kwargs)


def only_class(validator, expected):
    """Assert exactly one violation class fired, and return its count."""
    counts = dict(validator.report.counts)
    assert set(counts) == {expected.value}, counts
    return counts[expected.value]


MODCOMP = profile_by_name("srsRAN").modcomp


def _payload(packet, edits):
    """The first section's payload bytes with ``{index: value}`` edits."""
    payload = bytearray(packet.message.sections[0].payload_bytes())
    for index, value in edits.items():
        payload[index] = value
    return bytes(payload)


def _bad_version():
    data = bytearray(cplane_packet(0, 10).pack())
    data[14] = (data[14] & 0x0F) | (0x2 << 4)  # eCPRI version 2
    return [bytes(data)]


#: One crafted scenario per violation class: the frames it feeds a fresh
#: validator, in order (bytes take the wire-level parser).
SEEDED = {
    # Cut mid-section: payloadSize no longer matches the wire bytes.
    ViolationClass.BAD_ECPRI_LENGTH: lambda: [uplane_packet(0, 4).pack()[:-5]],
    ViolationClass.MALFORMED_FRAME: _bad_version,
    # PRBs [100, 120) overrun the 106-PRB carrier.
    ViolationClass.SECTION_STRUCTURE: lambda: [cplane_packet(100, 20)],
    ViolationClass.PRB_SECTION_MISMATCH: lambda: [
        cplane_packet(0, 20, seq=0), uplane_packet(30, 10, seq=1)
    ],
    ViolationClass.BFP_WIDTH_MISMATCH: lambda: [
        cplane_packet(0, 4, seq=0),
        uplane_packet(0, 4, seq=1, compression=CompressionConfig(
            iq_width=14, comp_meth=BFP_COMP_METH
        )),
    ],
    # Exponent 15 > the legal max 7 of width-9 BFP.
    ViolationClass.ILLEGAL_BFP_EXPONENT: lambda: [
        cplane_packet(0, 2, seq=0),
        uplane_packet(
            0, 2, seq=1, payload=_payload(uplane_packet(0, 2), {0: 0x0F})
        ),
    ],
    # A modcomp payload on a deployment that negotiated only BFP.
    ViolationClass.CODEC_MISMATCH: lambda: [
        cplane_packet(0, 4, seq=0),
        uplane_packet(0, 4, seq=1, compression=MODCOMP),
    ],
    # csf set and scaler 20 > the legal max 13 of width-3 modcomp.
    ViolationClass.ILLEGAL_MODCOMP_PARAM: lambda: [
        cplane_packet(0, 2, seq=0, compression=MODCOMP),
        uplane_packet(0, 2, seq=1, compression=MODCOMP, payload=_payload(
            uplane_packet(0, 2, compression=MODCOMP), {0: 0x80, 1: 20}
        )),
    ],
    ViolationClass.SEQ_GAP: lambda: [
        cplane_packet(0, 10, seq=0), cplane_packet(0, 10, seq=2)
    ],
    ViolationClass.SEQ_DUP: lambda: [cplane_packet(0, 10, seq=5)] * 2,
    ViolationClass.STALE_SLOT: lambda: [
        cplane_packet(0, 10, seq=0, time=SymbolTime(2, 0, 0, 0)),
        cplane_packet(0, 10, seq=1, time=SymbolTime(0, 0, 0, 0)),
    ],
}
#: The modcomp-parameter scenario's validator negotiated modcomp, so only
#: the corrupt parameter, not the codec choice, is illegal.
SEEDED_VALIDATOR = {
    ViolationClass.ILLEGAL_MODCOMP_PARAM: {"allowed_compressions": (MODCOMP,)},
}


class TestViolationClasses:
    def test_every_class_has_a_seeded_scenario(self):
        assert set(SEEDED) == set(ViolationClass)

    @pytest.mark.parametrize("expected", list(SEEDED), ids=lambda c: c.value)
    def test_seeded_scenario_fires_exactly_its_class(self, expected):
        validator = fresh_validator(**SEEDED_VALIDATOR.get(expected, {}))
        for frame in SEEDED[expected]():
            if isinstance(frame, bytes):
                validator.observe_bytes(frame)
            else:
                validator.observe(frame)
        assert only_class(validator, expected) >= 1

    def test_clean_pair_has_no_violations(self):
        validator = fresh_validator()
        validator.observe(cplane_packet(0, 20, seq=0))
        validator.observe(uplane_packet(0, 4, seq=1))
        assert validator.report.ok
        assert validator.report.frames_checked == 2

    def test_wire_level_clean_frame_passes_the_strict_parser(self):
        """``observe_bytes`` on a packed clean frame: the wire-level tap
        path (parse, then every stateful check) reports nothing."""
        validator = fresh_validator()
        found = validator.observe_bytes(cplane_packet(0, 10, seq=0).pack())
        assert found == []
        assert validator.report.ok
        assert validator.report.frames_checked == 1

    def test_bad_ecpri_length_truncated_frame(self):
        validator = fresh_validator()
        data = uplane_packet(0, 4).pack()
        found = validator.observe_bytes(data[:-5], tap="t")
        assert [v.violation_class for v in found] == [
            ViolationClass.BAD_ECPRI_LENGTH
        ]
        assert only_class(validator, ViolationClass.BAD_ECPRI_LENGTH) == 1

    def test_bad_ecpri_length_inflated_size_field(self):
        validator = fresh_validator()
        data = bytearray(cplane_packet(0, 10).pack())
        # payloadSize is bytes 16..17 (14 eth + 2 into the eCPRI header).
        data[16:18] = (int.from_bytes(data[16:18], "big") + 3).to_bytes(
            2, "big"
        )
        found = validator.observe_bytes(bytes(data))
        assert found[0].violation_class is ViolationClass.BAD_ECPRI_LENGTH

    def test_malformed_frame_bad_version(self):
        validator = fresh_validator()
        data = bytearray(cplane_packet(0, 10).pack())
        data[14] = (data[14] & 0x0F) | (0x2 << 4)
        validator.observe_bytes(bytes(data))
        assert only_class(validator, ViolationClass.MALFORMED_FRAME) == 1

    def test_section_structure_carrier_overrun(self):
        validator = fresh_validator()
        validator.observe(cplane_packet(100, 20))
        assert only_class(validator, ViolationClass.SECTION_STRUCTURE) == 1

    def test_section_structure_vendor_prb_cap(self):
        # Radisys caps U-plane sections at 136 PRBs; 150 violates it even
        # inside a 273-PRB carrier.
        profile = profile_by_name("Radisys")
        validator = WireValidator(
            name="test", profile=profile, carrier_num_prb=273
        )
        validator.observe(
            cplane_packet(0, 150, seq=0, compression=profile.compression)
        )
        validator.observe(
            uplane_packet(
                0, 150, seq=1, compression=profile.compression, amplitude=3
            )
        )
        assert only_class(validator, ViolationClass.SECTION_STRUCTURE) == 1

    def test_section_structure_sibling_overlap(self):
        validator = fresh_validator()
        packet = cplane_packet(0, 10)
        second = cplane_packet(5, 10).message.sections[0]
        packet.message.sections.append(second)
        validator.observe(packet)
        assert only_class(validator, ViolationClass.SECTION_STRUCTURE) == 1

    def test_prb_section_mismatch_unscheduled(self):
        validator = fresh_validator()
        validator.observe(cplane_packet(0, 20, seq=0))
        validator.observe(uplane_packet(30, 10, seq=1))
        assert only_class(validator, ViolationClass.PRB_SECTION_MISMATCH) == 1

    def test_prb_section_mismatch_no_cplane_at_all(self):
        validator = fresh_validator()
        validator.observe(uplane_packet(0, 4, seq=0))
        assert only_class(validator, ViolationClass.PRB_SECTION_MISMATCH) == 1

    def test_bfp_width_mismatch_against_profile(self):
        validator = fresh_validator()
        wide = CompressionConfig(iq_width=14, comp_meth=BFP_COMP_METH)
        validator.observe(cplane_packet(0, 4, seq=0))
        validator.observe(uplane_packet(0, 4, seq=1, compression=wide))
        assert only_class(validator, ViolationClass.BFP_WIDTH_MISMATCH) == 1

    def test_illegal_bfp_exponent_raw_byte(self):
        validator = fresh_validator()
        good = uplane_packet(0, 2, seq=1).message.sections[0].payload_bytes()
        payload = bytearray(good)
        payload[0] = 0x0F  # legal max for width 9 is 16 - 9 = 7
        validator.observe(cplane_packet(0, 2, seq=0))
        validator.observe(uplane_packet(0, 2, seq=1, payload=bytes(payload)))
        assert only_class(validator, ViolationClass.ILLEGAL_BFP_EXPONENT) == 1

    def test_illegal_bfp_exponent_reserved_nibble(self):
        # The upper nibble of the exponent byte is reserved-zero on the
        # wire; a set bit there is corruption even if the low nibble is
        # a legal exponent.
        validator = fresh_validator()
        good = uplane_packet(0, 2, seq=1).message.sections[0].payload_bytes()
        payload = bytearray(good)
        payload[0] |= 0x50
        validator.observe(cplane_packet(0, 2, seq=0))
        validator.observe(uplane_packet(0, 2, seq=1, payload=bytes(payload)))
        assert only_class(validator, ViolationClass.ILLEGAL_BFP_EXPONENT) == 1

    def test_seq_gap(self):
        validator = fresh_validator()
        validator.observe(cplane_packet(0, 10, seq=0))
        found = validator.observe(cplane_packet(0, 10, seq=3))
        assert only_class(validator, ViolationClass.SEQ_GAP) == 1
        assert "2 sequence number(s) skipped" in found[0].detail

    def test_seq_gap_across_wrap(self):
        validator = fresh_validator()
        validator.observe(cplane_packet(0, 10, seq=254))
        validator.observe(cplane_packet(0, 10, seq=1))  # lost 255 and 0
        assert only_class(validator, ViolationClass.SEQ_GAP) == 1

    def test_seq_wrap_clean_is_not_a_gap(self):
        validator = fresh_validator()
        validator.observe(cplane_packet(0, 10, seq=255))
        validator.observe(cplane_packet(0, 10, seq=0))
        assert validator.report.ok

    def test_seq_dup(self):
        validator = fresh_validator()
        packet = cplane_packet(0, 10, seq=5)
        validator.observe(packet)
        validator.observe(packet)
        assert only_class(validator, ViolationClass.SEQ_DUP) == 1

    def test_replication_to_distinct_dsts_is_not_a_dup(self):
        # A DAS replicating one frame to two RUs reuses src/eAxC/seq on
        # both copies; distinct destinations are distinct streams.
        validator = fresh_validator()
        validator.observe(cplane_packet(0, 10, seq=0))
        other = cplane_packet(
            0, 10, seq=0, dst=MacAddress.from_int(0x02_00_00_00_00_99)
        )
        validator.observe(other)
        assert validator.report.ok

    def test_stale_slot(self):
        validator = fresh_validator()
        validator.observe(
            cplane_packet(0, 10, seq=0, time=SymbolTime(2, 0, 0, 0))
        )
        validator.observe(
            cplane_packet(0, 10, seq=1, time=SymbolTime(0, 0, 0, 0))
        )
        assert only_class(validator, ViolationClass.STALE_SLOT) == 1

    def test_frame_epoch_wrap_is_not_stale(self):
        validator = fresh_validator()
        validator.observe(
            cplane_packet(0, 10, seq=0, time=SymbolTime(255, 9, 1, 0))
        )
        validator.observe(
            cplane_packet(0, 10, seq=1, time=SymbolTime(0, 0, 0, 0))
        )
        assert validator.report.ok


class TestFaultIntegration:
    """Injected wire corruption classifies as the right violation class."""

    def test_injector_truncation_classifies(self, rng):
        injector = FaultInjector(
            FaultConfig(truncate_rate=1.0), seed=9, carrier_num_prb=106
        )
        validator = fresh_validator()
        data = uplane_packet(0, 8).pack()
        flagged = 0
        for cut in range(15, len(data) - 1):
            found = validator.observe_bytes(data[:cut])
            assert len(found) == 1
            assert found[0].violation_class in (
                ViolationClass.BAD_ECPRI_LENGTH,
                ViolationClass.MALFORMED_FRAME,
            )
            flagged += 1
        assert flagged == validator.report.total_violations
        # And the injector itself can never deliver a truncated U-plane
        # frame: the strict parser kills every cut (see test_errors.py).
        assert injector._truncate(uplane_packet(0, 8)) is None

    def test_injector_bitflip_classifies_or_passes(self):
        injector = FaultInjector(
            FaultConfig(corrupt_rate=1.0, corrupt_bits=4),
            seed=31,
            carrier_num_prb=106,
        )
        validator = fresh_validator()
        survivors = 0
        for seq in range(40):
            damaged = injector._corrupt(uplane_packet(0, 4, seq=seq))
            if damaged is None:
                continue  # killed on the wire before any host saw it
            survivors += 1
            validator.observe(damaged)
        assert survivors > 0
        # Surviving reparses may still violate (flipped exponent bits,
        # shifted PRB ranges...) but every record must carry a class from
        # the taxonomy and the counters must reconcile.
        assert validator.report.total_violations == sum(
            validator.report.counts.values()
        )
        for record in validator.report.records:
            assert isinstance(record.violation_class, ViolationClass)


class TestReport:
    def test_round_trip_dict(self):
        validator = fresh_validator()
        validator.observe(cplane_packet(100, 20))
        report = validator.report
        clone = ConformanceReport.from_dict(report.to_dict())
        assert clone.frames_checked == report.frames_checked
        assert clone.counts == report.counts
        assert clone.records == report.records

    def test_merge_accumulates(self):
        first = ConformanceReport()
        second = ConformanceReport()
        first.frames_checked = 3
        second.frames_checked = 4
        violation = Violation(ViolationClass.SEQ_GAP, "x")
        first.record(violation)
        second.record(violation)
        second.record(Violation(ViolationClass.SEQ_DUP, "y"))
        first.merge(second)
        assert first.frames_checked == 7
        assert first.count(ViolationClass.SEQ_GAP) == 2
        assert first.count(ViolationClass.SEQ_DUP) == 1
        assert len(first.records) == 3

    def test_record_cap_keeps_counts_exact(self):
        report = ConformanceReport(max_records=2)
        for index in range(5):
            report.record(Violation(ViolationClass.SEQ_GAP, str(index)))
        assert len(report.records) == 2
        assert report.count(ViolationClass.SEQ_GAP) == 5

    def test_format_mentions_classes(self):
        validator = fresh_validator()
        validator.observe(cplane_packet(100, 20))
        text = validator.report.format()
        assert "section_structure" in text
        assert "violations: 1" in text


class TestObsExport:
    def test_counters_exported_when_enabled(self):
        obs = Observability(enabled=True)
        validator = fresh_validator(obs=obs)
        validator.observe(cplane_packet(0, 10, seq=0))
        validator.observe(cplane_packet(0, 10, seq=2))
        snap = obs.registry.snapshot()
        frames = snap["conformance_frames_total"]["series"]
        assert sum(frames.values()) == 2
        violations = snap["conformance_violations_total"]["series"]
        assert violations == {"test,seq_gap": 1}

    def test_disabled_obs_exports_nothing(self):
        validator = fresh_validator()
        validator.observe(cplane_packet(0, 10, seq=0))
        assert not validator.obs.enabled
