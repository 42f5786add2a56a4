"""The encoder's parse rides on the section.

Every in-process encode hands its ``(shifts, mantissas)`` to the section
it builds, so nothing this process packed is bit-unpacked again, and a
merge of one such operand forwards its bytes.  Pinned here: the parse
equals ``parse_wire`` of the payload at every encode site; who shares,
drops and sheds it; that the one-operand forward is byte-identical to
decode-sum-encode wherever it is taken (and not taken where it would not
be); an end-to-end run that never calls ``unpack_mantissas``; and that
the bytes such a section packs on its first read are the eager codec's.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.reference import (
    scalar_compress,
    scalar_decompress,
    scalar_merge,
)
from repro.core.actions import ActionContext, ActionKind, PacketCache
from repro.eval import kit
from repro.fronthaul import compression
from repro.fronthaul.compression import (
    MOD_COMP_METH,
    NO_COMP_METH,
    CompressionConfig,
    codec_for,
)
from repro.fronthaul.cplane import Direction
from repro.fronthaul.packet import make_packet, parse_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.scale import Scenario
from repro.scale.build import build_groups
from tests.conformance.builders import DST, SRC, uplane_packet
from tests.fronthaul.test_codec_kernels import ALL_CONFIGS, BLOCK, _IDS, corner_rows
from tests.ran.test_slot_build import loaded_du, requested_ru, slot_items

BFP9 = CompressionConfig(iq_width=9)
MODCOMP4 = CompressionConfig(iq_width=4, comp_meth=MOD_COMP_METH)
RAW16 = CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH)
MODCOMP1 = CompressionConfig(iq_width=1, comp_meth=MOD_COMP_METH)
CODECS = [BFP9, MODCOMP4, RAW16]
_CODEC_IDS = ["bfp9", "modcomp4", "raw16"]


def rows(seed: int, n_prbs: int, amplitude: int = 9000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-amplitude, amplitude, size=(n_prbs, 24), dtype=np.int16)


def assert_rides(section: UPlaneSection) -> None:
    """The section carries a read-only parse equal to its wire parse."""
    assert section._parse is not None
    shifts, mantissas = section._parse
    wire_shifts, wire_mantissas = codec_for(section.compression).parse_wire(
        section.payload, section.num_prb
    )
    assert shifts.dtype == wire_shifts.dtype and mantissas.dtype == np.int16
    assert shifts.tolist() == wire_shifts.tolist()
    assert mantissas.tolist() == wire_mantissas.tolist()
    assert not shifts.flags.writeable and not mantissas.flags.writeable


@pytest.fixture
def codec_calls(monkeypatch):
    """Counts of the two mantissa kernels while the test runs."""
    calls = {"pack_mantissas": 0, "unpack_mantissas": 0}

    def counted(name):
        inner = getattr(compression, name)

        def proxy(array, width):
            calls[name] += 1
            return inner(array, width)

        return proxy

    for name in calls:
        monkeypatch.setattr(compression, name, counted(name))
    return calls


# -- (a) lossy once, stable forever ---------------------------------------------


def _all_negative(samples: np.ndarray) -> np.ndarray:
    return -np.abs(samples.astype(np.int32)).clip(1, 32768).astype(np.int16)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=_IDS)
class TestRecompressionIsStable:
    """``compress(decompress(compress(x))) == compress(x)`` — the licence
    of the one-operand forward — at every width where the codec says so,
    against the scalar oracle too."""

    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.sampled_from([1, 40, 4000, 32767]))
    @settings(max_examples=25, deadline=None)
    def test_second_pass_reproduces_the_first(self, config, seed, amplitude):
        codec = codec_for(config)
        random = rows(seed, 6, amplitude)
        samples = np.concatenate([corner_rows(), random, _all_negative(random)])
        wire = codec.compress(samples)
        decoded = codec.decompress(wire, len(samples))
        oracle = scalar_compress(
            scalar_decompress(wire, len(samples), config.iq_width, config.comp_meth),
            config.iq_width, config.comp_meth,
        )
        assert codec.compress(decoded) == oracle
        if codec.recompression_stable:
            assert oracle == wire
        else:
            # 1-bit modcomp: an all-negative PRB at scaler s decodes to
            # -2**(s-1) and comes back at s-1 (the all -32768 corner row).
            assert config == MODCOMP1 and oracle != wire

    def test_only_one_bit_modcomp_is_unstable(self, config):
        assert codec_for(config).recompression_stable == (config != MODCOMP1)


# -- (b) every in-process encode site attaches the parse ---------------------------


@pytest.mark.parametrize("config", CODECS, ids=_CODEC_IDS)
class TestEncodeSitesAttach:
    def test_from_samples_and_replace_payload(self, config):
        section = UPlaneSection.from_samples(3, 10, rows(1, 7), config)
        assert_rides(section)
        rewritten = section.replace_payload(rows(2, 7))
        assert_rides(rewritten)
        assert rewritten is not section and rewritten.payload != section.payload
        # An untouched decode is re-encoded like any other samples.
        same = section.replace_payload(section.iq_samples())
        assert_rides(same)
        assert same.payload is not section.payload

    def test_from_samples_wider_than_a_block(self, config):
        section = UPlaneSection.from_samples(0, 0, rows(3, BLOCK + 9), config)
        assert_rides(section)
        assert section.payload == scalar_compress(
            rows(3, BLOCK + 9).tolist(), config.iq_width, config.comp_meth
        )

    def test_ranges_straddling_the_block_edge(self, config):
        lengths = [BLOCK - 3, 7, 1, BLOCK, 2]  # 2nd and 4th straddle
        pieces = [(index, 5, rows(10 + index, n)) for index, n in enumerate(lengths)]
        sections = UPlaneSection.from_ranges(pieces, config)
        codec = codec_for(config)
        assert [s.payload for s in sections] == codec.compress_ranges(
            [samples for _, _, samples in pieces]
        )
        for (section_id, start_prb, samples), section in zip(pieces, sections):
            assert (section.section_id, section.start_prb, section.num_prb) == (
                section_id, start_prb, len(samples)
            )
            assert_rides(section)
            assert section.iq_samples().tolist() == codec.decompress(
                section.payload, section.num_prb
            ).tolist()

    def test_wide_accumulators_ride_as_int16(self, config):
        wide = rows(4, 5).astype(np.int64)
        assert_rides(UPlaneSection.from_samples(0, 0, wide, config))

    def test_merge_iq(self, config):
        operands = [
            UPlaneSection.from_samples(2, 4, rows(seed, 9), config)
            for seed in (5, 6, 7)
        ]
        merged = ActionContext(PacketCache()).merge_iq(operands)
        assert_rides(merged)
        assert bytes(merged.payload) == scalar_merge(
            [s.payload for s in operands], 9, config.iq_width, config.comp_meth
        )

    def test_ru_build_uplink(self, config):
        ru = requested_ru(config)
        packets = ru.build_uplink(slot_items(ru))
        assert len(packets) == 10
        for packet in packets:
            for section in packet.message.sections:
                assert_rides(section)

    def test_du_build_dl_uplane(self, config):
        du = loaded_du(config, symbols_per_slot=14)
        uplane = [p for p in du.advance_slot(0) if p.is_uplane]
        assert len(uplane) >= 20  # more than one 512-PRB block of 106-PRB grids
        for packet in uplane:
            (section,) = packet.message.sections
            assert_rides(section)


# -- (c) who shares it, who drops it ----------------------------------------------


class TestSharingAndDropping:
    def test_clone_shares_the_parse(self, codec_calls):
        """Replicas decode without unpacking — what the memo was for."""
        packet = uplane_packet(num_prb=6, compression=BFP9)
        (section,) = packet.message.sections
        copies = [packet.clone() for _ in range(3)]
        for replica in copies:
            (twin,) = replica.message.sections
            assert twin is not section and twin._parse is section._parse
            assert twin.iq_samples().tolist() == section.iq_samples().tolist()
        assert codec_calls["unpack_mantissas"] == 0

    def test_dataclasses_replace_drops_it(self):
        section = UPlaneSection.from_samples(0, 0, rows(8, 4))
        other = UPlaneSection.from_samples(0, 0, rows(9, 4))
        swapped = dataclasses.replace(section, payload=other.payload)
        assert swapped._parse is None
        assert swapped.iq_samples().tolist() == other.iq_samples().tolist()
        assert dataclasses.replace(section, section_id=9)._parse is None

    def test_deepcopy_owns_its_bytes_and_shares_the_read_only_parse(self):
        packet = parse_packet(uplane_packet(num_prb=4).pack())
        (parsed,) = copy.deepcopy(packet).message.sections
        assert isinstance(parsed.payload, bytes) and parsed._parse is None
        section = UPlaneSection.from_samples(0, 0, rows(10, 4))
        twin = copy.deepcopy(section)
        assert twin.payload == section.payload and twin._parse is section._parse

    def test_wire_parsed_sections_carry_none(self, codec_calls):
        packet = uplane_packet(num_prb=5, compression=MODCOMP4)
        (parsed,) = parse_packet(packet.pack()).message.sections
        assert parsed._parse is None
        assert parsed.iq_samples().tolist() == (
            packet.message.sections[0].iq_samples().tolist()
        )
        assert codec_calls["unpack_mantissas"] == 1  # the wire path stays

    def test_shed_parse_falls_back_to_the_wire_bytes(self):
        section = UPlaneSection.from_samples(0, 0, rows(11, 4))
        expected = codec_for(section.compression).decompress(section.payload, 4)
        section.shed_parse()
        assert section._parse is None
        assert section.iq_samples().tolist() == expected.tolist()


# -- (d) the one-operand merge ----------------------------------------------------


def _merge(sections):
    ctx = ActionContext(PacketCache())
    return ctx.merge_iq(sections), ctx


@pytest.mark.parametrize("config", CODECS, ids=_CODEC_IDS)
class TestOneOperandMerge:
    def test_riding_operand_is_forwarded_with_the_modelled_cost(
        self, config, codec_calls
    ):
        operand = UPlaneSection.from_samples(6, 20, rows(12, 51), config)
        before = dict(codec_calls)
        merged, ctx = _merge([operand])
        assert codec_calls == before  # no pack, no unpack
        assert merged._pending is operand._pending  # one pass, still pending
        assert merged.payload is operand.payload
        assert merged is not operand and merged._parse is operand._parse
        assert (merged.section_id, merged.prb_range) == (6, (20, 71))
        assert ctx.trace.kinds() == [ActionKind.IQ_MERGE]
        assert ctx.trace.total_ns() == ctx.cost.merge_cost(51, 1)
        assert bytes(merged.payload) == scalar_merge(
            [operand.payload], 51, config.iq_width, config.comp_meth
        )

    def test_mixed_riding_and_wire_parsed_operands(self, config, codec_calls):
        riding = UPlaneSection.from_samples(1, 0, rows(13, 8), config)
        built = UPlaneSection.from_samples(1, 0, rows(14, 8), config)
        parsed = UPlaneSection(1, 0, 8, memoryview(built.payload), config)
        merged, _ = _merge([riding, parsed])
        assert codec_calls["unpack_mantissas"] == (config != RAW16)  # parsed only
        assert bytes(merged.payload) == scalar_merge(
            [riding.payload, built.payload], 8, config.iq_width, config.comp_meth
        )


class TestOneOperandMergeRenormalises:
    def test_wire_parsed_bfp_with_slack_exponent_and_reserved_nibble(self):
        """Off a wire the operand may be legal but not canonical: exponent
        one above the minimum, reserved high nibble set.  It is decoded
        and re-encoded, as at the parent — never forwarded."""
        codec = codec_for(BFP9)
        base = rows(15, 4)
        spare = (codec.exponents_for(base) + 1).astype(np.int16)[:, None]
        samples = (base >> spare) << spare  # exact one exponent up
        canonical = codec.compress(samples)
        slack_exponents = codec.read_exponents(canonical, 4) + 1
        slack = np.empty((4, BFP9.prb_payload_bytes()), dtype=np.uint8)
        slack[:, 0] = 0xA0 | slack_exponents  # reserved high nibble set
        slack[:, 1:] = compression.pack_mantissas(
            samples >> slack_exponents.astype(np.int16)[:, None], 9
        )
        slack = slack.tobytes()
        operand = UPlaneSection(0, 0, 4, slack, BFP9)
        assert operand.iq_samples().tolist() == samples.tolist()
        merged, ctx = _merge([operand])
        assert bytes(merged.payload) == scalar_merge([slack], 4, 9)
        assert bytes(merged.payload) == canonical != slack
        assert ctx.trace.kinds() == [ActionKind.IQ_MERGE]

    def test_one_bit_modcomp_is_never_forwarded(self):
        """The width where a second pass moves the bytes: the merge of
        one riding operand still equals decode-sum-encode."""
        samples = np.concatenate([corner_rows(), _all_negative(rows(16, 5))])
        operand = UPlaneSection.from_samples(0, 0, samples, MODCOMP1)
        merged, _ = _merge([operand])
        reference = scalar_merge([operand.payload], len(samples), 1, MOD_COMP_METH)
        assert bytes(merged.payload) == reference != operand.payload
        assert_rides(merged)


# -- (e) lifetime: the DU's reception log holds no parse -----------------------------


def _stage(stage, **params):
    return {"stage": stage, "params": params, "name": stage}


def _flows(seed):
    return [kit.flow("dl", 40.0), kit.flow("ul", 40.0, kind="poisson", seed=seed)]


def _radios(cell, count):
    return [{"name": f"{cell}-ru{index}", "n_antennas": 2} for index in range(count)]


def lifetime_spec():
    shared = kit.cell(
        "host", 3, _flows(3), group="campus", center_frequency_hz=3.45e9,
        chain=[_stage("ru_sharing", ru="host-ru", cells=["host", "guest"])],
    )
    shared["rus"][0].update(num_prb=160, center_frequency_hz=3.46e9)
    return kit.scenario("lifetime", 6, 2, [
        kit.cell("das", 1, _flows(1), rus=_radios("das", 2),
                 chain=[_stage("das")]),
        kit.cell("dmimo", 2, _flows(2), rus=_radios("dmimo", 2),
                 chain=[_stage("dmimo")]),
        shared,
        kit.cell("guest", 4, _flows(4), group="campus",
                 center_frequency_hz=3.47e9, chain=[]),
    ])


def test_nothing_the_du_retains_carries_a_parse():
    groups = build_groups(lifetime_spec())
    assert len(groups) == 3
    for group in groups:
        for _ in range(6):  # slot 4 holds the PRACH occasion
            group.network.run_slot()
    dus = [built.du for group in groups for built in group.cells]
    assert all(du.uplink_receptions for du in dus)
    assert any(du.counters.prach_detections for du in dus)
    for du in dus:
        for reception in du.uplink_receptions:
            for section in reception.sections:
                assert section._parse is None


# -- (f) end to end: a clean run never unpacks; a lossy one is unmoved ---------------


def two_das_spec(wire=None):
    extra = {"wire": wire} if wire else {}
    return kit.scenario("riding", 10, 3, [
        kit.cell("solo", 1, _flows(5), chain=[_stage("das")], **extra),
        kit.cell("pair", 2, _flows(5), rus=_radios("pair", 2),
                 chain=[_stage("das", partial_merge=True)], **extra),
    ])


#: ``Scenario(two_das_spec(LOSSY)).run(workers=1).digest`` at the parent
#: commit (PR 18, e7a6e72), where every payload was decoded from its bytes.
LOSSY = {"kind": "corrupt", "rate": 0.2, "bits": 1, "seed": 9}
LOSSY_DIGEST_AT_PARENT = (
    "3695d8dd4686d3b8914643f4d46b0a11af6f054be8fef8c75c26a273ac2dafdd"
)


def test_clean_run_never_unpacks_and_lossy_digest_is_the_parents(codec_calls):
    clean = Scenario(two_das_spec()).run(workers=1)
    delivered = sum(
        report["ul_packets"]
        for group in clean.groups.values() for report in group.reports
    )
    assert delivered > 0 and codec_calls["pack_mantissas"] > 0
    assert codec_calls["unpack_mantissas"] == 0
    lossy = Scenario(two_das_spec(LOSSY)).run(workers=1)
    assert codec_calls["unpack_mantissas"] > 0  # re-parsed frames are decoded
    assert lossy.digest == LOSSY_DIGEST_AT_PARENT != clean.digest



# -- (g) bytes on demand: a pending payload packs to the eager codec's bytes -------

DIFFERENTIAL_CONFIGS = ALL_CONFIGS + [RAW16]
_DIFFERENTIAL_IDS = _IDS + ["raw16"]


def _pending(section: UPlaneSection) -> bool:
    """Nothing has read the section's bytes yet."""
    return "payload" not in vars(section) and section._pending is not None


def encoded_by_every_site(config, seed, amplitude, lengths):
    """``(section, eager bytes)`` from every in-process encode site, no
    section read yet; the eager bytes are ``codec.compress`` of what the
    site encodes."""
    codec = codec_for(config)

    def decoded(samples):
        return codec.decompress(codec.compress(samples), len(samples))

    ranges = [rows(seed + index, n, amplitude) for index, n in enumerate(lengths)]
    built = UPlaneSection.from_ranges(
        [(index, 2, samples) for index, samples in enumerate(ranges)], config
    )
    yield from zip(built, map(codec.compress, ranges))
    first, last = ranges[0], rows(seed ^ 0x5A5A, len(ranges[0]), amplitude)
    yield UPlaneSection.from_samples(7, 1, first, config), codec.compress(first)
    source = UPlaneSection.from_samples(7, 1, first, config)
    yield source.replace_payload(last), codec.compress(last)
    operands = [UPlaneSection.from_samples(3, 0, s, config) for s in (first, last)]
    total = decoded(first).astype(np.int32) + decoded(last)
    yield UPlaneSection.merged(operands), codec.compress(
        total.clip(-32768, 32767).astype(np.int16)
    )
    # The lone operand: forwarded still pending, or (1-bit modcomp) re-encoded.
    lone = UPlaneSection.from_samples(3, 0, last, config)
    yield UPlaneSection.merged([lone]), codec.compress(decoded(last))


@pytest.mark.parametrize("config", DIFFERENTIAL_CONFIGS, ids=_DIFFERENTIAL_IDS)
@given(
    seed=st.integers(0, 2**31),
    amplitude=st.sampled_from([1, 40, 4000, 32767]),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=4),
)
@settings(max_examples=6, deadline=None)
def test_every_encode_site_packs_the_eager_bytes_on_first_read(
    config, seed, amplitude, lengths
):
    codec = codec_for(config)
    compressed = config.comp_meth != NO_COMP_METH
    for section, eager in encoded_by_every_site(config, seed, amplitude, lengths):
        assert _pending(section)
        message = UPlaneMessage(Direction.UPLINK, SymbolTime(0, 0, 0, 3), [section])
        packet = make_packet(SRC, DST, message)
        size = packet.wire_size
        replicas = [packet.clone().message.sections[0] for _ in range(3)]
        exponents = section.exponents() if compressed else None
        assert _pending(section) and all(map(_pending, replicas))
        # The first read packs; every later reader sees the same bytes.
        assert section.payload == eager and not _pending(section)
        assert_rides(section)
        if compressed:
            assert exponents.tolist() == codec.read_exponents(
                eager, section.num_prb
            ).tolist()
        else:
            with pytest.raises(ValueError, match="no BFP exponents"):
                section.exponents()
        assert size == packet.wire_size == len(packet.pack())
        twin, deep, swapped = replicas
        assert twin.payload is section.payload  # replicas share one object
        assert copy.deepcopy(deep).payload == eager
        assert dataclasses.replace(swapped, section_id=9).payload == eager
        assert swapped.payload == eager


def test_a_payload_the_wrong_size_for_its_range_still_raises():
    section = UPlaneSection.from_samples(0, 0, rows(17, 4))
    with pytest.raises(ValueError, match="does not match 4 PRBs"):
        section.replace_payload(rows(18, 5))
