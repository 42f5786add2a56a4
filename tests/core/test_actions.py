"""Tests for the four RANBooster actions (A1-A4)."""

import dataclasses
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import actions
from repro.core.actions import (
    ActionContext,
    ActionKind,
    PacketCache,
    SlotRing,
)
from repro.core.latency import ActionCostModel
from repro.fronthaul.compression import CompressionConfig, codec_for
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.obs import SpanEvent

from tests.conftest import action_kinds, random_prb_samples


@pytest.fixture
def ctx():
    return ActionContext(PacketCache())


def make_uplane(rng, du_mac, ru_mac, n_prbs=6, start_prb=0,
                direction=Direction.UPLINK, amplitude=4000):
    section = UPlaneSection.from_samples(
        section_id=0, start_prb=start_prb,
        samples=random_prb_samples(rng, n_prbs, amplitude),
    )
    message = UPlaneMessage(
        direction=direction, time=SymbolTime(0, 0, 0, 5), sections=[section]
    )
    return make_packet(du_mac, ru_mac, message)


def make_cplane(du_mac, ru_mac, num_prb=106):
    message = CPlaneMessage(
        direction=Direction.DOWNLINK,
        time=SymbolTime(0, 0, 0, 0),
        sections=[CPlaneSection(section_id=0, start_prb=0, num_prb=num_prb)],
    )
    return make_packet(du_mac, ru_mac, message)


class TestA1Routing:
    def test_forward_rewrites_dst(self, ctx, rng, du_mac, ru_mac):
        packet = make_uplane(rng, du_mac, ru_mac)
        new_dst = MacAddress.from_int(0xBEEF)
        ctx.forward(packet, dst=new_dst)
        assert len(ctx.emissions) == 1
        assert ctx.emissions[0].eth.dst == new_dst
        assert action_kinds(ctx) == [ActionKind.ROUTE]

    def test_forward_without_rewrite(self, ctx, rng, du_mac, ru_mac):
        packet = make_uplane(rng, du_mac, ru_mac)
        ctx.forward(packet)
        assert ctx.emissions[0].eth.dst == ru_mac

    def test_drop_emits_nothing(self, ctx, rng, du_mac, ru_mac):
        ctx.drop(make_uplane(rng, du_mac, ru_mac))
        assert ctx.emissions == []
        assert action_kinds(ctx) == [ActionKind.DROP]

    def test_route_runs_in_kernel(self, ctx, rng, du_mac, ru_mac):
        ctx.forward(make_uplane(rng, du_mac, ru_mac))
        assert not ctx.needs_userspace()


class TestA2Replication:
    def test_replicate_count(self, ctx, rng, du_mac, ru_mac):
        packet = make_uplane(rng, du_mac, ru_mac)
        copies = ctx.replicate(packet, 3)
        assert len(copies) == 3

    def test_copies_are_independent(self, ctx, rng, du_mac, ru_mac):
        packet = make_uplane(rng, du_mac, ru_mac)
        copies = ctx.replicate(packet, 1)
        copies[0].eth.dst = MacAddress.from_int(1)
        assert packet.eth.dst != copies[0].eth.dst

    def test_cost_scales_with_copies(self, rng, du_mac, ru_mac):
        packet = make_uplane(rng, du_mac, ru_mac)
        cheap = ActionContext(PacketCache())
        cheap.replicate(packet, 1)
        costly = ActionContext(PacketCache())
        costly.replicate(packet, 4)
        assert costly.total_ns() == pytest.approx(
            4 * cheap.total_ns()
        )

    def test_negative_copies_rejected(self, ctx, rng, du_mac, ru_mac):
        with pytest.raises(ValueError):
            ctx.replicate(make_uplane(rng, du_mac, ru_mac), -1)


class TestA3Caching:
    def test_put_and_pop(self, ctx, rng, du_mac, ru_mac):
        packet = make_uplane(rng, du_mac, ru_mac)
        key = packet.flow_key()
        assert ctx.cache_put(key, packet, tag="ru1") == 1
        assert ctx.cache_put(key, packet.clone(), tag="ru2") == 2
        entries = ctx.cache_pop_all(key)
        assert [tag for tag, _ in entries] == ["ru1", "ru2"]
        assert ctx.cache_pop_all(key) == []

    def test_occupancy_and_tags(self, rng, du_mac, ru_mac):
        cache = PacketCache()
        packet = make_uplane(rng, du_mac, ru_mac)
        cache.put("k", packet, tag="a")
        assert len(cache.peek("k")) == 1
        assert cache.tags("k") == ["a"]
        assert len(cache.peek("other")) == 0

    def test_len_counts_all_keys(self, rng, du_mac, ru_mac):
        cache = PacketCache()
        cache.put("a", make_uplane(rng, du_mac, ru_mac))
        cache.put("b", make_uplane(rng, du_mac, ru_mac))
        cache.put("b", make_uplane(rng, du_mac, ru_mac))
        assert len(cache) == 3

    def test_caching_needs_userspace(self, ctx, rng, du_mac, ru_mac):
        ctx.cache_put("k", make_uplane(rng, du_mac, ru_mac))
        assert ctx.needs_userspace()

    def test_ring_close_drops_the_stale_prefix_by_stamp(self, monkeypatch):
        monkeypatch.setattr(actions, "_RETAINED_SLOTS", 2)
        ring = SlotRing()
        for slot in range(5):
            ring[("early", slot)] = ring[("late", slot)] = slot
            if slot == 1:
                # Popped and set again: stamped anew, at the back.
                assert ring.pop(("early", 0)) == 0
                ring[("early", 0)] = "again"
            ring.close()
            held = {key[1] for key in ring if ring[key] != "again"}
            assert held == set(range(max(0, slot - 1), slot + 1))
            assert (("early", 0) in ring) == (slot < 3)
        assert list(ring) == [("early", 3), ("late", 3), ("early", 4), ("late", 4)]
        assert list(ring._opened) == list(ring._values)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["set", "setdefault", "get", "in", "pop", "pop_default",
                     "del", "close"]
                ),
                st.integers(0, 3),
            ),
            max_size=60,
        )
    )
    def test_ring_matches_a_dict_and_stamp_oracle(self, calls):
        """Every read and write SlotRing answers from its own dicts agrees
        with a plain dict plus a first-set stamp per key."""
        values, opened, slot = {}, {}, 0
        ring = SlotRing()
        with mock.patch.object(actions, "_RETAINED_SLOTS", 2):
            for step, (call, key) in enumerate(calls):
                if call == "set":
                    ring[key] = step
                    opened.setdefault(key, slot)
                    values[key] = step
                elif call == "setdefault":
                    # An existing key keeps its value and its stamp.
                    expected = values.get(key, step)
                    if key not in values:
                        opened[key], values[key] = slot, step
                    assert ring.setdefault(key, step) == expected
                elif call == "get":
                    assert ring.get(key) == values.get(key)
                    assert ring.get(key, "none") == values.get(key, "none")
                elif call == "in":
                    assert (key in ring) == (key in values)
                elif call in ("pop", "del"):
                    if key in values:
                        del opened[key]
                        expected = values.pop(key)
                        if call == "pop":
                            assert ring.pop(key) == expected
                        else:
                            del ring[key]
                    else:
                        with pytest.raises(KeyError):
                            ring.pop(key) if call == "pop" else ring.__delitem__(key)
                elif call == "pop_default":
                    opened.pop(key, None)
                    assert ring.pop(key, "none") == values.pop(key, "none")
                else:
                    ring.close()
                    slot += 1
                    for stale in [k for k, at in opened.items() if at < slot - 2]:
                        del values[stale], opened[stale]
                assert list(ring.items()) == list(values.items())
                assert list(ring._opened.items()) == list(opened.items())


class TestA4HeaderModification:
    def test_set_ru_port(self, ctx, rng, du_mac, ru_mac):
        packet = make_uplane(rng, du_mac, ru_mac)
        ctx.set_ru_port(packet, 3)
        assert packet.eaxc.ru_port == 3
        assert ActionKind.HEADER_MODIFY in action_kinds(ctx)

    def test_set_cplane_num_prb(self, ctx, du_mac, ru_mac):
        packet = make_cplane(du_mac, ru_mac, num_prb=106)
        ctx.set_cplane_num_prb(packet, 273)
        assert packet.message.sections[0].num_prb == 273
        assert packet.message.sections[0].start_prb == 0

    def test_num_prb_widening_rejects_uplane(self, ctx, rng, du_mac, ru_mac):
        with pytest.raises(ValueError):
            ctx.set_cplane_num_prb(make_uplane(rng, du_mac, ru_mac), 273)

    def test_set_section_fields(self, ctx, du_mac, ru_mac):
        packet = make_cplane(du_mac, ru_mac)
        ctx.set_section_fields(packet, section_id=42, beam_id=7)
        assert packet.message.sections[0].section_id == 42
        assert packet.message.sections[0].beam_id == 7

    def test_set_unknown_field_raises(self, ctx, du_mac, ru_mac):
        with pytest.raises(AttributeError):
            ctx.set_section_fields(make_cplane(du_mac, ru_mac), bogus=1)

    @pytest.mark.parametrize("field", ["payload", "compression", "num_prb"])
    def test_set_section_fields_refuses_what_describes_the_payload(
        self, ctx, rng, du_mac, ru_mac, field
    ):
        """A setattr of these would leave the riding parse describing
        bytes the section no longer holds."""
        packet = make_uplane(rng, du_mac, ru_mac)
        section = packet.message.sections[0]
        decoded = section.iq_samples().tolist()
        value = {
            "payload": bytes(len(section.payload)),
            "compression": CompressionConfig(iq_width=14),
            "num_prb": section.num_prb + 1,
        }[field]
        with pytest.raises(ValueError, match="compress"):
            ctx.set_section_fields(packet, section_id=5, **{field: value})
        # Refused whole: no field written, nothing recorded, and the
        # decode still is the section's bytes.
        assert section.section_id == 0 and ctx.events == []
        assert section.iq_samples().tolist() == decoded
        assert (decoded == codec_for(section.compression).decompress(
            section.payload, section.num_prb
        )).all()

    def test_header_modify_stays_in_kernel(self, ctx, rng, du_mac, ru_mac):
        packet = make_uplane(rng, du_mac, ru_mac)
        ctx.set_ru_port(packet, 1)
        ctx.forward(packet)
        assert not ctx.needs_userspace()


class TestA4IqOperations:
    def test_read_exponents(self, ctx, rng, du_mac, ru_mac):
        packet = make_uplane(rng, du_mac, ru_mac)
        exponents = ctx.read_exponents(packet.message.sections[0])
        assert len(exponents) == 6
        assert ActionKind.READ_EXPONENTS in action_kinds(ctx)
        assert not ctx.needs_userspace()

    def test_merge_iq_sums_samples(self, ctx, rng, du_mac, ru_mac):
        a = make_uplane(rng, du_mac, ru_mac).message.sections[0]
        b = make_uplane(rng, du_mac, ru_mac).message.sections[0]
        merged = ctx.merge_iq([a, b])
        expected = a.iq_samples().astype(int) + b.iq_samples().astype(int)
        result = merged.iq_samples().astype(int)
        # Equal up to the recompression quantization step.
        step = 1 << int(merged.exponents().max())
        assert np.abs(result - expected).max() <= step

    def test_merge_iq_saturates(self, ctx, rng, du_mac, ru_mac):
        big = np.full((2, 24), 30000, dtype=np.int16)
        section = UPlaneSection.from_samples(0, 0, big)
        merged = ctx.merge_iq([section, section])
        assert merged.iq_samples().max() <= 32767

    def test_merge_misaligned_rejected(self, ctx, rng, du_mac, ru_mac):
        a = make_uplane(rng, du_mac, ru_mac, start_prb=0).message.sections[0]
        b = make_uplane(rng, du_mac, ru_mac, start_prb=6).message.sections[0]
        with pytest.raises(ValueError):
            ctx.merge_iq([a, b])

    def test_merge_empty_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.merge_iq([])

    def test_merge_cost_grows_with_operands(self, rng, du_mac, ru_mac):
        sections = [
            make_uplane(rng, du_mac, ru_mac).message.sections[0]
            for _ in range(4)
        ]
        two = ActionContext(PacketCache())
        two.merge_iq(sections[:2])
        four = ActionContext(PacketCache())
        four.merge_iq(sections)
        assert four.total_ns() > two.total_ns()

    def test_copy_prbs_aligned_moves_wire_bytes(self, ctx, rng, du_mac, ru_mac):
        source = make_uplane(rng, du_mac, ru_mac, n_prbs=4).message.sections[0]
        dest = UPlaneSection.from_samples(
            1, 0, np.zeros((12, 24), dtype=np.int16)
        )
        result = ctx.copy_prbs(source, dest, source_start_prb=0,
                               dest_start_prb=5, num_prb=4)
        assert result.prb_payload(5) == source.prb_payload(0)
        assert result.prb_payload(8) == source.prb_payload(3)
        # Non-copied PRBs untouched.
        assert result.prb_payload(0) == dest.prb_payload(0)

    def test_copy_prbs_aligned_bounds_checked(self, ctx, rng, du_mac, ru_mac):
        source = make_uplane(rng, du_mac, ru_mac, n_prbs=4).message.sections[0]
        dest = UPlaneSection.from_samples(
            1, 0, np.zeros((6, 24), dtype=np.int16)
        )
        with pytest.raises(ValueError):
            ctx.copy_prbs(source, dest, 0, 4, 4)

    def test_copy_prbs_misaligned_costs_more(self, rng, du_mac, ru_mac):
        source = make_uplane(rng, du_mac, ru_mac, n_prbs=4).message.sections[0]
        dest = UPlaneSection.from_samples(
            1, 0, np.zeros((12, 24), dtype=np.int16)
        )
        aligned = ActionContext(PacketCache())
        aligned.copy_prbs(source, dest, 0, 5, 4, aligned=True)
        misaligned = ActionContext(PacketCache())
        misaligned.copy_prbs(source, dest, 0, 5, 4, aligned=False)
        assert misaligned.total_ns() > 3 * aligned.total_ns()

    def test_iq_operations_need_userspace(self, ctx, rng, du_mac, ru_mac):
        section = make_uplane(rng, du_mac, ru_mac).message.sections[0]
        ctx.decompress(section)
        assert ctx.needs_userspace()


class TestA4BatchedAlignedCopies:
    """extract_prbs / assemble_prbs: the batched RU-sharing fast paths."""

    def test_extract_prbs_matches_copy_prbs(self, ctx, rng):
        samples = random_prb_samples(rng, 12)
        source = UPlaneSection.from_samples(0, 0, samples)
        extracted = ctx.extract_prbs(
            source, source_start_prb=3, num_prb=5, section_id=7
        )
        # Equivalent slow path: zero target + aligned copy_prbs.
        target = UPlaneSection.from_samples(
            7, 0, np.zeros((5, 24), dtype=np.int16)
        )
        copied = ctx.copy_prbs(source, target, 3, 0, 5, aligned=True)
        assert extracted.payload_bytes() == copied.payload_bytes()
        assert extracted.section_id == 7
        assert extracted.num_prb == 5

    def test_extract_prbs_is_zero_copy(self, ctx, rng):
        source = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 8))
        extracted = ctx.extract_prbs(source, 2, 3, section_id=1)
        assert isinstance(extracted.payload, memoryview)
        assert ActionKind.PRB_COPY in action_kinds(ctx)

    def test_extract_prbs_bounds_checked(self, ctx, rng):
        source = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 4))
        with pytest.raises(ValueError):
            ctx.extract_prbs(source, 2, 5, section_id=1)

    def test_assemble_prbs_matches_sequential_copies(self, ctx, rng):
        a = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 4))
        b = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 3))
        assembled = ctx.assemble_prbs(
            num_prb=10,
            placements=[(a, 0), (b, 6)],
            compression=a.compression,
        )
        # Slow equivalent: zero target + two aligned copy_prbs.
        target = UPlaneSection.from_samples(
            0, 0, np.zeros((10, 24), dtype=np.int16)
        )
        target = ctx.copy_prbs(a, target, 0, 0, 4, aligned=True)
        target = ctx.copy_prbs(b, target, 0, 6, 3, aligned=True)
        assert assembled.payload_bytes() == target.payload_bytes()
        # Gap PRBs are idle: exponent 0.
        assert (assembled.exponents()[4:6] == 0).all()

    def test_assemble_prbs_records_per_placement_cost(self, rng):
        ctx = ActionContext(PacketCache())
        a = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 2))
        b = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 2))
        ctx.assemble_prbs(6, [(a, 0), (b, 2)], a.compression)
        kinds = action_kinds(ctx)
        assert kinds.count(ActionKind.PRB_COPY) == 2

    def test_assemble_prbs_rejects_overflow(self, ctx, rng):
        a = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 4))
        with pytest.raises(ValueError):
            ctx.assemble_prbs(5, [(a, 3)], a.compression)

    def test_merge_iq_rejects_mixed_compression(self, ctx, rng):
        from repro.fronthaul.compression import CompressionConfig

        samples = random_prb_samples(rng, 3)
        a = UPlaneSection.from_samples(0, 0, samples)
        b = UPlaneSection.from_samples(
            0, 0, samples, compression=CompressionConfig(iq_width=14)
        )
        with pytest.raises(ValueError, match="mixed compression"):
            ctx.merge_iq([a, b])

    def test_merge_iq_works_on_view_backed_sections(self, ctx, rng, du_mac,
                                                    ru_mac):
        """Merging sections parsed zero-copy from wire frames (the real
        DAS uplink input) must behave like merging owned-bytes sections."""
        from repro.fronthaul.packet import parse_packet

        packets = [
            make_uplane(rng, du_mac, ru_mac, n_prbs=5) for _ in range(3)
        ]
        parsed_sections = [
            parse_packet(p.pack()).message.sections[0] for p in packets
        ]
        owned_sections = [p.message.sections[0] for p in packets]
        via_views = ctx.merge_iq(parsed_sections)
        via_owned = ctx.merge_iq(owned_sections)
        assert via_views.payload_bytes() == via_owned.payload_bytes()


def _zero_section(num_prb):
    return UPlaneSection.from_samples(0, 0, np.zeros((num_prb, 24), np.int16))


def _in_record_order(costs):
    """What ``sum`` returns before Python 3.12: float adds left to right
    from 0 (3.12's ``sum`` compensates the rounding, so it is spelled out)."""
    total = 0
    for cost in costs:
        total += cost
    return total


_COST_MODELS = st.builds(
    ActionCostModel,
    **{
        field.name: st.floats(0, 1e4)
        for field in dataclasses.fields(ActionCostModel)
    },
)
_PRBS = st.integers(1, 32)
_CALLS = st.one_of(
    st.tuples(
        st.sampled_from(
            ["forward", "drop", "inspect", "set_ru_port", "cache_put",
             "cache_pop_all"]
        )
    ),
    st.tuples(st.just("replicate"), st.integers(0, 4)),
    st.tuples(st.sampled_from(["read_exponents", "decompress", "compress"]), _PRBS),
    st.tuples(st.just("merge_iq"), _PRBS, st.integers(1, 4)),
    st.tuples(st.just("copy_prbs"), _PRBS, st.booleans()),
    st.tuples(st.just("assemble_prbs"), st.lists(_PRBS, min_size=1, max_size=3)),
)


def _perform(ctx, packet, call):
    name, *args = call
    if name == "replicate":
        ctx.replicate(packet, *args)
    elif name == "set_ru_port":
        ctx.set_ru_port(packet, 1)
    elif name == "cache_put":
        ctx.cache_put("k", packet)
    elif name == "cache_pop_all":
        ctx.cache_pop_all("k")
    elif name in ("read_exponents", "decompress"):
        getattr(ctx, name)(_zero_section(*args))
    elif name == "compress":
        section = _zero_section(*args)
        ctx.compress(section, section.iq_samples())
    elif name == "merge_iq":
        num_prb, operands = args
        ctx.merge_iq([_zero_section(num_prb)] * operands)
    elif name == "copy_prbs":
        num_prb, aligned = args
        ctx.copy_prbs(
            _zero_section(num_prb), _zero_section(num_prb + 2), 0, 1, num_prb,
            aligned=aligned,
        )
    elif name == "assemble_prbs":
        sections = [_zero_section(num_prb) for num_prb in args[0]]
        offsets = np.cumsum([0] + args[0][:-1]).tolist()
        ctx.assemble_prbs(
            sum(args[0]), list(zip(sections, offsets)), sections[0].compression
        )
    else:
        getattr(ctx, name)(packet)


class TestTraceContract:
    """The running total and the shared events: exact, not approximate."""

    @settings(max_examples=80, deadline=None)
    @given(_COST_MODELS, st.lists(_CALLS, max_size=12))
    def test_running_total_is_the_record_order_sum_bit_for_bit(
        self, cost_model, calls
    ):
        packet = make_cplane(MacAddress.from_int(1), MacAddress.from_int(2))
        ctx = ActionContext(PacketCache(), cost_model)
        for call in calls:
            _perform(ctx, packet, call)
        costs = [event.cost_ns for event in ctx.events]
        assert ctx.total_ns() == _in_record_order(costs)
        if sys.version_info < (3, 12):
            assert ctx.total_ns() == sum(costs)

    def test_same_action_is_the_same_frozen_object(self, rng, du_mac, ru_mac):
        section = make_uplane(rng, du_mac, ru_mac).message.sections[0]
        contexts = []
        for _ in range(2):
            ctx = ActionContext(PacketCache())
            ctx.forward(make_uplane(rng, du_mac, ru_mac))
            ctx.read_exponents(section)
            contexts.append(ctx)
        first, second = (ctx.events for ctx in contexts)
        assert all(a is b for a, b in zip(first, second)) and len(first) == 2
        route = first[0]
        # The recorded event is the flight recorder's own type.
        assert type(route) is SpanEvent
        assert route == SpanEvent("A1.route", 50.0, "kernel")
        with pytest.raises(dataclasses.FrozenInstanceError):
            route.cost_ns = 0.0
        # A different cost is a different event, equal only to its own value.
        ctx = ActionContext(PacketCache())
        ctx.read_exponents(_zero_section(section.num_prb + 1))
        assert ctx.events[0] != first[1]
