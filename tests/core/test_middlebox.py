"""Middlebox template tests."""

import pytest

from repro.core.chain import MiddleboxChain
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

from tests.conftest import random_prb_samples


def uplane(rng, du_mac, ru_mac, direction=Direction.DOWNLINK):
    section = UPlaneSection.from_samples(
        0, 0, random_prb_samples(rng, 4)
    )
    return make_packet(
        du_mac, ru_mac,
        UPlaneMessage(direction=direction, time=SymbolTime(0, 0, 0, 0),
                      sections=[section]),
    )


def cplane(du_mac, ru_mac, direction=Direction.DOWNLINK):
    return make_packet(
        du_mac, ru_mac,
        CPlaneMessage(direction=direction, time=SymbolTime(0, 0, 0, 0),
                      sections=[CPlaneSection(0, 0, 106)]),
    )


class DroppingBox(Middlebox):
    app_name = "dropper"

    def on_uplane(self, ctx, packet):
        ctx.drop(packet)


class TestPassthrough:
    def test_default_forwards_everything(self, rng, du_mac, ru_mac):
        box = Middlebox()
        for packet in (uplane(rng, du_mac, ru_mac), cplane(du_mac, ru_mac)):
            result = box.process(packet)
            assert len(result.emissions) == 1
            assert result.emissions[0] is packet
        assert box.stats.rx_packets == 2
        assert box.stats.tx_packets == 2
        assert box.stats.dropped_packets == 0

    def test_empty_subclass_is_valid(self):
        class Nothing(Middlebox):
            app_name = "noop"

        assert Nothing().name == "noop"

    def test_named_instance(self):
        assert Middlebox(name="my-box").name == "my-box"


class TestProcessing:
    def test_drop_counted(self, rng, du_mac, ru_mac):
        box = DroppingBox()
        result = box.process(uplane(rng, du_mac, ru_mac))
        assert result.emissions == []
        assert box.stats.dropped_packets == 1

    def test_traces_accumulate(self, rng, du_mac, ru_mac):
        box = Middlebox()
        packets = [uplane(rng, du_mac, ru_mac) for _ in range(3)]
        for packet in packets:
            box.process(packet)
        assert len(box.traces) == 3
        assert [t.wire_bytes for t in box.traces] == [
            p.wire_size for p in packets
        ]
        assert box.complete_traces() == list(box.traces)
        assert box.stats.processing_ns_total > 0

    def test_traffic_classification(self, rng, du_mac, ru_mac):
        def classify(packet):
            return Middlebox().process(packet).trace.traffic_class

        assert classify(uplane(rng, du_mac, ru_mac)) == "DL U-Plane"
        assert classify(
            uplane(rng, du_mac, ru_mac, Direction.UPLINK)
        ) == "UL U-Plane"
        assert classify(cplane(du_mac, ru_mac)) == "DL C-Plane"
        assert classify(
            cplane(du_mac, ru_mac, Direction.UPLINK)
        ) == "UL C-Plane"

    def test_by_class_view_from_traffic_class(self, rng, du_mac, ru_mac):
        box = Middlebox()
        u_ctx = box.process(uplane(rng, du_mac, ru_mac))
        c_ctx = box.process(cplane(du_mac, ru_mac))
        by_class = {}
        for trace in box.traces:
            by_class.setdefault(trace.traffic_class, []).append(trace)
        assert by_class == {
            "DL U-Plane": [u_ctx.trace], "DL C-Plane": [c_ctx.trace]
        }
        assert u_ctx.trace.traffic_class == "DL U-Plane"

    def test_emissions_are_what_the_next_stage_receives(
        self, rng, du_mac, ru_mac
    ):
        """process() returns the context it ran; the chain hands its
        emissions — the very objects, unwrapped — to the next stage."""
        received = []

        class Tap(Middlebox):
            def on_uplane(self, ctx, packet):
                received.append(packet)
                ctx.forward(packet)

        contexts = []

        class Head(Middlebox):
            def process(self, packet):
                contexts.append(super().process(packet))
                return contexts[-1]

        head = Head()
        packets = [uplane(rng, du_mac, ru_mac) for _ in range(4)]
        out = MiddleboxChain([head, Tap()]).process_downlink(packets)
        emitted = [p for ctx in contexts for p in ctx.emissions]
        assert len(emitted) == 4
        assert all(a is b for a, b in zip(emitted, received))
        assert all(a is b for a, b in zip(emitted, out))
        assert [ctx.trace for ctx in contexts] == list(head.traces)

    def test_trace_ring_is_bounded(self, du_mac, ru_mac):
        """The memory contract, without a wall clock: however long the
        run, a box holds ring-size traces, the counters stay exact, and
        the figures' guard refuses an evicted ring."""
        boxes = [Middlebox(name=f"stage{i}") for i in range(3)]
        chain = MiddleboxChain(boxes)
        ring = boxes[0].traces.maxlen
        burst = [cplane(du_mac, ru_mac) for _ in range(ring)]
        for _ in range(3):
            chain.process_downlink(burst)
        for box in boxes:
            assert len(box.traces) == ring
            assert box.stats.rx_packets == 3 * ring
            with pytest.raises(RuntimeError, match="traces retained"):
                box.complete_traces()
        fresh = Middlebox()
        fresh.process(cplane(du_mac, ru_mac))
        assert len(fresh.complete_traces()) == 1

    def test_byte_accounting(self, rng, du_mac, ru_mac):
        box = Middlebox()
        packet = uplane(rng, du_mac, ru_mac)
        box.process(packet)
        assert box.stats.rx_bytes == packet.wire_size
        assert box.stats.tx_bytes == packet.wire_size

    def test_telemetry_and_management_exist(self):
        box = Middlebox()
        box.telemetry.publish("t", 1)
        assert box.telemetry.latest("t").payload == 1
        assert box.management.owner == box.name
