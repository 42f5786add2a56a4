"""Middlebox template tests."""

import gc
import weakref

import pytest

from repro.core.actions import ActionContext
from repro.core.chain import MiddleboxChain
from repro.core.middlebox import Middlebox
from repro.eval import kit
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.obs import Observability

from tests.conftest import random_prb_samples
from tests import testbed


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
        contexts = [box.process(packet) for packet in packets]
        assert [ctx.wire_bytes for ctx in contexts] == [
            p.wire_size for p in packets
        ]
        assert box.stats.rx_packets == 3
        assert box.stats.processing_ns_total > 0

    def test_traffic_classification(self, rng, du_mac, ru_mac):
        def classify(packet):
            return Middlebox().process(packet).traffic_class

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
        for ctx in (u_ctx, c_ctx):
            by_class.setdefault(ctx.traffic_class, []).append(ctx)
        assert by_class == {"DL U-Plane": [u_ctx], "DL C-Plane": [c_ctx]}
        assert u_ctx.traffic_class == "DL U-Plane"

    def test_emissions_are_what_the_next_stage_receives(
        self, rng, du_mac, ru_mac
    ):
        """A stage's contexts, asked for, hold its emissions; the chain
        hands them — the very objects, unwrapped — to the next stage."""
        received = []

        class Tap(Middlebox):
            def on_uplane(self, ctx, packet):
                received.append(packet)
                ctx.forward(packet)

        contexts = []

        class Head(Middlebox):
            def process_burst(self, packets, sizes, *isolation):
                return super().process_burst(
                    packets, sizes, *isolation, contexts=contexts
                )

        head = Head()
        packets = [uplane(rng, du_mac, ru_mac) for _ in range(4)]
        out = MiddleboxChain([head, Tap()]).process_downlink(packets)
        emitted = [p for ctx in contexts for p in ctx.emissions]
        assert len(emitted) == 4
        assert all(a is b for a, b in zip(emitted, received))
        assert all(a is b for a, b in zip(emitted, out))
        assert [ctx.wire_bytes for ctx in contexts] == [
            p.wire_size for p in packets
        ]

    def test_byte_accounting(self, rng, du_mac, ru_mac):
        box = Middlebox()
        packet = uplane(rng, du_mac, ru_mac)
        box.process(packet)
        assert box.stats.rx_bytes == packet.wire_size
        assert box.stats.tx_bytes == packet.wire_size


def _live_contexts() -> int:
    return sum(type(o) is ActionContext for o in gc.get_objects())


class TestNoRetainedRecord:
    """The context is the packet's one record, and nothing keeps it."""

    @pytest.mark.parametrize("obs", [
        Observability(), Observability(enabled=True, sample_every=1),
    ], ids=["obs-off", "obs-sampled"])
    def test_no_context_outlives_a_chain_burst(self, obs, du_mac, ru_mac):
        boxes = [Middlebox(name=f"stage{i}", obs=obs) for i in range(3)]
        chain = MiddleboxChain(boxes, obs=obs)
        burst = [cplane(du_mac, ru_mac) for _ in range(16)]
        gc.collect()
        before = _live_contexts()
        assert len(chain.process_downlink(burst)) == 16
        # Counted without a collection: a context kept alive by a
        # reference cycle would count here too.
        assert _live_contexts() == before
        assert all(box.stats.rx_packets == 16 for box in boxes)
        if obs.enabled:
            assert len(obs.recorder) == 3 * 16

    def test_context_is_slotted_without_weakref(self):
        ctx = ActionContext(Middlebox().cache)
        assert not hasattr(ctx, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(ctx)

    def test_recorder_row_holds_the_context_events(self, du_mac, ru_mac):
        obs = Observability(enabled=True, sample_every=1)
        ctx = Middlebox(obs=obs).process(cplane(du_mac, ru_mac))
        (row,), dropped = obs.recorder.drain()
        assert dropped == 0 and row[12] is ctx.events and ctx.events


class Tap(Middlebox):
    """Pass-through that remembers what it was handed, in order."""

    def __init__(self, fail_on=None, **kwargs):
        super().__init__(**kwargs)
        self.received = []
        self.fail_on = fail_on

    def on_cplane(self, ctx, packet):
        self._handle(ctx, packet)

    def on_uplane(self, ctx, packet):
        self._handle(ctx, packet)

    def _handle(self, ctx, packet):
        self.received.append(packet)
        if len(self.received) == self.fail_on:
            raise ValueError("handler fault")
        ctx.forward(packet)


def _tapped_network(tap):
    du, rus = testbed.endpoints(
        kit.cell("tap", 1, [kit.flow("dl", 20.0), kit.flow("ul", 5.0)],
                 seed=3)
    )
    return testbed.network([du], rus, [tap])


class TestRunRecorded:
    def test_one_context_per_received_packet_in_order(self):
        tap = Tap()
        contexts = kit.run_recorded(_tapped_network(tap), tap, 2)
        assert len(contexts) == tap.stats.rx_packets == len(tap.received) > 0
        assert all(
            ctx.emissions == [packet]
            and ctx.wire_bytes == packet.wire_size
            for ctx, packet in zip(contexts, tap.received)
        )
        assert {ctx.traffic_class for ctx in contexts} >= {
            "DL U-Plane", "DL C-Plane"
        }
        assert "process_burst" not in vars(tap)

    def test_a_second_recording_counts_only_its_own_packets(self):
        """The record is checked against what the box received in this
        run, not in its lifetime: a box that already carried traffic
        records again."""
        tap = Tap()
        net = _tapped_network(tap)
        first = kit.run_recorded(net, tap, 2)
        second = kit.run_recorded(net, tap, 2)
        assert len(first) + len(second) == tap.stats.rx_packets
        assert len(second) > 0

    def test_a_handler_fault_is_a_partial_record(self):
        tap = Tap(fail_on=3)
        with pytest.raises(RuntimeError, match="contexts recorded"):
            kit.run_recorded(_tapped_network(tap), tap, 2)
        assert tap.stats.rx_packets == len(tap.received) > 3
        assert "process_burst" not in vars(tap)
