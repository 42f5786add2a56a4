"""Middlebox chaining tests."""

import pytest

from repro.core.chain import MiddleboxChain
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime


def packet(src, dst):
    return make_packet(
        src, dst,
        CPlaneMessage(
            direction=Direction.DOWNLINK,
            time=SymbolTime(0, 0, 0, 0),
            sections=[CPlaneSection(0, 0, 50)],
        ),
    )


class Tagger(Middlebox):
    """Test middlebox that counts and forwards."""

    app_name = "tagger"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = 0

    def on_cplane(self, ctx, pkt):
        self.seen += 1
        ctx.forward(pkt)

    on_uplane = on_cplane


class TestMiddleboxChain:
    def test_downlink_order_uplink_reversed(self, du_mac, ru_mac):
        first, second = Tagger(name="first"), Tagger(name="second")
        chain = MiddleboxChain([first, second])
        order = []
        first.on_cplane = lambda ctx, p: (order.append("first"), ctx.forward(p))
        second.on_cplane = lambda ctx, p: (order.append("second"),
                                           ctx.forward(p))
        chain.process_downlink([packet(du_mac, ru_mac)])
        assert order == ["first", "second"]
        order.clear()
        chain.process_uplink([packet(ru_mac, du_mac)])
        assert order == ["second", "first"]

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            MiddleboxChain([])

    def test_total_processing(self, du_mac, ru_mac):
        chain = MiddleboxChain([Tagger(), Tagger()])
        chain.process_downlink([packet(du_mac, ru_mac)])
        forward_ns = chain.middleboxes[0].cost_model.forward_ns
        assert [box.stats.processing_ns_total for box in chain.middleboxes] == [
            forward_ns, forward_ns
        ]
